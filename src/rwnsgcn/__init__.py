"""Robust node classification toolkit: random-walk negative sampling,
DPP-diversified negatives, a two-branch GCN, structural attack simulators,
and a reproducible experiment harness."""

from rwnsgcn.graph import (
    Graph,
    build_graph,
    sym_normalized_operator,
    transition_operator,
)
from rwnsgcn.data import (
    Dataset,
    SplitMasks,
    bfs_subgraph,
    degree_filtered_nodes,
    load_content_cites,
    planetoid_split,
    save_content_cites,
)
from rwnsgcn.scoring import (
    CandidateSet,
    bfs_layers,
    combined_scores,
    pagerank_scores,
    rwr_scores,
    score_all_sources,
    score_picks,
    select_candidates,
)
from rwnsgcn.dpp import (
    CommunityAssignment,
    DppKernel,
    build_dpp_kernel,
    build_negative_graph,
    cosine_rows,
    kdpp_sample_exact,
    label_propagation,
)
from rwnsgcn.model import (
    ModelParams,
    TrainedModel,
    adam_step,
    backward,
    forward,
    init_params,
    loss_cross_entropy,
    predict,
    train,
)
from rwnsgcn.attacks import AttackSpec, ctbca_remove, edge_betweenness, twpa_perturb
from rwnsgcn.metrics import MadReport, accuracy, mad
from rwnsgcn.config import ExperimentConfig, config_hash, derive_seed, substream

__version__ = "0.1.0"
