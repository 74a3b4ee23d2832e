"""Robust node classification toolkit: random-walk negative sampling,
DPP-diversified negatives, a two-branch GCN, structural attack simulators,
and a reproducible experiment harness.  Import each name from its module,
as in ``from rwnsgcn.harness import run_baseline``."""
