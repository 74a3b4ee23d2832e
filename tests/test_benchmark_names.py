"""The names the benchmark's tracer wraps and reads resolve in the program.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of ``SPAN_POINTS``
and ``Recorder.POINTS``, and the benchmark reads ``.chosen`` and ``len`` of
every value of a ``harness.score_all_sources`` fill.  A deletion that would
break the traced benchmark fails here, not only under ``pytest perfbench``.
"""

import pytest

from rwnsgcn import harness

from conftest import planted_dataset
from golden import PERFBENCH, load_perfbench


@pytest.fixture(scope="module")
def spans():
    if not (PERFBENCH / "spans.py").exists():
        pytest.skip("perfbench/spans.py is not present")
    return load_perfbench("spans")


@pytest.mark.parametrize("table", ["SPAN_POINTS", "Recorder.POINTS"])
def test_every_wrapped_name_resolves(spans, table):
    points = spans.SPAN_POINTS if table == "SPAN_POINTS" else spans.Recorder.POINTS
    missing = [f"{path}.{attr}" for path, attr, _ in points
               if not callable(getattr(spans._target(path), attr, None))]
    assert missing == []


def test_a_score_all_sources_fill_has_chosen_and_a_length():
    g = planted_dataset(seed=7).graph
    fill = harness.score_all_sources(g, range(g.num_nodes))
    assert sorted(fill) == list(range(g.num_nodes))
    assert all(isinstance(c.chosen, list) and len(c) == len(c.chosen) for c in fill.values())
    assert any(len(c) for c in fill.values())
