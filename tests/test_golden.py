"""The fixed-seed behaviour fingerprint (``golden.py``) against the
committed ``golden.json``: candidates, negative edges, loss bits, best
epochs, accuracies, MAD and CSV bytes of the three benchmark workloads."""

import json

import pytest

from golden import GOLDEN, WORKLOADS, behaviour


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_behaviour_matches_the_golden_fingerprint(bench_gen, name):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert behaviour(bench_gen, name) == want
