"""Checks that only run when optional corpus files have been fetched."""

import pytest

from modcert.datasets import DatasetMissing, load_network
from modcert.optimizer import optimize
from modcert.scores import score_matrix


def _try_load(name):
    try:
        return load_network(name)
    except DatasetMissing:
        pytest.skip(f"{name} not fetched (see data/README.md)")


def test_lesmis_published_best_when_available():
    net = _try_load("lesmis")
    assert net.n == 77
    sm = score_matrix(net)
    part = optimize(sm, seed=0, restarts=16)
    assert round(float(part.modularity), 6) == 0.566688
