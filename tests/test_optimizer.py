from fractions import Fraction

import pytest

from conftest import random_network
from modcert.brute import brute_force_max
from modcert.graph import build_network
from modcert.optimizer import OptimizerConfig, optimize
from modcert.scores import modularity_of_assignment, score_matrix


def test_dyad_single_community():
    sm = score_matrix(build_network([("a", "b", 1)]))
    p = optimize(sm, OptimizerConfig(seed=0, restarts=2))
    assert p.modularity == 0
    assert p.num_communities == 1


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)


def test_determinism_same_seed():
    net = random_network(42, n=8)
    sm = score_matrix(net)
    a = optimize(sm, OptimizerConfig(seed=5, restarts=4))
    b = optimize(sm, OptimizerConfig(seed=5, restarts=4))
    assert a.assignment == b.assignment
    assert a.modularity == b.modularity


def test_oracle_parity_small_networks():
    hits = 0
    total = 100
    for seed in range(total):
        net = random_network(seed, n=3 + seed % 7)  # n in 3..9
        sm = score_matrix(net)
        best, _ = brute_force_max(sm)
        got = optimize(sm, OptimizerConfig(seed=seed, restarts=4))
        assert got.modularity <= best
        if got.modularity == best:
            hits += 1
    assert hits >= 95, f"optimizer matched brute force on only {hits}/{total}"


def test_cached_modularity_consistent():
    net = random_network(3, n=8)
    sm = score_matrix(net)
    p = optimize(sm, OptimizerConfig(seed=1, restarts=3))
    assert modularity_of_assignment(sm, p.assignment) == p.modularity
