import random
from fractions import Fraction

import pytest

from conftest import modularity_ordered, random_assignment, random_network
from modcert.graph import build_network
from modcert.scores import (
    Partition,
    modularity,
    modularity_of_assignment,
    score_matrix,
    trivial_upper_bound,
)

F = Fraction


def path_abc():
    return score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))


def test_dyad_scores():
    sm = score_matrix(build_network([("a", "b", 1)]))
    assert sm.s[(0, 1)] == F(1, 2)
    assert sm.d == (F(-1, 4), F(-1, 4))


def test_path_scores():
    sm = path_abc()
    assert sm.s[(0, 1)] == F(1, 4)
    assert sm.s[(1, 2)] == F(1, 4)
    assert sm.s[(0, 2)] == F(-1, 8)
    assert sm.d == (F(-1, 16), F(-1, 4), F(-1, 16))


def test_balance_identity_random():
    for seed in range(30):
        net = random_network(seed, directed=bool(seed % 2))
        sm = score_matrix(net)
        assert sum(sm.s.values(), F(0)) + sum(sm.d, F(0)) == 0


def test_modularity_examples():
    dyad = score_matrix(build_network([("a", "b", 1)]))
    assert modularity_of_assignment(dyad, [0, 0]) == 0
    assert modularity_of_assignment(dyad, [0, 1]) == F(-1, 2)
    assert modularity_of_assignment(path_abc(), [0, 0, 0]) == 0


def test_modularity_size_mismatch():
    with pytest.raises(ValueError):
        modularity_of_assignment(path_abc(), [0, 0])


def test_modularity_matches_ordered_sum():
    rng = random.Random(7)
    for seed in range(25):
        net = random_network(seed, directed=bool(seed % 2))
        sm = score_matrix(net)
        assignment = random_assignment(rng, net.n)
        assert modularity_of_assignment(sm, assignment) == modularity_ordered(net, assignment)


def test_single_community_is_zero():
    for seed in range(10):
        net = random_network(seed)
        sm = score_matrix(net)
        assert modularity_of_assignment(sm, [0] * net.n) == 0


def test_trivial_bound_examples():
    assert trivial_upper_bound(score_matrix(build_network([("a", "b", 1)]))) == 0
    assert trivial_upper_bound(path_abc()) == F(1, 8)


def test_trivial_bound_negative_offdiagonals_only():
    # two disconnected dyads: cross pairs negative, so only diagonals and edges count
    sm = score_matrix(build_network([("a", "b", 1), ("c", "d", 1)]))
    pos = sum(v for v in sm.s.values() if v > 0)
    assert trivial_upper_bound(sm) == pos + sum(sm.d)


def test_scale_invariance():
    for seed in range(10):
        net = random_network(seed, rational_weights=True)
        scaled = build_network(
            [
                (net.node_labels[a], net.node_labels[b], w * 7)
                for (a, b), w in net.edges.items()
                if a <= b or net.directed
            ],
            directed=net.directed,
        )
        # undirected rebuild halves duplicate storage; compare score matrices
        sm1 = score_matrix(net)
        sm2 = score_matrix(scaled)
        assert sm1.s == sm2.s
        assert sm1.d == sm2.d


def test_symmetrization_neutral_for_directed():
    rng = random.Random(3)
    for seed in range(15):
        net = random_network(seed + 100, directed=True)
        sm = score_matrix(net)
        assignment = random_assignment(rng, net.n)
        assert modularity_of_assignment(sm, assignment) == modularity_ordered(net, assignment)


def test_no_partition_beats_trivial_bound():
    from modcert.brute import set_partitions

    for seed in range(6):
        net = random_network(seed, n=6)
        sm = score_matrix(net)
        cap = trivial_upper_bound(sm)
        for rgs in set_partitions(net.n):
            assert modularity_of_assignment(sm, rgs) <= cap


def test_partition_canonical_and_cached_modularity():
    sm = path_abc()
    p = Partition.from_assignment(sm, [5, 5, 9])
    assert p.assignment == (0, 0, 1)
    assert p.num_communities == 2
    assert modularity(sm, p) == p.modularity


def test_scaled_view_consistency():
    for seed in range(8):
        sm = score_matrix(random_network(seed))
        den, S, diag = sm.scaled()
        for (a, b), v in sm.s.items():
            assert Fraction(S[a][b], den) == v
        for a, v in enumerate(sm.d):
            assert Fraction(diag[a], den) == v
