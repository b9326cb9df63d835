import random
from fractions import Fraction

import pytest

from conftest import modularity_ordered, random_assignment, random_network, textbook_scores
from modcert.graph import build_network
from modcert.scores import (
    Partition,
    modularity_of_assignment,
    score_matrix,
    trivial_upper_bound,
)

F = Fraction


def path_abc():
    return score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))


def test_dyad_scores():
    sm = score_matrix(build_network([("a", "b", 1)]))
    assert sm.score(0, 1) == F(1, 2)
    assert [sm.score(a, a) for a in range(2)] == [F(-1, 4), F(-1, 4)]


def test_path_scores():
    sm = path_abc()
    assert sm.score(0, 1) == F(1, 4)
    assert sm.score(1, 2) == F(1, 4)
    assert sm.score(0, 2) == F(-1, 8)
    assert [sm.score(a, a) for a in range(3)] == [F(-1, 16), F(-1, 4), F(-1, 16)]


def test_balance_identity_random():
    for seed in range(30):
        net = random_network(seed, directed=bool(seed % 2))
        sm = score_matrix(net)
        assert sum(v for a, row in enumerate(sm.S) for v in row[a + 1:]) + sum(sm.diag) == 0


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
    pos = sum(v for a, row in enumerate(sm.S) for v in row[a + 1:] if v > 0)
    assert trivial_upper_bound(sm) == F(pos + sum(sm.diag), sm.den)


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
        assert sm1.n == sm2.n
        for a in range(sm1.n):
            for b in range(sm1.n):
                assert sm1.score(a, b) == sm2.score(a, b)


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
    canon = Partition.canonical_assignment([5, 5, 9])
    assert canon == (0, 0, 1)
    p = Partition(assignment=canon, modularity=modularity_of_assignment(sm, canon))
    assert p.communities() == [[0, 1], [2]]
    assert modularity_of_assignment(sm, [5, 5, 9]) == p.modularity


def test_lattice_matches_textbook_scores():
    for seed in range(30):
        net = random_network(seed, directed=bool(seed % 2), loops=True)
        sm = score_matrix(net)
        s, d = textbook_scores(net)
        assert sm.n == net.n
        for a in range(net.n):
            assert sm.S[a][a] == 0
            assert sm.score(a, a) == d[a]
            for b in range(a + 1, net.n):
                assert sm.S[a][b] == sm.S[b][a]
                assert sm.score(a, b) == sm.score(b, a) == s[(a, b)]
        # the balance identity, in integers
        assert sum(v for a, row in enumerate(sm.S) for v in row[a + 1:]) + sum(sm.diag) == 0
