from fractions import Fraction

import pytest

from conftest import modularity_ordered, random_network
from modcert.brute import BELL, brute_force_max, set_partitions
from modcert.graph import build_network
from modcert.scores import score_matrix


def all_partitions_reference(items):
    """Independent set-partition enumeration by recursive block insertion."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions_reference(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1:]
        yield [[first]] + smaller


def test_set_partition_counts_match_bell():
    for n in range(1, 9):
        assert sum(1 for _ in set_partitions(n)) == BELL[n]


def test_set_partitions_are_restricted_growth():
    for rgs in set_partitions(5):
        assert rgs[0] == 0
        for i in range(1, 5):
            assert rgs[i] <= max(rgs[:i]) + 1


def test_brute_dyad_and_path():
    dyad = score_matrix(build_network([("a", "b", 1)]))
    q, p = brute_force_max(dyad)
    assert q == 0 and p.assignment == (0, 0)

    path = score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))
    q, p = brute_force_max(path)
    assert q == 0 and p.assignment == (0, 0, 0)


def test_brute_singleton_self_loop():
    sm = score_matrix(build_network([("a", "a", 1)]))
    q, p = brute_force_max(sm)
    assert q == 0 and p.assignment == (0,)


def test_brute_limit_refused():
    sm = score_matrix(build_network([(i, i + 1) for i in range(12)]))  # a 13-node path
    with pytest.raises(ValueError, match="limited to n <= 12, got n = 13"):
        brute_force_max(sm)


def test_brute_against_independent_enumeration():
    for seed in range(12):
        net = random_network(seed, n=6, directed=bool(seed % 2))
        sm = score_matrix(net)
        best = None
        for blocks in all_partitions_reference(list(range(net.n))):
            assignment = [0] * net.n
            for ci, block in enumerate(blocks):
                for v in block:
                    assignment[v] = ci
            q = modularity_ordered(net, assignment)
            if best is None or q > best:
                best = q
        got, _ = brute_force_max(sm)
        assert got == best


def test_brute_tie_break_is_lexicographic_canonical():
    # two disconnected dyads admit symmetric optima; the reported argmax must
    # be the lexicographically smallest restricted-growth encoding
    sm = score_matrix(build_network([("a", "b", 1), ("c", "d", 1)]))
    q, p = brute_force_max(sm)
    assert q == Fraction(1, 2)
    assert p.assignment == (0, 0, 1, 1)
    assert p.modularity == q
