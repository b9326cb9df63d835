import itertools
import random
from fractions import Fraction

import pytest

from conftest import lattice, random_network, rational_loads
from modcert.brute import set_partitions
from modcert import lp
from modcert.graph import build_network
from modcert.scores import score_matrix
from modcert.subnets import (
    Subnetwork,
    enumerate_subnetworks,
    partial_brute_force,
    reduce_weights,
)

F = Fraction


def rational_scores(sub: Subnetwork) -> dict:
    """A subnetwork's loads as Fractions."""
    return rational_loads(sub.loads(), sub.lattice.den)


def rational_penalty(rs) -> Fraction:
    """A resolution's penalty as a Fraction."""
    return F(rs.penalty, rs.sub.lattice.den)


def best_value(rs) -> Fraction:
    """The best partition value a resolution found: its positive total less its penalty."""
    positives = sum(v for v in rs.sub.loads().values() if v > 0)
    return F(positives - rs.penalty, rs.sub.lattice.den)


def exhaustive_best(sub: Subnetwork) -> Fraction:
    """Full set-partition maximum of a subnetwork's scores (oracle)."""
    k = len(sub.nodes)
    best = None
    for rgs in set_partitions(k):
        val = F(0)
        for a, b in itertools.combinations(range(k), 2):
            if rgs[a] == rgs[b]:
                val += sub.lattice.score(a, b)
        if best is None or val > best:
            best = val
    return best


def random_subnetwork(seed: int, size: int) -> Subnetwork | None:
    rng = random.Random(seed)
    nodes = tuple(range(size))
    scores = {}
    npos = nneg = 0
    for a, b in itertools.combinations(nodes, 2):
        r = rng.random()
        if r < 0.45:
            scores[(a, b)] = F(rng.randint(1, 12), rng.choice([4, 8, 16]))
            npos += 1
        elif r < 0.8:
            scores[(a, b)] = -F(rng.randint(1, 12), rng.choice([4, 8, 16]))
            nneg += 1
    if npos < 2 or nneg < 1:
        return None
    return Subnetwork(nodes, lattice(size, scores))


def test_enumerate_path_single():
    sm = score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))
    subs = list(enumerate_subnetworks(sm, 3))
    assert len(subs) == 1
    assert subs[0].nodes == (0, 1, 2)


def test_enumerate_dyad_empty():
    sm = score_matrix(build_network([("a", "b", 1)]))
    for size in range(3, 7):
        assert list(enumerate_subnetworks(sm, size)) == []


def test_enumerate_all_positive_empty():
    # 3-clique with nothing negative: synthetic all-positive scores
    sm = lattice(3, {(0, 1): F(1), (0, 2): F(1), (1, 2): F(1)})
    assert list(enumerate_subnetworks(sm, 3)) == []


def test_enumerate_unique_and_complete():
    """Extension enumeration agrees with brute-force subset filtering, size by size."""
    for seed in range(8):
        net = random_network(seed, n=7, p=0.45)
        sm = score_matrix(net)
        adj = [[sm.S[a][b] > 0 for b in range(sm.n)] for a in range(sm.n)]

        def connected(nodes):
            seen = {nodes[0]}
            stack = [nodes[0]]
            while stack:
                u = stack.pop()
                for v in nodes:
                    if v not in seen and adj[u][v]:
                        seen.add(v)
                        stack.append(v)
            return len(seen) == len(nodes)

        for size in (3, 4, 5):
            subs = list(enumerate_subnetworks(sm, size))
            for s in subs:  # the lattice sm induces on the nodes, in ascending order
                assert list(s.nodes) == sorted(s.nodes)
                assert s.lattice.n == size and s.lattice.den == sm.den
                assert s.lattice.diag == (0,) * size
                for i, j in itertools.product(range(size), repeat=2):
                    want = sm.S[s.nodes[i]][s.nodes[j]] if i != j else 0
                    assert s.lattice.S[i][j] == want
            got = [s.nodes for s in subs]
            assert len(got) == len(set(got))
            expect = []
            for combo in itertools.combinations(range(sm.n), size):
                if not connected(combo):
                    continue
                pos = neg = 0
                for a, b in itertools.combinations(combo, 2):
                    v = sm.S[a][b]
                    pos += v > 0
                    neg += v < 0
                if pos >= 2 and neg >= 1:
                    expect.append(tuple(combo))
            assert sorted(got) == sorted(expect)


def test_partial_brute_force_triangle():
    sub = Subnetwork((0, 1, 2), lattice(3, {(0, 1): F(1, 5), (0, 2): F(3, 10), (1, 2): F(-1, 10)}))
    rs = partial_brute_force(sub)
    assert best_value(rs) == F(2, 5)
    assert rational_penalty(rs) == F(1, 10)


def test_partial_brute_force_path_pattern():
    sub = Subnetwork((0, 1, 2), lattice(3, {(0, 1): F(1, 4), (1, 2): F(1, 4), (0, 2): F(-1, 8)}))
    rs = partial_brute_force(sub)
    assert best_value(rs) == F(3, 8)
    assert rational_penalty(rs) == F(1, 8)


def test_star_without_negative_has_zero_penalty():
    sub = Subnetwork((0, 1, 2), lattice(3, {(0, 1): F(3, 10), (0, 2): F(3, 10)}))
    rs = partial_brute_force(sub)
    assert rs.penalty == 0


def test_oracle_equivalence_random_subnetworks():
    checked = 0
    seed = 0
    while checked < 60:
        seed += 1
        sub = random_subnetwork(seed, 3 + seed % 4)
        if sub is None:
            continue
        rs = partial_brute_force(sub)
        assert best_value(rs) == exhaustive_best(sub), f"seed {seed}"
        checked += 1


def test_discard_rule_never_changes_result():
    for seed in range(30):
        sub = random_subnetwork(seed + 1000, 5)
        if sub is None:
            continue
        rs = partial_brute_force(sub)
        best = exhaustive_best(sub)
        pairs = itertools.combinations(range(5), 2)
        positive_total = sum(max(sub.lattice.score(a, b), 0) for a, b in pairs)
        assert best_value(rs) == best, f"seed {seed}"
        assert rational_penalty(rs) == positive_total - best, f"seed {seed}"


def test_reduce_triangle_canonical():
    sub = Subnetwork((0, 1, 2), lattice(3, {(0, 1): F(1, 5), (0, 2): F(3, 10), (1, 2): F(-1, 10)}))
    rs = partial_brute_force(sub)
    red = reduce_weights(rs)
    assert rational_scores(red) == {(0, 1): F(1, 10), (0, 2): F(1, 10), (1, 2): F(-1, 10)}


def test_reduce_path_pattern():
    sub = Subnetwork((0, 1, 2), lattice(3, {(0, 1): F(1, 4), (1, 2): F(1, 4), (0, 2): F(-1, 8)}))
    rs = partial_brute_force(sub)
    red = reduce_weights(rs)
    assert rational_scores(red) == {(0, 1): F(1, 8), (1, 2): F(1, 8), (0, 2): F(-1, 8)}


def test_reduce_triangle_closed_form_is_lp_optimum():
    """A penalized triangle reduces to +-min(u1, u2, |n|) on every pair, the
    reduction LP's optimum over its three one-pair partition costs."""
    rng = random.Random(8)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for trial in range(300):
        u1, u2, n = (F(rng.randint(1, 20), rng.choice([1, 3, 8, 45])) for _ in range(3))
        if trial % 3 == 1:
            n = min(u1, u2)  # tie between the negative pair and a positive one
        elif trial % 3 == 2:
            u2 = u1
        neg = rng.choice(pairs)
        u = iter((u1, u2))
        scores = {q: -n if q == neg else next(u) for q in pairs}
        p = min(u1, u2, n)
        rs = partial_brute_force(Subnetwork((0, 1, 2), lattice(3, scores)))
        assert rational_penalty(rs) == p
        red = reduce_weights(rs)
        assert rational_scores(red) == {q: p if v > 0 else -p for q, v in scores.items()}
        lat = rs.sub.lattice
        caps = [abs(lat.S[a][b]) for a, b in pairs]
        nums, xden = lp.minimize_totals_exact(caps, [[0], [1], [2]], int(p * lat.den), lat.den)
        assert [F(v, xden) for v in nums] == [p] * 3
        assert rational_penalty(partial_brute_force(red)) == p


def test_reduce_fixed_point():
    sub = Subnetwork((0, 1, 2), lattice(3, {(0, 1): F(1, 10), (0, 2): F(1, 10), (1, 2): F(-1, 10)}))
    rs = partial_brute_force(sub)
    red = reduce_weights(rs)
    assert rational_scores(red) == rational_scores(sub)


def test_reduction_preserves_penalty_and_definition_bounds():
    checked = 0
    seed = 0
    while checked < 40:
        seed += 1
        sub = random_subnetwork(seed + 500, 3 + seed % 4)
        if sub is None:
            continue
        rs = partial_brute_force(sub)
        if rs.penalty <= 0:
            continue
        red = reduce_weights(rs)
        reduced, original = rational_scores(red), rational_scores(sub)
        for q, v in reduced.items():
            orig = original[q]
            assert v * orig > 0
            assert abs(v) <= abs(orig)
        rcheck = partial_brute_force(red)
        assert rational_penalty(rcheck) >= rational_penalty(rs)
        checked += 1
