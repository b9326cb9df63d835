import itertools
import random
from fractions import Fraction

import pytest

from conftest import lattice, random_network
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
    assert rs.q_star_best == F(2, 5)
    assert rs.penalty == F(1, 10)


def test_partial_brute_force_path_pattern():
    sub = Subnetwork((0, 1, 2), lattice(3, {(0, 1): F(1, 4), (1, 2): F(1, 4), (0, 2): F(-1, 8)}))
    rs = partial_brute_force(sub)
    assert rs.q_star_best == F(3, 8)
    assert rs.penalty == F(1, 8)


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
        assert rs.q_star_best == exhaustive_best(sub), f"seed {seed}"
        checked += 1


def test_discard_rule_never_changes_result():
    for seed in range(30):
        sub = random_subnetwork(seed + 1000, 5)
        if sub is None:
            continue
        rs = partial_brute_force(sub)
        rs_all = partial_brute_force(sub, _disable_discard=True)
        assert rs.q_star_best == rs_all.q_star_best
        assert rs.penalty == rs_all.penalty


def test_reduce_triangle_canonical():
    sub = Subnetwork((0, 1, 2), lattice(3, {(0, 1): F(1, 5), (0, 2): F(3, 10), (1, 2): F(-1, 10)}))
    rs = partial_brute_force(sub)
    red = reduce_weights(rs)
    assert red.loads() == {(0, 1): F(1, 10), (0, 2): F(1, 10), (1, 2): F(-1, 10)}


def test_reduce_path_pattern():
    sub = Subnetwork((0, 1, 2), lattice(3, {(0, 1): F(1, 4), (1, 2): F(1, 4), (0, 2): F(-1, 8)}))
    rs = partial_brute_force(sub)
    red = reduce_weights(rs)
    assert red.loads() == {(0, 1): F(1, 8), (1, 2): F(1, 8), (0, 2): F(-1, 8)}


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
        assert rs.penalty == p
        red = reduce_weights(rs)
        assert red.loads() == {q: p if v > 0 else -p for q, v in scores.items()}
        ub = {q: abs(v) for q, v in scores.items()}
        singletons = [frozenset([q]) for q in pairs]
        assert lp.minimize_totals_exact(pairs, ub, singletons, p) == dict.fromkeys(pairs, p)
        assert partial_brute_force(red).penalty == p


def test_reduce_fixed_point():
    sub = Subnetwork((0, 1, 2), lattice(3, {(0, 1): F(1, 10), (0, 2): F(1, 10), (1, 2): F(-1, 10)}))
    rs = partial_brute_force(sub)
    red = reduce_weights(rs)
    assert red.loads() == sub.loads()


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
        for q, v in red.loads().items():
            orig = sub.loads()[q]
            assert v * orig > 0
            assert abs(v) <= abs(orig)
        rcheck = partial_brute_force(red)
        assert F(sum(v for v in red.loads().values() if v > 0)) - rcheck.q_star_best >= rs.penalty
        checked += 1
