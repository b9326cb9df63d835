from fractions import Fraction

from conftest import lattice, random_network
from modcert.brute import brute_force_max
from modcert.chains import (
    ResidualScores,
    find_penalized_chains,
    greedy_certify,
    has_remaining_penalized_chain,
)
from modcert.graph import build_network
from modcert.scores import score_matrix

F = Fraction


def path_residual():
    sm = score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))
    return ResidualScores.fresh(sm)


def triangle_residual():
    # synthetic residuals (0.2, 0.3, closing -0.1)
    sm = lattice(3, {(0, 1): F(1, 5), (1, 2): F(3, 10), (0, 2): F(-1, 10)})
    return ResidualScores.fresh(sm)


def applied(res, nodes):
    """A fresh residual of res's scores with the chain applied at its full penalty."""
    out = ResidualScores.fresh(res.base)
    out.apply(nodes, out.penalty(nodes))
    return out


def test_chain_penalty_path():
    res = path_residual()
    assert F(res.penalty([0, 1, 2]), res.den) == F(1, 8)


def test_chain_penalty_triangle():
    # valid ordering: positive consecutive scores 0-1 and 1-2, closing 0-2
    res = triangle_residual()
    assert F(res.penalty([0, 1, 2]), res.den) == F(1, 10)  # the closing magnitude is the minimum
    # with a deeper closing pair the smallest positive sets the penalty
    wide = lattice(3, {(0, 1): F(1, 5), (1, 2): F(3, 10), (0, 2): F(-1, 2)})
    res = ResidualScores.fresh(wide)
    assert F(res.penalty([0, 1, 2]), res.den) == F(1, 5)


def test_chain_penalty_rejects_bad_patterns():
    # a dead chain has penalty 0
    res = path_residual()
    assert res.penalty([0, 2, 1]) == 0  # interior (0,2) negative
    assert res.penalty([0, 1]) == 0  # too short: the closing pair is the positive (0,1)
    assert res.penalty([0, 1, 0]) == 0  # repeated node: the closing pair is the zero diagonal
    zero = lattice(3, {(0, 1): F(0), (1, 2): F(1, 4), (0, 2): F(-1, 8)})
    assert ResidualScores.fresh(zero).penalty([0, 1, 2]) == 0
    closing_positive = lattice(3, {(0, 1): F(1, 4), (1, 2): F(1, 4), (0, 2): F(1, 8)})
    assert ResidualScores.fresh(closing_positive).penalty([0, 1, 2]) == 0


def test_apply_chain_arithmetic():
    res = path_residual()
    out = applied(res, (0, 1, 2))
    assert out.residual(0, 1) == F(1, 8)
    assert out.residual(1, 2) == F(1, 8)
    assert out.residual(0, 2) == 0
    assert all(out.num[a][b] == out.num[b][a] for a in range(3) for b in range(3))
    # the new residual is applied, the original untouched
    pairs = [(0, 1), (1, 2), (0, 2)]
    assert [res.residual(*q) for q in pairs] == [F(1, 4), F(1, 4), F(-1, 8)]
    # every pair of the chain moves toward zero by the penalty
    assert [out.residual(*q) - res.residual(*q) for q in pairs] == [F(-1, 8), F(-1, 8), F(1, 8)]


def test_apply_chain_saturation_rejects_reuse():
    out = applied(path_residual(), (0, 1, 2))
    assert out.penalty([0, 1, 2]) == 0


def test_apply_triangle():
    out = applied(triangle_residual(), (0, 1, 2))
    assert out.residual(0, 1) == F(1, 10)
    assert out.residual(1, 2) == F(1, 5)
    assert out.residual(0, 2) == 0


def test_find_chains_path():
    res = path_residual()
    chains, truncated = find_penalized_chains(res, 3)
    assert not truncated
    assert [(c.nodes, c.penalty) for c in chains] == [((0, 1, 2), F(1, 8))]
    chains4, _ = find_penalized_chains(res, 4)
    assert chains4 == []


def test_find_chains_dyad_empty():
    sm = score_matrix(build_network([("a", "b", 1)]))
    chains, _ = find_penalized_chains(ResidualScores.fresh(sm), 3)
    assert chains == []


def test_find_chains_budget_truncates():
    sm = score_matrix(random_network(0, n=8, p=0.8))
    chains, truncated = find_penalized_chains(ResidualScores.fresh(sm), 5, path_budget=3)
    assert truncated


def test_has_remaining_transitions():
    res = path_residual()
    assert has_remaining_penalized_chain(res)
    assert not has_remaining_penalized_chain(applied(res, (0, 1, 2)))
    dyad = score_matrix(build_network([("a", "b", 1)]))
    assert not has_remaining_penalized_chain(ResidualScores.fresh(dyad))


def test_greedy_path_worked_example():
    sm = score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))
    cert = greedy_certify(sm)
    assert cert.trivial_bound == F(1, 8)
    assert len(cert.chains) == 1
    assert cert.chains[0].nodes == (0, 1, 2)
    assert cert.chains[0].penalty == F(1, 8)
    assert cert.trivial_bound - cert.bound == F(1, 8)
    assert cert.bound == 0
    q, _ = brute_force_max(sm)
    assert cert.bound == q


def test_greedy_deterministic_and_seeded():
    sm = score_matrix(random_network(11, n=8))
    a = greedy_certify(sm)
    b = greedy_certify(sm)
    assert [c.nodes for c in a.chains] == [c.nodes for c in b.chains]


def rescan_greedy(sm):
    """The greedy rule by rescanning: after each applied chain, recompute the
    penalty of every chain of the stage and apply the highest (ties to the
    smallest node sequence). Returns the applied (nodes, penalty) sequence."""
    res = ResidualScores.fresh(sm)
    out = []
    k = 3
    while has_remaining_penalized_chain(res) and k <= sm.n:
        chains, _ = find_penalized_chains(res, k)
        alive = [(ch.nodes, res.penalty(ch.nodes)) for ch in chains]
        while True:
            alive = [(nodes, p) for nodes, p in alive if p > 0]
            if not alive:
                break
            nodes, p = min(alive, key=lambda t: (-t[1], t[0]))
            res.apply(nodes, p)
            out.append((nodes, F(p, res.den)))
            alive = [(nn, res.penalty(nn)) for nn, _ in alive]
        k += 1
    return out


def test_greedy_heap_matches_rescan():
    for seed in range(30):
        sm = score_matrix(random_network(seed, n=6 + seed % 4, directed=bool(seed % 2), p=0.6))
        cert = greedy_certify(sm)
        assert [(c.nodes, c.penalty) for c in cert.chains] == rescan_greedy(sm)


def test_greedy_bound_arithmetic_invariant():
    for seed in range(10):
        sm = score_matrix(random_network(seed, n=7))
        cert = greedy_certify(sm)
        assert cert.bound == cert.trivial_bound - sum((c.penalty for c in cert.chains), F(0))
        assert not has_remaining_penalized_chain(cert.residual)
        # every appended chain strictly tightens the running bound
        assert all(c.penalty > 0 for c in cert.chains)


def test_greedy_validity_against_brute_force():
    for seed in range(20):
        net = random_network(seed, n=3 + seed % 6)
        sm = score_matrix(net)
        cert = greedy_certify(sm)
        q, _ = brute_force_max(sm)
        assert cert.bound >= q


def test_residual_sign_consistency_after_greedy():
    for seed in range(8):
        sm = score_matrix(random_network(seed, n=7))
        cert = greedy_certify(sm)
        res = cert.residual
        assert res.den == sm.den
        for a in range(sm.n):
            for b in range(a + 1, sm.n):
                r = res.num[a][b]
                s0 = sm.S[a][b]
                assert r * s0 >= 0
                assert abs(r) <= abs(s0)


def test_edge_disjoint_chains_bound_matches_plain_sum():
    # two separate path components: chains are edge-disjoint by construction
    sm = score_matrix(build_network([("a", "b", 1), ("b", "c", 1), ("x", "y", 1), ("y", "z", 1)]))
    cert = greedy_certify(sm)
    nodesets = [frozenset(c.nodes) for c in cert.chains]
    assert len(nodesets) == len(set(nodesets))
    assert cert.bound == cert.trivial_bound - sum((c.penalty for c in cert.chains), F(0))
