from fractions import Fraction

from conftest import lattice, random_network, rational_loads
from modcert.brute import brute_force_max
from modcert.chains import (
    chain_component,
    find_penalized_chains,
    greedy_certify,
    has_remaining_penalized_chain,
)
from modcert.graph import build_network
from modcert.scores import score_matrix, trivial_upper_bound

F = Fraction


def path_lattice():
    return score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))


def triangle_lattice():
    # synthetic scores (0.2, 0.3, closing -0.1)
    return lattice(3, {(0, 1): F(1, 5), (1, 2): F(3, 10), (0, 2): F(-1, 10)})


def applied(sm, nodes):
    """A copy of sm with the chain applied at its full penalty."""
    out = sm.copy()
    out.apply(nodes, out.penalty(nodes))
    return out


def greedy_chains(sm):
    """The greedy pass's chains, each checked to carry multiplier 1."""
    cert, _ = greedy_certify(sm)
    assert all(lam == 1 for _, lam in cert.components)
    return cert, [comp for comp, _ in cert.components]


def greedy_residual(sm, chains):
    """A copy of sm with the greedy pass's chains applied in order."""
    res = sm.copy()
    for comp in chains:
        assert comp.den == sm.den
        res.apply(comp.nodes, comp.penalty)
    return res


def test_chain_penalty_path():
    sm = path_lattice()
    assert F(sm.penalty([0, 1, 2]), sm.den) == F(1, 8)


def test_chain_penalty_triangle():
    # valid ordering: positive consecutive scores 0-1 and 1-2, closing 0-2
    sm = triangle_lattice()
    assert F(sm.penalty([0, 1, 2]), sm.den) == F(1, 10)  # the closing magnitude is the minimum
    # with a deeper closing pair the smallest positive sets the penalty
    wide = lattice(3, {(0, 1): F(1, 5), (1, 2): F(3, 10), (0, 2): F(-1, 2)})
    assert F(wide.penalty([0, 1, 2]), wide.den) == F(1, 5)


def test_chain_penalty_rejects_bad_patterns():
    # a dead chain has penalty 0
    sm = path_lattice()
    assert sm.penalty([0, 2, 1]) == 0  # interior (0,2) negative
    assert sm.penalty([0, 1]) == 0  # too short: the closing pair is the positive (0,1)
    assert sm.penalty([0, 1, 0]) == 0  # repeated node: the closing pair is the zero diagonal
    zero = lattice(3, {(0, 1): F(0), (1, 2): F(1, 4), (0, 2): F(-1, 8)})
    assert zero.penalty([0, 1, 2]) == 0
    closing_positive = lattice(3, {(0, 1): F(1, 4), (1, 2): F(1, 4), (0, 2): F(1, 8)})
    assert closing_positive.penalty([0, 1, 2]) == 0


def test_apply_chain_arithmetic():
    sm = path_lattice()
    out = applied(sm, (0, 1, 2))
    assert out.score(0, 1) == F(1, 8)
    assert out.score(1, 2) == F(1, 8)
    assert out.score(0, 2) == 0
    assert all(out.S[a][b] == out.S[b][a] for a in range(3) for b in range(3))
    # the copy is applied, the original untouched
    pairs = [(0, 1), (1, 2), (0, 2)]
    assert [sm.score(*q) for q in pairs] == [F(1, 4), F(1, 4), F(-1, 8)]
    # every pair of the chain moves toward zero by the penalty
    assert [out.score(*q) - sm.score(*q) for q in pairs] == [F(-1, 8), F(-1, 8), F(1, 8)]


def test_apply_chain_saturation_rejects_reuse():
    out = applied(path_lattice(), (0, 1, 2))
    assert out.penalty([0, 1, 2]) == 0


def test_apply_triangle():
    out = applied(triangle_lattice(), (0, 1, 2))
    assert out.score(0, 1) == F(1, 10)
    assert out.score(1, 2) == F(1, 5)
    assert out.score(0, 2) == 0


def test_find_chains_path():
    sm = path_lattice()
    chains, truncated = find_penalized_chains(sm, 3)
    assert not truncated
    assert chains == [(0, 1, 2)]
    comp = chain_component(sm, chains[0])
    assert F(comp.penalty, comp.den) == F(1, 8)
    assert rational_loads(comp.loads, comp.den) == {(0, 1): F(1, 8), (1, 2): F(1, 8), (0, 2): F(-1, 8)}
    chains4, _ = find_penalized_chains(sm, 4)
    assert chains4 == []


def test_find_chains_dyad_empty():
    sm = score_matrix(build_network([("a", "b", 1)]))
    chains, _ = find_penalized_chains(sm, 3)
    assert chains == []


def test_find_chains_budget_truncates():
    sm = score_matrix(random_network(0, n=8, p=0.8))
    chains, truncated = find_penalized_chains(sm, 5, path_budget=3)
    assert truncated


def test_has_remaining_transitions():
    sm = path_lattice()
    assert has_remaining_penalized_chain(sm)
    assert not has_remaining_penalized_chain(applied(sm, (0, 1, 2)))
    dyad = score_matrix(build_network([("a", "b", 1)]))
    assert not has_remaining_penalized_chain(dyad)


def test_greedy_path_worked_example():
    sm = score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))
    cert, chains = greedy_chains(sm)
    assert trivial_upper_bound(sm) == F(1, 8)
    assert len(chains) == 1
    assert chains[0].nodes == (0, 1, 2)
    assert F(chains[0].penalty, chains[0].den) == F(1, 8)
    assert trivial_upper_bound(sm) - cert.bound == F(1, 8)
    assert cert.bound == 0
    q, _ = brute_force_max(sm)
    assert cert.bound == q


def test_greedy_deterministic_and_seeded():
    sm = score_matrix(random_network(11, n=8))
    _, a = greedy_chains(sm)
    _, b = greedy_chains(sm)
    assert [c.nodes for c in a] == [c.nodes for c in b]


def rescan_greedy(sm):
    """The greedy rule by rescanning: after each applied chain, recompute the
    penalty of every chain of the stage and apply the highest (ties to the
    smallest node sequence). Returns the applied (nodes, penalty) sequence."""
    res = sm.copy()
    out = []
    k = 3
    while has_remaining_penalized_chain(res) and k <= sm.n:
        chains, _ = find_penalized_chains(res, k)
        alive = [(nodes, res.penalty(nodes)) for nodes in chains]
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
        _, chains = greedy_chains(sm)
        assert [(c.nodes, F(c.penalty, c.den)) for c in chains] == rescan_greedy(sm)


def test_greedy_bound_arithmetic_invariant():
    for seed in range(10):
        sm = score_matrix(random_network(seed, n=7))
        cert, chains = greedy_chains(sm)
        assert cert.bound == trivial_upper_bound(sm) - sum((F(c.penalty, c.den) for c in chains), F(0))
        assert not has_remaining_penalized_chain(greedy_residual(sm, chains))
        # every appended chain strictly tightens the running bound
        assert all(c.penalty > 0 for c in chains)


def test_greedy_validity_against_brute_force():
    for seed in range(20):
        net = random_network(seed, n=3 + seed % 6)
        sm = score_matrix(net)
        cert, _ = greedy_certify(sm)
        q, _ = brute_force_max(sm)
        assert cert.bound >= q


def test_residual_sign_consistency_after_greedy():
    for seed in range(8):
        sm = score_matrix(random_network(seed, n=7))
        _, chains = greedy_chains(sm)
        res = greedy_residual(sm, chains)
        assert res.den == sm.den
        for a in range(sm.n):
            for b in range(a + 1, sm.n):
                r = res.S[a][b]
                s0 = sm.S[a][b]
                assert r * s0 >= 0
                assert abs(r) <= abs(s0)


def test_edge_disjoint_chains_bound_matches_plain_sum():
    # two separate path components: chains are edge-disjoint by construction
    sm = score_matrix(build_network([("a", "b", 1), ("b", "c", 1), ("x", "y", 1), ("y", "z", 1)]))
    cert, chains = greedy_chains(sm)
    nodesets = [frozenset(c.nodes) for c in chains]
    assert len(nodesets) == len(set(nodesets))
    assert cert.bound == trivial_upper_bound(sm) - sum((F(c.penalty, c.den) for c in chains), F(0))
