import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from conftest import lattice, random_network
from modcert.brute import brute_force_max
from modcert.chains import DEFAULT_PATH_BUDGET, chain_component, find_penalized_chains, greedy_certify
from modcert.datasets import load_network
from modcert.graph import build_network
from modcert.lp import (
    CertComponent,
    LinearProgram,
    combine,
    exact_simplex,
    linprog,
    minimize_totals_exact,
    solve_lp,
    solve_sparse_system,
)
from modcert.scores import chain_loads, score_matrix, trivial_upper_bound

F = Fraction


def test_solve_lp_single_bound():
    lp = LinearProgram(objective=[F(1)], rows=[({0: F(1)}, F(2))])
    values, obj = solve_lp(lp)
    assert values == [F(2)]
    assert obj == F(2)


def test_solve_lp_shared_row():
    lp = LinearProgram(
        objective=[F(1, 10), F(1, 10)],
        rows=[({0: F(1, 10), 1: F(1, 10)}, F(3, 20))],
    )
    values, obj = solve_lp(lp)
    assert obj == F(3, 20)


def test_solve_lp_zero_objective():
    lp = LinearProgram(objective=[F(0), F(0)], rows=[({0: F(1)}, F(1))])
    values, obj = solve_lp(lp)
    assert values == [F(0), F(0)]
    assert obj == 0
    # no columns at all: the origin is the only point
    assert solve_lp(LinearProgram([], [({}, F(1))])) == ([], 0)


def test_solve_lp_unbounded():
    lp = LinearProgram(objective=[F(1)], rows=[])
    with pytest.raises(ValueError, match="unbounded"):
        solve_lp(lp)


def test_solve_lp_row_validation():
    with pytest.raises(ValueError):
        LinearProgram(objective=[F(1)], rows=[({3: F(1)}, F(1))])


def test_solve_lp_rejects_negative_rhs():
    with pytest.raises(ValueError, match="negative rhs"):
        LinearProgram(objective=[F(1)], rows=[({0: F(1)}, F(-1))])


def test_exact_simplex_duals():
    status, x, obj, duals = exact_simplex(
        [F(3), F(5)],
        [({0: F(1)}, F(4)), ({1: F(2)}, F(12)), ({0: F(3), 1: F(2)}, F(18))],
    )
    assert status == "optimal"
    assert x == [F(2), F(6)] and obj == 36
    assert duals == [F(0), F(3, 2), F(1)]


def test_exact_simplex_unbounded():
    # x1 appears in no row with a positive coefficient
    status, x, obj, duals = exact_simplex([F(1), F(1)], [({0: F(1), 1: F(-1)}, F(2))])
    assert status == "unbounded"
    assert x is None and obj is None and duals is None


def test_minimize_totals_exact_triangle():
    keys = [(0, 1), (0, 2), (1, 2)]
    ub = {(0, 1): F(1, 5), (0, 2): F(3, 10), (1, 2): F(1, 10)}
    sets = [frozenset({(1, 2)}), frozenset({(0, 1)}), frozenset({(0, 2)})]
    x = minimize_totals_exact(keys, ub, sets, F(1, 10))
    assert x == {(0, 1): F(1, 10), (0, 2): F(1, 10), (1, 2): F(1, 10)}


def test_minimize_totals_exact_infeasible_set():
    keys = [(0, 1), (0, 2)]
    ub = {(0, 1): F(1, 10), (0, 2): F(1, 5)}
    sets = [frozenset({(0, 2)}), frozenset({(0, 1)})]  # ub of (0, 1) is below p
    assert minimize_totals_exact(keys, ub, sets, F(3, 20)) is None


def _no_float_solver(*args, **kwargs):
    return None  # HiGHS has no answer


def test_minimize_totals_exact_fallback_triangle(monkeypatch):
    keys = [(0, 1), (0, 2), (1, 2)]
    ub = {(0, 1): F(1, 5), (0, 2): F(3, 10), (1, 2): F(1, 10)}
    sets = [frozenset({(1, 2)}), frozenset({(0, 1)}), frozenset({(0, 2)})]
    float_x = minimize_totals_exact(keys, ub, sets, F(1, 10))
    monkeypatch.setattr("modcert.lp.linprog", _no_float_solver)
    assert minimize_totals_exact(keys, ub, sets, F(1, 10)) == float_x


def test_minimize_totals_exact_fallback_random(monkeypatch):
    cases = []
    for seed in range(20):
        rng = random.Random(seed)
        keys = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        ub = {k: F(rng.randint(1, 12), rng.choice([4, 5, 6, 8])) for k in keys}
        p = F(rng.randint(1, 6), 4)
        sets = []
        for _ in range(rng.randint(1, 6)):
            s = frozenset(rng.sample(keys, rng.randint(1, 4)))
            if sum(ub[k] for k in s) >= p:
                sets.append(s)
        cases.append((keys, ub, sets, p, minimize_totals_exact(keys, ub, sets, p)))
    monkeypatch.setattr("modcert.lp.linprog", _no_float_solver)
    for keys, ub, sets, p, float_x in cases:
        x = minimize_totals_exact(keys, ub, sets, p)
        assert all(0 <= x[k] <= ub[k] for k in keys)
        assert all(sum(x[k] for k in s) >= p for s in sets)
        assert sum(x.values()) == sum(float_x.values())


def test_combine_shared_pair_capacity():
    # two triangle reductions sharing pair (0,1) with capacity 0.15
    sm = lattice(
        4,
        {
            (0, 1): F(3, 20),
            (0, 2): F(1, 2), (1, 2): F(-1, 2),
            (0, 3): F(1, 2), (1, 3): F(-1, 2),
            (2, 3): F(0),
        },
    )
    c1 = CertComponent(
        nodes=(0, 1, 2),
        loads={(0, 1): F(1, 10), (0, 2): F(1, 10), (1, 2): F(-1, 10)}, penalty=F(1, 10),
    )
    c2 = CertComponent(
        nodes=(0, 1, 3),
        loads={(0, 1): F(1, 10), (0, 3): F(1, 10), (1, 3): F(-1, 10)}, penalty=F(1, 10),
    )
    cert = combine([c1, c2], sm)
    assert cert.bound == trivial_upper_bound(sm) - F(3, 20)


def test_combine_single_component_lambda_at_least_one():
    sm = lattice(3, {(0, 1): F(1, 5), (0, 2): F(3, 10), (1, 2): F(-1, 10)})
    comp = CertComponent(
        nodes=(0, 1, 2),
        loads={(0, 1): F(1, 10), (0, 2): F(1, 10), (1, 2): F(-1, 10)}, penalty=F(1, 10),
    )
    cert = combine([comp], sm)
    assert cert.bound <= trivial_upper_bound(sm) - F(1, 10)


def test_combine_empty_pool_gives_trivial():
    sm = score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))
    cert = combine([], sm)
    assert cert.bound == trivial_upper_bound(sm)
    assert cert.components == ()


def test_combine_unbounded_names_empty_loads():
    sm = lattice(3, {(0, 1): F(1), (0, 2): F(1), (1, 2): F(-1)})
    empty = CertComponent(nodes=(0, 1, 2), loads={}, penalty=F(1, 4))
    with pytest.raises(ValueError, match="empty loads"):
        combine([empty], sm)


def test_dedupe_key_ignores_node_order():
    # a chain keeps its path order, a subnetwork its sorted nodes
    loads = chain_loads((0, 2, 1), F(1, 8))
    chain = CertComponent(nodes=(0, 2, 1), loads=loads, penalty=F(1, 8))
    subnet = CertComponent(nodes=(0, 1, 2), loads=dict(loads), penalty=F(1, 8))
    assert chain.dedupe_key() == subnet.dedupe_key()


def test_combine_sign_violation_rejected():
    sm = lattice(3, {(0, 1): F(1), (0, 2): F(1), (1, 2): F(-1)})
    bad = CertComponent(nodes=(0, 1, 2),
                        loads={(0, 1): F(-1, 2)}, penalty=F(1, 4))
    with pytest.raises(ValueError, match="sign"):
        combine([bad], sm)


def test_combine_no_worse_than_unit_lambdas():
    for seed in range(10):
        net = random_network(seed, n=7)
        sm = score_matrix(net)
        cert = greedy_certify(sm)
        if not cert.chains:
            continue
        combined = combine(list(cert.chains), sm)
        assert combined.bound <= cert.bound
        q, _ = brute_force_max(sm)
        assert combined.bound >= q


def test_combine_status_with_achieved():
    sm = score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))
    cert = greedy_certify(sm)
    combined = combine(list(cert.chains), sm)
    # the bound meets the achieved optimum 0 (all singletons), so it is proven
    assert combined.bound == 0


def _forbidden(*args, **kwargs):
    raise AssertionError("the exact simplex must not run")


def test_degenerate_vertex_solved_without_exact_simplex(monkeypatch):
    # (1, 1) is where x0 <= 1 and x1 <= 1 meet; x0 + x1 <= 2 binds there too,
    # so the vertex has 2 support variables and 3 binding rows
    monkeypatch.setattr("modcert.lp.exact_simplex", _forbidden)
    rows = [({0: F(1)}, F(1)), ({1: F(1)}, F(1)), ({0: F(1), 1: F(1)}, F(2))]
    values, obj = solve_lp(LinearProgram(objective=[F(1), F(1)], rows=rows))
    assert values == [F(1), F(1)] and obj == 2
    rows = [({0: F(1, 3)}, F(1, 5)), ({1: F(2, 7)}, F(1, 7)), ({0: F(1, 3), 1: F(2, 7)}, F(12, 35))]
    values, obj = solve_lp(LinearProgram(objective=[F(1, 9), F(1, 4)], rows=rows))
    assert values == [F(3, 5), F(1, 2)] and obj == F(1, 15) + F(1, 8)


def _karate_chain_pools():
    """Karate's greedy chain pool, then the pool after each chain length 3 and 4."""
    sm = score_matrix(load_network("karate"))
    pool = list(greedy_certify(sm).chains)
    pools = [list(pool)]
    seen = {c.dedupe_key() for c in pool}
    for k in (3, 4):
        chains, _ = find_penalized_chains(sm, k, DEFAULT_PATH_BUDGET)
        for nodes in chains:
            comp = chain_component(sm, nodes)
            if comp.dedupe_key() not in seen:
                seen.add(comp.dedupe_key())
                pool.append(comp)
        pools.append(list(pool))
    return sm, pools


def test_karate_chain_pools_without_exact_simplex(monkeypatch):
    sm, (_, pool3, pool4) = _karate_chain_pools()
    monkeypatch.setattr("modcert.lp.exact_simplex", _forbidden)
    assert combine(pool3, sm).bound == F(2585, 6084)
    assert combine(pool4, sm).bound == F(1277, 3042)


def test_karate_greedy_pool_fallback(monkeypatch):
    sm, (greedy_pool, _, _) = _karate_chain_pools()
    float_bound = combine(greedy_pool, sm).bound
    assert float_bound == F(603, 1352)
    widths = []

    def counting_simplex(c, rows):
        widths.append(len(c))
        return exact_simplex(c, rows)

    monkeypatch.setattr("modcert.lp.linprog", _no_float_solver)
    monkeypatch.setattr("modcert.lp.exact_simplex", counting_simplex)
    assert combine(greedy_pool, sm).bound == float_bound
    # one exact simplex on the whole LP
    assert widths == [len(greedy_pool)] == [168]


def _recorded_lps(monkeypatch, solve):
    """Every (obj, rows) that solve() hands the float solver."""
    lps = []

    def recording(obj, rows):
        lps.append((obj, rows))
        return linprog(obj, rows)

    with monkeypatch.context() as m:
        m.setattr("modcert.lp.linprog", recording)
        solve()
    return lps


def _reduction_cases(count):
    """Random weight-reduction LPs (keys, ub, sets, p) on up to 6 pairs, every set coverable."""
    rng = random.Random(0)
    cases = []
    while len(cases) < count:
        keys = [(a, b) for a in range(4) for b in range(a + 1, 4)][:rng.randint(2, 6)]
        ub = {k: F(rng.randint(1, 12), rng.choice([4, 5, 6, 8])) for k in keys}
        p = F(rng.randint(1, 6), 4)
        sets = [frozenset(rng.sample(keys, rng.randint(1, len(keys)))) for _ in range(rng.randint(1, 5))]
        sets = [s for s in sets if sum(ub[k] for k in s) >= p]
        if sets:
            cases.append((keys, ub, sets, p))
    return cases


def test_linprog_matches_scipy_linprog(monkeypatch):
    """The HiGHS binding gives scipy's linprog answer bit for bit, so certificates keep their bytes."""
    sm, (greedy_pool, _, _) = _karate_chain_pools()
    cases = _reduction_cases(200)
    lps = _recorded_lps(monkeypatch, lambda: [minimize_totals_exact(*case) for case in cases])
    lps += _recorded_lps(monkeypatch, lambda: combine(greedy_pool, sm))
    assert len(lps) == 201 and len(lps[-1][0]) == 168
    for obj, rows in lps:
        a_ub = np.zeros((len(rows), len(obj)))
        for i, (coeffs, _) in enumerate(rows):
            for j, v in coeffs.items():
                a_ub[i, j] = float(v)
        res = scipy.optimize.linprog(
            [-float(v) for v in obj], A_ub=a_ub, b_ub=[float(rhs) for _, rhs in rows],
            bounds=(0, None), method="highs",
        )
        assert res.success
        x, y, reduced = linprog(obj, rows)
        assert np.array_equal(res.x, x)
        assert np.array_equal(-res.ineqlin.marginals, y)
        assert np.array_equal(res.lower.marginals, reduced)


# max 3x0 + 5x1 s.t. x0 <= 4, 2x1 <= 12, 3x0 + 2x1 <= 18: optimum (2, 6), 36,
# duals (0, 3/2, 1); (4, 3) is a feasible vertex with objective 27
SMALL_OBJ = [F(3), F(5)]
SMALL_ROWS = [({0: F(1)}, F(4)), ({1: F(2)}, F(12)), ({0: F(3), 1: F(2)}, F(18))]


def _fake_highs(x, y):
    """A linprog stand-in returning the point x with row duals y, as HiGHS reports them."""
    def fake(obj, rows):
        reduced = [-float(c) for c in obj]
        for (coeffs, _), yi in zip(rows, y):
            for j, v in coeffs.items():
                reduced[j] += float(v) * yi
        return [float(v) for v in x], [float(v) for v in y], reduced
    return fake


@pytest.mark.parametrize("x,y,rejected", [
    ([2, 6], [0, 1.5, 1], False),   # the true optimum and its duals
    ([4, 3], [0, 1.5, 1], True),    # suboptimal vertex: c.x = 27 < b.y = 36
    ([4, 3], [-4.5, 0, 2.5], True),  # that vertex's own basic duals, one negative
    ([2, 6], [3, 0, 0], True),      # wrong duals: x1 is not priced out
    ([2, 6], [0, 2.5, 0], True),    # wrong duals: inconsistent on x0's column
])
def test_strong_duality_check_rejects_wrong_float_answer(monkeypatch, x, y, rejected):
    calls = []

    def counting_simplex(*args):
        calls.append(1)
        return exact_simplex(*args)

    monkeypatch.setattr("modcert.lp.linprog", _fake_highs(x, y))
    monkeypatch.setattr("modcert.lp.exact_simplex", counting_simplex)
    values, obj = solve_lp(LinearProgram(objective=SMALL_OBJ, rows=SMALL_ROWS))
    assert values == [F(2), F(6)] and obj == 36
    assert bool(calls) == rejected


def dense_solve(rows, rhs, ncols):
    """Gauss-Jordan on a dense Fraction matrix; None unless the solution is unique."""
    a = [[r.get(j, F(0)) for j in range(ncols)] + [b] for r, b in zip(rows, rhs)]
    pivots = []
    for col in range(ncols):
        row = next((i for i in range(len(pivots), len(a)) if a[i][col] != 0), None)
        if row is None:
            return None
        k = len(pivots)
        a[k], a[row] = a[row], a[k]
        a[k] = [v / a[k][col] for v in a[k]]
        for i in range(len(a)):
            if i != k and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[k])]
        pivots.append(col)
    if any(a[i][-1] != 0 for i in range(len(pivots), len(a))):
        return None
    return [a[k][-1] for k in range(ncols)]


def random_sparse_system(rng, n):
    rows = []
    for i in range(n):
        r = {j: F(rng.randint(-5, 5), rng.randint(1, 4)) for j in range(n) if rng.random() < 0.3}
        r = {j: v for j, v in r.items() if v != 0}
        rows.append(r)
    # a permuted diagonal makes most draws nonsingular without fixing the pivot order
    for i, j in enumerate(rng.sample(range(n), n)):
        rows[i][j] = rows[i].get(j, F(0)) + rng.choice([F(7), F(-9, 2), F(11, 3)])
    rhs = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    return rows, rhs


def test_solve_sparse_system_matches_dense_gauss():
    rng = random.Random(0)
    unique = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        rows, rhs = random_sparse_system(rng, n)
        expect = dense_solve(rows, rhs, n)
        assert solve_sparse_system(rows, rhs, n) == expect
        unique += expect is not None
    assert unique >= 150


def test_solve_sparse_system_overdetermined_consistent():
    # x = 1, y = 2, x + y = 3, 2x - y = 0
    rows = [{0: F(1)}, {1: F(1)}, {0: F(1), 1: F(1)}, {0: F(2), 1: F(-1)}]
    assert solve_sparse_system(rows, [F(1), F(2), F(3), F(0)], 2) == [F(1), F(2)]
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(2, 7)
        rows, rhs = random_sparse_system(rng, n)
        x = dense_solve(rows, rhs, n)
        if x is None:
            continue
        # add a combination of two rows, with its right-hand side
        a, b = rng.sample(range(n), 2)
        extra = {j: rows[a].get(j, F(0)) + 2 * rows[b].get(j, F(0)) for j in set(rows[a]) | set(rows[b])}
        extra = {j: v for j, v in extra.items() if v != 0}
        assert solve_sparse_system(rows + [extra], rhs + [rhs[a] + 2 * rhs[b]], n) == x


def test_solve_sparse_system_inconsistent_or_underdetermined():
    # x = 1, y = 2, x + y = 4 has no solution
    rows = [{0: F(1)}, {1: F(1)}, {0: F(1), 1: F(1)}]
    assert solve_sparse_system(rows, [F(1), F(2), F(4)], 2) is None
    # x + y = 3 alone leaves a free variable
    assert solve_sparse_system([{0: F(1), 1: F(1)}], [F(3)], 2) is None
    # x = 1, y = 2, with a third column no row touches
    assert solve_sparse_system([{0: F(1)}, {1: F(1)}], [F(1), F(2)], 3) is None
    # two copies of one row: consistent but rank-deficient
    rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
    assert solve_sparse_system(rows, [F(1), F(2)], 2) is None
