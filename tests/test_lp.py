import functools
import itertools
import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from conftest import component, lattice, random_network, rational_loads, reduced_component
from modcert.brute import brute_force_max
from modcert.chains import DEFAULT_PATH_BUDGET, chain_component, find_penalized_chains, greedy_certify
from modcert.datasets import load_network
from modcert.graph import build_network
from modcert import lp
from modcert.lp import (
    CertComponent,
    IntegerLP,
    LinearProgram,
    combine,
    exact_simplex,
    linprog,
    minimize_totals_exact,
    solve_lp,
    solve_sparse_system,
)
from modcert.pipeline import certify
from modcert.scores import chain_loads, score_matrix, trivial_upper_bound
from modcert.subnets import enumerate_subnetworks, partial_brute_force, reduce_weights

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


# max 3x0 + 5x1 s.t. x0 <= 4, 2x1 <= 12, 3x0 + 2x1 <= 18: optimum (2, 6), 36,
# duals (0, 3/2, 1); (4, 3) is a feasible vertex with objective 27
SMALL_OBJ = [F(3), F(5)]
SMALL_ROWS = [({0: F(1)}, F(4)), ({1: F(2)}, F(12)), ({0: F(3), 1: F(2)}, F(18))]


def from_rationals(objective, rows, rhs, den):
    """The integer form of max objective.x s.t. rows.x <= rhs/den, x >= 0, from
    Fraction coefficients: the oracle `IntegerLP.from_columns` must agree with.

    Each column's unit is the gcd of its entries (numerators' gcd over
    denominators' lcm), so the column divided by it is integer with coprime
    entries.
    """
    nv = len(objective)
    gnum, gden = [0] * nv, [1] * nv
    for coeffs in rows:
        for j, v in coeffs.items():
            gnum[j] = math.gcd(gnum[j], v.numerator)
            gden[j] = math.lcm(gden[j], v.denominator)
    units = [(g, h) if g else (1, 1) for g, h in zip(gnum, gden)]
    int_rows = [
        {j: v.numerator // units[j][0] * (units[j][1] // v.denominator) for j, v in coeffs.items()}
        for coeffs in rows
    ]
    # cost per scaled variable: c[j] / units[j], reduced, then on one denominator
    scaled = []
    for c, (u, v) in zip(objective, units):
        num, d = c.numerator * v, c.denominator * u
        g = math.gcd(num, d)
        scaled.append((num // g, d // g))
    cost_den = math.lcm(*(d for _, d in scaled))
    return IntegerLP(int_rows, rhs, den, [num * (cost_den // d) for num, d in scaled], cost_den, units)


def oracle_form(obj, rows, den):
    """from_rationals on a Fraction LP's (objective, [(coeffs, rhs)]), rhs over den."""
    return from_rationals(obj, [coeffs for coeffs, _ in rows], [int(rhs * den) for _, rhs in rows], den)


def integer_form(obj, rows):
    """The integer form solve_lp gives a Fraction LP: each column on the lcm of its denominators."""
    cols = [{} for _ in obj]
    for i, (coeffs, _) in enumerate(rows):
        for j, v in coeffs.items():
            cols[j][i] = v
    columns = []
    for c, col in zip(obj, cols):
        d = math.lcm(c.denominator, *(v.denominator for v in col.values()))
        columns.append((int(c * d), {i: int(v * d) for i, v in col.items()}, d))
    den = math.lcm(*(rhs.denominator for _, rhs in rows))
    return IntegerLP.from_columns(columns, [int(rhs * den) for _, rhs in rows], den)


def test_exact_simplex_duals(monkeypatch):
    form = integer_form(SMALL_OBJ, SMALL_ROWS)
    step, steps = lp._basis_step, []

    def recording(*args):
        steps.append(step(*args))
        return steps[-1]

    monkeypatch.setattr("modcert.lp._basis_step", recording)
    assert lp._exact_answer(form, *exact_simplex(form)) == ([F(2), F(6)], 36)
    # the final basis's duals, Y = cost_den * y
    _, _, ys, yden, entering = steps[-1]
    assert entering == -1 and len(steps) > 1
    assert [F(ys.get(i, 0), yden * form.cost_den) for i in range(3)] == [F(0), F(3, 2), F(1)]


def test_exact_simplex_unbounded():
    # x1 appears in no row with a positive coefficient
    with pytest.raises(ValueError, match="unbounded"):
        exact_simplex(integer_form([F(1), F(1)], [({0: F(1), 1: F(-1)}, F(2))]))


CASE_DEN = 120  # the lcm of the denominators 4, 5, 6, 8 the random reduction cases draw


def rationals(answer):
    """minimize_totals_exact's (nums, den) as Fractions."""
    nums, den = answer
    return [F(v, den) for v in nums]


def test_minimize_totals_exact_triangle():
    # caps 1/5, 3/10, 1/10 and p = 1/10, over 10
    x = minimize_totals_exact([2, 3, 1], [[2], [0], [1]], 1, 10)
    assert rationals(x) == [F(1, 10)] * 3


def test_minimize_totals_exact_infeasible_set():
    # caps 1/10, 1/5 and p = 3/20, over 20: the cap of variable 0 is below p
    assert minimize_totals_exact([2, 4], [[1], [0]], 3, 20) is None


def test_minimize_totals_exact_no_sets():
    assert rationals(minimize_totals_exact([2, 4], [], 3, 20)) == [0, 0]


def _no_float_solver(*args, **kwargs):
    return None  # HiGHS has no answer


def test_minimize_totals_exact_fallback_triangle(monkeypatch):
    case = ([2, 3, 1], [[2], [0], [1]], 1, 10)
    float_x = rationals(minimize_totals_exact(*case))
    monkeypatch.setattr("modcert.lp.linprog", _no_float_solver)
    assert rationals(minimize_totals_exact(*case)) == float_x


def test_minimize_totals_exact_fallback_random(monkeypatch):
    cases = []
    for seed in range(20):
        rng = random.Random(seed)
        nk = 10  # the pairs of 5 nodes
        caps = [rng.randint(1, 12) * (CASE_DEN // rng.choice([4, 5, 6, 8])) for _ in range(nk)]
        p = rng.randint(1, 6) * (CASE_DEN // 4)
        sets = []
        for _ in range(rng.randint(1, 6)):
            s = rng.sample(range(nk), rng.randint(1, 4))
            if sum(caps[i] for i in s) >= p:
                sets.append(s)
        case = (caps, sets, p, CASE_DEN)
        cases.append((case, minimize_totals_exact(*case)))
    monkeypatch.setattr("modcert.lp.linprog", _no_float_solver)
    for (caps, sets, p, den), float_x in cases:
        nums, xden = minimize_totals_exact(caps, sets, p, den)
        assert all(0 <= v * den <= c * xden for v, c in zip(nums, caps))
        assert all(sum(nums[i] for i in s) * den >= p * xden for s in sets)
        assert sum(rationals((nums, xden))) == sum(rationals(float_x))


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
    c1 = component((0, 1, 2), {(0, 1): F(1, 10), (0, 2): F(1, 10), (1, 2): F(-1, 10)}, F(1, 10))
    c2 = component((0, 1, 3), {(0, 1): F(1, 10), (0, 3): F(1, 10), (1, 3): F(-1, 10)}, F(1, 10))
    cert = combine([c1, c2], sm)
    assert cert.bound == trivial_upper_bound(sm) - F(3, 20)


def test_combine_single_component_lambda_at_least_one():
    sm = lattice(3, {(0, 1): F(1, 5), (0, 2): F(3, 10), (1, 2): F(-1, 10)})
    comp = component((0, 1, 2), {(0, 1): F(1, 10), (0, 2): F(1, 10), (1, 2): F(-1, 10)}, F(1, 10))
    cert = combine([comp], sm)
    assert cert.bound <= trivial_upper_bound(sm) - F(1, 10)


def test_combine_empty_pool_gives_trivial():
    sm = score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))
    cert = combine([], sm)
    assert cert.bound == trivial_upper_bound(sm)
    assert cert.components == ()


def test_combine_unbounded_names_empty_loads():
    sm = lattice(3, {(0, 1): F(1), (0, 2): F(1), (1, 2): F(-1)})
    empty = component((0, 1, 2), {}, F(1, 4))
    with pytest.raises(ValueError, match="empty loads"):
        combine([empty], sm)


def test_dedupe_key_ignores_node_order():
    # a chain keeps its path order, a subnetwork its sorted nodes
    loads = chain_loads((0, 2, 1), 1)
    chain = CertComponent(nodes=(0, 2, 1), loads=loads, penalty=1, den=8)
    subnet = CertComponent(nodes=(0, 1, 2), loads=dict(loads), penalty=1, den=8)
    assert chain.dedupe_key() == subnet.dedupe_key()
    # the path a-b-c's 3-chain and its triangle, reduced in closed form, both
    # over the lattice's den 16, are one component
    sm = score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))
    (sub,) = enumerate_subnetworks(sm, 3)
    rs = partial_brute_force(sub)
    triangle = reduced_component(reduce_weights(rs), rs)
    path = chain_component(sm, (0, 1, 2))
    assert (path.den, triangle.den) == (16, 16)
    assert path.dedupe_key() == triangle.dedupe_key()
    # a different penalty on the same loads is another component
    weaker = CertComponent(nodes=(0, 1, 2), loads=dict(triangle.loads), penalty=triangle.penalty + 1, den=16)
    assert weaker.dedupe_key() != triangle.dedupe_key()


def test_combine_sign_violation_rejected():
    sm = lattice(3, {(0, 1): F(1), (0, 2): F(1), (1, 2): F(-1)})
    bad = component((0, 1, 2), {(0, 1): F(-1, 2)}, F(1, 4))
    with pytest.raises(ValueError, match="sign"):
        combine([bad], sm)


def test_combine_no_worse_than_unit_lambdas():
    for seed in range(10):
        net = random_network(seed, n=7)
        sm = score_matrix(net)
        cert, _ = greedy_certify(sm)
        if not cert.components:
            continue
        combined = combine([comp for comp, _ in cert.components], sm)
        assert combined.bound <= cert.bound
        q, _ = brute_force_max(sm)
        assert combined.bound >= q


def test_combine_status_with_achieved():
    sm = score_matrix(build_network([("a", "b", 1), ("b", "c", 1)]))
    cert, _ = greedy_certify(sm)
    combined = combine([comp for comp, _ in cert.components], sm)
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


def test_near_binding_row_solved_without_exact_simplex(monkeypatch):
    # at x0 = 1 the second row's slack is 10**-11, below any float tolerance,
    # yet only the first row binds: the basis says which
    monkeypatch.setattr("modcert.lp.exact_simplex", _forbidden)
    rows = [({0: F(1)}, F(1)), ({0: F(1)}, 1 + F(1, 10**11))]
    assert solve_lp(LinearProgram(objective=[F(1)], rows=rows)) == ([F(1)], F(1))


def _karate_chain_pools():
    """Karate's greedy chain pool, then the pool after each chain length 3 and 4."""
    sm = score_matrix(load_network("karate"))
    pool = [comp for comp, _ in greedy_certify(sm)[0].components]
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


@pytest.mark.parametrize("k,bound,width", [
    (0, F(603, 1352), 168), (1, F(2585, 6084), 436), (2, F(1277, 3042), 1873),
], ids=["greedy", "3-chains", "4-chains"])
def test_karate_chain_pool_fallback(monkeypatch, k, bound, width):
    sm, pools = _karate_chain_pools()
    pool = pools[k]
    assert combine(pool, sm).bound == bound
    widths = []

    def counting_simplex(form):
        widths.append(len(form.cost))
        return exact_simplex(form)

    monkeypatch.setattr("modcert.lp.linprog", _no_float_solver)
    monkeypatch.setattr("modcert.lp.exact_simplex", counting_simplex)
    assert combine(pool, sm).bound == bound
    # one exact simplex on the whole LP
    assert widths == [len(pool)] == [width]


def _recorded_lps(monkeypatch, solve):
    """Every integer form that solve() hands the float solver."""
    lps = []

    def recording(form):
        lps.append(form)
        return linprog(form)

    with monkeypatch.context() as m:
        m.setattr("modcert.lp.linprog", recording)
        solve()
    return lps


def _reduction_cases(count):
    """Random weight-reduction LPs (caps, sets, p, den) on up to 6 pairs, every set coverable.

    Each set lists its variables in the order they were drawn, so most rows'
    column indices do not ascend.
    """
    rng = random.Random(0)
    cases = []
    while len(cases) < count:
        nk = rng.randint(2, 6)
        caps = [rng.randint(1, 12) * (CASE_DEN // rng.choice([4, 5, 6, 8])) for _ in range(nk)]
        p = rng.randint(1, 6) * (CASE_DEN // 4)
        sets = [rng.sample(range(nk), rng.randint(1, nk)) for _ in range(rng.randint(1, 5))]
        sets = [s for s in sets if sum(caps[i] for i in s) >= p]
        if sets:
            cases.append((caps, sets, p, CASE_DEN))
    return cases


def reduction_lp(caps, sets, p, den):
    """The Fraction LP minimize_totals_exact solves: its complement, max sum(z)."""
    rows = [(dict.fromkeys(s, F(1)), F(sum(caps[i] for i in s) - p, den)) for s in sets]
    rows += [({i: F(1)}, F(c, den)) for i, c in enumerate(caps)]
    return [F(1)] * len(caps), rows


def combine_lp(comps, sm):
    """The Fraction LP combine solves: one column per component, one capacity row per pair."""
    pairs = sorted({q for comp in comps for q in comp.loads})
    pair_row = {q: i for i, q in enumerate(pairs)}
    rows = [({}, abs(sm.score(*q))) for q in pairs]
    for jc, comp in enumerate(comps):
        for q, load in rational_loads(comp.loads, comp.den).items():
            rows[pair_row[q]][0][jc] = abs(load)
    return [F(comp.penalty, comp.den) for comp in comps], rows


def fraction_lp(form):
    """The rational LP an integer form stands for, rows in the form's own order."""
    units = form.units
    obj = [F(c * u, form.cost_den * v) for c, (u, v) in zip(form.cost, units)]
    rows = [({j: F(a * units[j][0], units[j][1]) for j, a in coeffs.items()}, F(b, form.den))
            for coeffs, b in zip(form.rows, form.rhs)]
    return obj, rows


def _same_lp(a, b):
    """Equal LPs, every row's coefficients in the same order."""
    return a[0] == b[0] and [(list(c.items()), r) for c, r in a[1]] == [(list(c.items()), r) for c, r in b[1]]


@functools.cache
def _mixed_pools():
    """Seeded random combine pools: chain columns mixed with reduced subnetworks of several denominators."""
    pools = []
    for seed in range(12):
        sm = score_matrix(random_network(seed, n=8))
        chains, _ = find_penalized_chains(sm, 3, DEFAULT_PATH_BUDGET)
        comps = [chain_component(sm, nodes) for nodes in chains]
        for sub in itertools.islice(enumerate_subnetworks(sm, 4), 30):
            rs = partial_brute_force(sub)
            if rs.penalty > 0:
                comps.append(reduced_component(reduce_weights(rs), rs))
        rng = random.Random(seed)
        if len(comps) > 2:
            pools.append((sm, rng.sample(comps, rng.randint(2, min(len(comps), 40)))))
    return pools


def test_combine_integer_columns(monkeypatch):
    """combine's integer form is its Fraction LP, each column divided by the gcd of its entries."""
    sm, (greedy_pool, _, _) = _karate_chain_pools()
    dens = set()
    for sm, comps in [(sm, greedy_pool)] + _mixed_pools():
        (form,) = _recorded_lps(monkeypatch, lambda: combine(comps, sm))
        assert _same_lp(fraction_lp(form), combine_lp(comps, sm))
        for jc, comp in enumerate(comps):
            column = [coeffs[jc] for coeffs in form.rows if jc in coeffs]
            assert math.gcd(*column) == 1 and min(column) > 0
            if len(set(map(abs, comp.loads.values()))) == 1:
                assert set(column) == {1}  # a chain column becomes 0/1
            dens |= {v.denominator for v in rational_loads(comp.loads, comp.den).values()}
    assert len(dens) > 5


def _scipy_lps(monkeypatch):
    """201 weight-reduction LPs, then karate's greedy pool: integer forms and Fraction LPs."""
    sm, (greedy_pool, _, _) = _karate_chain_pools()
    # HiGHS gets each row's columns in the row's own order; the last case's
    # rows run 3, 0, 2 and 2, 1
    cases = _reduction_cases(200) + [([2, 3, 1, 4], [[3, 0, 2], [2, 1]], 3, 10)]
    lps = _recorded_lps(monkeypatch, lambda: [minimize_totals_exact(*case) for case in cases])
    lps += _recorded_lps(monkeypatch, lambda: combine(greedy_pool, sm))
    return lps, [reduction_lp(*case) for case in cases] + [combine_lp(greedy_pool, sm)]


def test_linprog_matches_scipy_linprog(monkeypatch):
    """HiGHS's basis, solved exactly with no fallback, is scipy linprog's point to 1e-9."""
    lps, fraction_lps = _scipy_lps(monkeypatch)
    assert [list(coeffs) for coeffs in lps[-2].rows[:2]] == [[3, 0, 2], [2, 1]]
    assert len(lps) == 202 and len(lps[-1].cost) == 168
    for form, (obj, rows) in zip(lps, fraction_lps):
        assert _same_lp(fraction_lp(form), (obj, rows))
        a_ub = np.zeros((len(rows), len(obj)))
        for i, (coeffs, _) in enumerate(rows):
            for j, v in coeffs.items():
                a_ub[i, j] = float(v)
        res = scipy.optimize.linprog(
            [-float(v) for v in obj], A_ub=a_ub, b_ub=[float(rhs) for _, rhs in rows],
            bounds=(0, None), method="highs",
        )
        assert res.success
        answer = _step_answer(form, linprog(form))
        assert answer is not None
        x, _ = answer
        assert np.allclose([float(v) for v in x], res.x, rtol=0, atol=1e-9)


def _fields(form):
    return form.rows, form.rhs, form.den, form.cost, form.cost_den, form.units


def test_from_columns_matches_from_rationals(monkeypatch):
    """The column builder gives the Fraction oracle's integer form field for
    field: on the 202 LPs above put through solve_lp, and on the combines of
    karate's three chain pools."""
    _, fraction_lps = _scipy_lps(monkeypatch)
    sm, pools = _karate_chain_pools()
    checked = []
    for obj, rows in fraction_lps:
        (form,) = _recorded_lps(monkeypatch, lambda: solve_lp(LinearProgram(obj, rows)))
        den = math.lcm(*(rhs.denominator for _, rhs in rows))
        assert _fields(form) == _fields(integer_form(obj, rows)) == _fields(oracle_form(obj, rows, den))
        checked.append(len(obj))
    for pool in pools:
        (form,) = _recorded_lps(monkeypatch, lambda: combine(pool, sm))
        obj, rows = combine_lp(pool, sm)
        assert _fields(form) == _fields(oracle_form(obj, rows, sm.den))
        checked.append(len(obj))
    assert len(checked) == 205 and checked[-3:] == [168, 436, 1873]


def _fresh_linprog(form):
    """linprog on a solver made for this one call."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp, "_solvers", threading.local())
        return linprog(form)


def test_reused_solver_gives_fresh_bases(monkeypatch):
    """The thread's one solver, reused in either order, gives each LP a new solver's basis."""
    lps, _ = _scipy_lps(monkeypatch)
    sm, pools = _karate_chain_pools()
    lps += [_recorded_lps(monkeypatch, lambda: combine(pool, sm))[0] for pool in pools]
    fresh = [_fresh_linprog(form) for form in lps]
    assert None not in fresh
    linprog(lps[0])
    solver = lp._solvers.highs
    for order in (range(len(lps)), reversed(range(len(lps)))):
        for k in order:
            assert linprog(lps[k]) == fresh[k]
            # no LP outlives its call
            assert lp._solvers.highs is solver and solver.getNumCol() == 0


def test_failed_solve_leaves_nothing_behind():
    unbounded = integer_form([F(1), F(1)], [({0: F(1), 1: F(-1)}, F(2))])
    assert linprog(unbounded) is None
    assert lp._solvers.highs.getNumCol() == 0
    # the next LP has the same two columns, so a left-over basis would fit it
    form = integer_form(SMALL_OBJ, SMALL_ROWS)
    assert linprog(form) == _fresh_linprog(form) == ([0, 1], [1, 2])


def _dumps(runs):
    return [certify(load_network(name), **options).dumps() for name, options in runs]


def test_reused_solver_certificates_match_fresh(monkeypatch):
    """Certificates are byte for byte the same whether linprog reuses its solver or not."""
    # knoki's chains need no LP; karate's run solves 142 weight-reduction LPs and one combine
    runs = [("knoki", {}), ("karate", dict(method="subnets", max_subnet_size=4, subnet_budget=450))]
    reused = _dumps(runs)
    calls = []
    monkeypatch.setattr("modcert.lp.linprog", lambda form: calls.append(form) or _fresh_linprog(form))
    assert _dumps(runs) == reused and len(calls) == 143


def test_threads_keep_their_own_solvers():
    """Two threads certifying at once each get a serial run's document, on solvers of their own."""
    runs = [("karate", dict(method="subnets", max_subnet_size=4, subnet_budget=100))]
    (serial,) = _dumps(runs)
    worker = {}

    def work():
        (worker["doc"],) = _dumps(runs)
        worker["solver"] = lp._solvers.highs

    thread = threading.Thread(target=work)
    thread.start()
    (main,) = _dumps(runs)
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert main == worker["doc"] == serial
    assert worker["solver"] is not lp._solvers.highs


def _floats(form):
    cost, rows, rhs = form.floats()
    return cost, list(rows), rhs


@pytest.mark.parametrize("factor", [7, 3**40])
def test_minimize_totals_exact_is_scale_free(monkeypatch, factor):
    """caps, p and den multiplied by one factor give the same answer from the
    same HiGHS input, so a reduction on any denominator keeps its bytes."""
    cases = _reduction_cases(50)
    scaled = [([c * factor for c in caps], sets, p * factor, den * factor) for caps, sets, p, den in cases]
    answers, lps = [], []
    for batch in (cases, scaled):
        lps.append(_recorded_lps(monkeypatch, lambda: answers.append(
            [rationals(minimize_totals_exact(*case)) for case in batch])))
    assert answers[0] == answers[1]
    assert len(lps[0]) == len(lps[1]) == 50
    for form, form_scaled in zip(*lps):
        assert form_scaled.den == form.den * factor
        assert _floats(form_scaled) == _floats(form)


def test_integer_form_floats_are_correctly_rounded():
    """HiGHS's input is float(Fraction) even where numerator and denominator exceed 2**53."""
    big = F(2**60 + 19, 3**40)
    assert float(big.numerator) / float(big.denominator) != float(big)  # the naive division drifts
    rhs = F(2**61 + 1, 3**41)
    obj = [big, F(1)]
    rows = [({0: big, 1: F(7, 3)}, rhs), ({0: 3 * big, 1: F(5, 2)}, F(2))]
    # column 0 over 3**40 is big, 3big; column 1 over 6 is 1, 7/3, 5/2
    columns = [(2**60 + 19, {0: 2**60 + 19, 1: 3 * (2**60 + 19)}, 3**40), (6, {0: 14, 1: 15}, 6)]
    form = IntegerLP.from_columns(columns, [int(rhs * 3**42), 2 * 3**42], 3**42)
    assert _fields(form) == _fields(oracle_form(obj, rows, 3**42))
    assert _same_lp(fraction_lp(form), (obj, rows))
    assert form.units == [(2**60 + 19, 3**40), (1, 6)]
    float_cost, float_rows, float_rhs = form.floats()
    assert float_cost == [float(big), 1.0] and float_rhs == [float(rhs), 2.0]
    assert list(float_rows) == [{0: float(big), 1: float(F(7, 3))}, {0: float(3 * big), 1: 2.5}]


def _fake_basis(basic, binding):
    """A linprog stand-in reporting these basic columns and binding rows as HiGHS's basis."""
    return lambda form: (basic, binding)


def _checked_simplex(widths):
    """exact_simplex, recording each LP's width and checking its vertex against the tableau's."""
    def run(form):
        widths.append(len(form.cost))
        answer = exact_simplex(form)
        _, x, objective, _ = tableau_simplex(*fraction_lp(form))
        assert lp._exact_answer(form, *answer) == (x, objective)
        return answer
    return run


def _counted_solve(monkeypatch, basic, binding, obj, rows):
    """solve_lp on the fake basis, and how often the exact simplex ran."""
    calls = []
    monkeypatch.setattr("modcert.lp.linprog", _fake_basis(basic, binding))
    monkeypatch.setattr("modcert.lp.exact_simplex", _checked_simplex(calls))
    return solve_lp(LinearProgram(objective=obj, rows=rows)), len(calls)


# x names the basic columns, where the point may be nonzero, and y the
# binding rows, where the duals may be
@pytest.mark.parametrize("x,y,rejected", [
    ([0, 1], [1, 2], False),  # the optimal basis: (2, 6), duals (0, 3/2, 1)
    ([0, 1], [0, 2], True),   # the vertex (4, 3), whose duals (-9/2, 0, 5/2) have one negative
    ([0, 1], [0, 1], True),   # (4, 6) breaks 3x0 + 2x1 <= 18
    ([0], [0], True),         # (4, 0) with duals (3, 0, 0) leaves x1's profit at 5
    ([0, 1], [1], True),      # unequal sizes: one row cannot fix two columns
])
def test_strong_duality_check_rejects_wrong_float_answer(monkeypatch, x, y, rejected):
    (values, obj), calls = _counted_solve(monkeypatch, x, y, SMALL_OBJ, SMALL_ROWS)
    assert values == [F(2), F(6)] and obj == 36
    assert calls == rejected


DELTA = F(1, 10**11)


@pytest.mark.parametrize("obj,rows,x,y", [
    # the exact point (1/2, 3/2) of the two nearly parallel rows breaks
    # x1 <= 6/5, which the float point (1, 1) keeps
    ([F(1), F(1)],
     [({0: F(1), 1: F(1)}, F(2)), ({0: F(1), 1: 1 + DELTA}, 2 + 3 * DELTA / 2), ({1: F(1)}, F(6, 5))],
     [0, 1], [0, 1]),
    # there the exact point is (-98, 100), below x0 >= 0
    ([F(1), F(1)],
     [({0: F(1), 1: F(1)}, F(2)), ({0: F(1), 1: 1 + DELTA}, 2 + 100 * DELTA)],
     [0, 1], [0, 1]),
    # the two rows are parallel, so the basis is singular
    ([F(1), F(1)], [({0: F(1), 1: F(1)}, F(2)), ({0: F(2), 1: F(2)}, F(4))],
     [0, 1], [0, 1]),
])
def test_exact_checks_reject_wrong_float_answer(monkeypatch, obj, rows, x, y):
    """Feasibility, x >= 0 and a unique solution are each checked, not implied by the basis."""
    answer, calls = _counted_solve(monkeypatch, x, y, obj, rows)
    assert calls == 1
    _, expect_x, expect_obj, _ = tableau_simplex(obj, rows)
    assert answer == (expect_x, expect_obj)


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


def integer_system(rows, rhs):
    """The same system with every equation scaled to integers."""
    out_rows, out_rhs = [], []
    for r, b in zip(rows, rhs):
        d = math.lcm(b.denominator, *(v.denominator for v in r.values()))
        out_rows.append({j: int(v * d) for j, v in r.items()})
        out_rhs.append(int(b * d))
    return out_rows, out_rhs


def solve_exact(rows, rhs, ncols):
    """solve_sparse_system on the integer form of a Fraction system, answered in Fractions."""
    sol = solve_sparse_system(*integer_system(rows, rhs), ncols)
    if sol is None:
        return None
    nums, den = sol
    assert den > 0
    return [F(v, den) for v in nums]


def test_solve_sparse_system_matches_dense_gauss():
    rng = random.Random(0)
    unique = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        rows, rhs = random_sparse_system(rng, n)
        expect = dense_solve(rows, rhs, n)
        assert solve_exact(rows, rhs, n) == expect
        unique += expect is not None
    assert unique >= 150


def test_solve_sparse_system_overdetermined_consistent():
    # x = 1, y = 2, x + y = 3, 2x - y = 0
    rows = [{0: 1}, {1: 1}, {0: 1, 1: 1}, {0: 2, 1: -1}]
    assert solve_sparse_system(rows, [1, 2, 3, 0], 2) == ([1, 2], 1)
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
        assert solve_exact(rows + [extra], rhs + [rhs[a] + 2 * rhs[b]], n) == x


def test_solve_sparse_system_inconsistent_or_underdetermined():
    # x = 1, y = 2, x + y = 4 has no solution
    rows = [{0: 1}, {1: 1}, {0: 1, 1: 1}]
    assert solve_sparse_system(rows, [1, 2, 4], 2) is None
    # x + y = 3 alone leaves a free variable
    assert solve_sparse_system([{0: 1, 1: 1}], [3], 2) is None
    # x = 1, y = 2, with a third column no row touches
    assert solve_sparse_system([{0: 1}, {1: 1}], [1, 2], 3) is None
    # two copies of one row: consistent but rank-deficient
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
    assert solve_sparse_system(rows, [1, 2], 2) is None


def test_solve_sparse_system_forty_digit_coefficients():
    rng = random.Random(2)
    for n in (1, 3, 6, 10):
        rows = [{j: rng.randint(-10**40, 10**40) for j in range(n) if rng.random() < 0.7} for _ in range(n + 2)]
        x = [F(rng.randint(-10**40, 10**40), rng.randint(1, 10**40)) for _ in range(n)]
        # the last two rows repeat sums of the others, so the system is consistent
        rows[-2] = {j: rows[0].get(j, 0) + rows[1 % n].get(j, 0) for j in range(n)}
        rows[-1] = {j: 3 * v for j, v in rows[-2].items()}
        rows = [{j: F(v) for j, v in r.items() if v} for r in rows]
        rhs = [sum(v * x[j] for j, v in r.items()) for r in rows]
        expect = dense_solve(rows, rhs, n)
        assert solve_exact(rows, rhs, n) == expect
        if expect is not None:
            assert expect == x
    assert solve_exact([{0: F(10**40 + 1), 1: F(10**39)}], [F(1)], 2) is None


# The dense Fraction tableau the exact simplex replaced, kept as the oracle
# whose vertex the exact simplex must return.

def tableau_simplex(c, rows):
    """Solve max c.x subject to rows (coeffs, rhs), coeffs.x <= rhs, and x >= 0.

    Every rhs must be >= 0: the simplex starts from the slack basis. Returns
    (status, x, objective, duals) with status "optimal" or "unbounded";
    duals[i] is the shadow price of row i.
    """
    n = len(c)
    m = len(rows)
    ncols = n + m
    zero = Fraction(0)

    T = [[zero] * (ncols + 1) for _ in range(m)]
    for i, (coeffs, rhs) in enumerate(rows):
        if rhs < 0:
            raise ValueError(f"row {i} has negative rhs {rhs}")
        for j, v in coeffs.items():
            T[i][j] = Fraction(v)
        T[i][n + i] = Fraction(1)
        T[i][ncols] = Fraction(rhs)
    basis = list(range(n, ncols))
    obj = [-Fraction(v) for v in c] + [zero] * (m + 1)

    while True:
        col = next((j for j in range(ncols) if obj[j] < 0), -1)
        if col < 0:
            break
        row = -1
        best = None
        for r in range(m):
            a = T[r][col]
            if a > 0:
                ratio = T[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best = ratio
                    row = r
        if row < 0:
            return "unbounded", None, None, None
        piv = T[row][col]
        T[row] = [v / piv for v in T[row]]
        prow = T[row]
        for r in range(m):
            if r != row and T[r][col] != 0:
                f = T[r][col]
                T[r] = [a - f * b for a, b in zip(T[r], prow)]
        f = obj[col]
        obj = [a - f * b for a, b in zip(obj, prow)]
        basis[row] = col

    xfull = [zero] * ncols
    for r, b in enumerate(basis):
        xfull[b] = T[r][-1]
    return "optimal", xfull[:n], obj[-1], obj[n:ncols]


# The exact recovery as it was done in Fractions before the integer form, kept
# as the oracle the integer recovery must agree with.

def fraction_solve_sparse_system(rows, rhs, ncols):
    """Sparse Gaussian elimination in Fractions; None unless the solution is unique."""
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    m = len(rows)
    col_rows = {}
    for i, r in enumerate(rows):
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    assign_order = []
    for _ in range(min(m, ncols)):
        best = min(((len(touch), j) for j, touch in col_rows.items() if touch), default=None)
        if best is None:
            break
        pcol = best[1]
        prow = min(col_rows[pcol], key=lambda i: (len(rows[i]), i))
        inv = 1 / rows[prow][pcol]
        rows[prow] = {j: v * inv for j, v in rows[prow].items()}
        rhs[prow] *= inv
        for j in rows[prow]:
            col_rows[j].discard(prow)
        for i in list(col_rows[pcol]):
            f = rows[i].get(pcol)
            if not f:
                continue
            ri = rows[i]
            for j, v in rows[prow].items():
                nv = ri.get(j, F(0)) - f * v
                if nv == 0:
                    ri.pop(j, None)
                    col_rows.get(j, set()).discard(i)
                else:
                    ri[j] = nv
                    col_rows.setdefault(j, set()).add(i)
            rhs[i] -= f * rhs[prow]
        assign_order.append((prow, pcol))
    eliminated_rows = {r for r, _ in assign_order}
    if any(i not in eliminated_rows and (rows[i] or rhs[i] != 0) for i in range(m)):
        return None
    if len({c for _, c in assign_order}) < ncols:
        return None
    x = [F(0)] * ncols
    for prow, pcol in reversed(assign_order):
        acc = rhs[prow]
        for j, v in rows[prow].items():
            if j != pcol:
                acc -= v * x[j]
        x[pcol] = acc
    return x


def fraction_solve_on_pattern(eqs, unknowns):
    pos = {u: k for k, u in enumerate(unknowns)}
    sol = fraction_solve_sparse_system(
        [{pos[j]: v for j, v in coeffs.items() if j in pos} for coeffs, _ in eqs],
        [rhs for _, rhs in eqs],
        len(unknowns),
    )
    if sol is None or any(v < 0 for v in sol):
        return None
    return dict(zip(unknowns, sol))


def fraction_exact_from_basis(obj, rows, basic, binding):
    """(x, objective) in Fractions from HiGHS's basis; None unless provably optimal."""
    nv = len(obj)
    xs = fraction_solve_on_pattern([rows[i] for i in binding], basic)
    if xs is None:
        return None
    x = [xs.get(j, F(0)) for j in range(nv)]
    for coeffs, rhs in rows:
        if sum((v * xs[j] for j, v in coeffs.items() if j in xs), F(0)) > rhs:
            return None
    cols = [{} for _ in range(nv)]
    for i, (coeffs, _) in enumerate(rows):
        for j, v in coeffs.items():
            cols[j][i] = v
    y = fraction_solve_on_pattern([(cols[j], F(obj[j])) for j in basic], binding)
    if y is None:
        return None
    profit = [F(v) for v in obj]
    for i, yv in y.items():
        for j, v in rows[i][0].items():
            profit[j] -= yv * v
    if any(g > 0 for g in profit):
        return None
    objective = sum((F(obj[j]) * v for j, v in xs.items()), F(0))
    if objective != sum((rows[i][1] * v for i, v in y.items()), F(0)):
        return None
    return x, objective


def _step_answer(form, basis):
    """(x, objective) from the basis step on basis; None unless it proves the basis optimal."""
    step = lp._basis_step(form, *basis)
    if step is None or step[4] >= 0:
        return None
    return lp._exact_answer(form, step[0], step[1] * form.den)


def _assert_recovery_matches_oracle(monkeypatch, form):
    """The basis step keeps what the Fraction oracle keeps, and solve_lp agrees."""
    obj, rows = fraction_lp(form)
    basis = linprog(form)
    assert basis is not None
    expect = fraction_exact_from_basis(obj, rows, *basis)
    assert _step_answer(form, basis) == expect
    fallbacks = []
    with monkeypatch.context() as m:
        m.setattr("modcert.lp.exact_simplex", _checked_simplex(fallbacks))
        answer = solve_lp(LinearProgram(obj, rows))
    if expect is None:
        status, x, objective, _ = tableau_simplex(obj, rows)
        assert fallbacks == [len(obj)] and answer == (x, objective)
    else:
        assert fallbacks == [] and answer == expect
    return expect is None


def test_integer_recovery_matches_fraction_oracle(monkeypatch):
    sm, (greedy_pool, _, _) = _karate_chain_pools()
    karate = load_network("karate")
    # the first ~370 subnetworks are triangles, reduced in closed form; 450
    # reaches 142 weight-reduction LPs and the final combine
    lps = _recorded_lps(monkeypatch, lambda: certify(karate, method="subnets", max_subnet_size=4,
                                                     subnet_budget=450))
    assert len(lps) == 143
    cases = _reduction_cases(200)
    lps += _recorded_lps(monkeypatch, lambda: [minimize_totals_exact(*case) for case in cases])
    lps += _recorded_lps(monkeypatch, lambda: combine(greedy_pool, sm))
    pools = _mixed_pools()
    lps += _recorded_lps(monkeypatch, lambda: [combine(comps, sm) for sm, comps in pools])
    fell_back = [_assert_recovery_matches_oracle(monkeypatch, form) for form in lps]
    assert fell_back.count(False) > 0.9 * len(lps)
    # the exact simplex alone, HiGHS unused, finds the tableau's vertex; past
    # 200 columns the tableau takes seconds, and the objective is HiGHS's
    wide = []
    for form in lps:
        got = lp._exact_answer(form, *exact_simplex(form))
        obj, rows = fraction_lp(form)
        if len(obj) <= 200:
            _, x, objective, _ = tableau_simplex(obj, rows)
            assert got == (x, objective)
        else:
            wide.append(len(obj))
            assert got[1] == _step_answer(form, linprog(form))[1]
    assert len(lps) == 356 and wide == [387, 450]
