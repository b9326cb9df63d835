"""Linear programming with exact rational answers.

Every LP here has one form: maximize c.x subject to sparse rows
coeffs.x <= rhs with every rhs >= 0, and x >= 0, so the origin is feasible
and the slack basis is a starting vertex. Every solve, the combination LP
and the weight-reduction LPs alike, takes one path. The LP is put once into
an integer form (`IntegerLP`): integer rows and right-hand sides over one
row denominator, integer costs over one cost denominator, and a positive
unit per column, the gcd of its entries, so that a chain column of the
combination LP becomes 0/1. `IntegerLP.from_columns` builds it from columns
of integers over each column's own denominator, as a `CertComponent` holds
its penalty and loads. HiGHS solves it in floating point, fed the float
of each of the LP's own rationals, and hands back only its optimal basis:
the basic columns and the rows whose slacks are nonbasic. One basis step
solves the primal and the dual of a basis exactly, in integers by
fraction-free elimination, and names the variable Bland's rule enters there.
HiGHS's basis is kept when the step names none and strong duality holds
exactly (Applegate, Cook, Dash & Espinoza, Exact solutions to linear
programming problems, 2007). If HiGHS fails or the step rejects its basis, a
primal simplex with Bland's rule solves the whole LP from the slack basis,
each of its bases solved by the same step. That is the one exact engine, in
Python ints; a Fraction is built only for the answer, and every number that
leaves this module is exact.

HiGHS (Huangfu & Hall, Parallelizing the dual revised simplex method, 2018)
is called through the binding bundled with scipy, `scipy.optimize._highspy`,
with the options `scipy.optimize.linprog` sets for method="highs". Each
thread keeps one solver, its options set once: `passModel` replaces the
previous model together with its solution and basis, and the model is
cleared after each call. HiGHS's `run` releases the GIL, so two threads can
be inside it at once, and a solver shared between them would be unsafe.
The binding is imported by the first LP solve, not with this module:
loading `scipy.optimize` takes most of a second, and checking a certificate
solves no LP. Most LPs here have at most six columns. On those, linprog's
own input checks and result objects cost several times the solve, and a new
solver for each LP nearly as much as the rest of the call.
"""

from __future__ import annotations

import heapq
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .scores import Pair, Partition, ScoreMatrix, trivial_upper_bound

# ---------------------------------------------------------------------------
# exact linear systems (sparse fraction-free elimination)

def solve_sparse_system(rows: list[dict[int, int]], rhs: list[int], ncols: int) -> tuple[list[int], int] | None:
    """Solve a sparse integer linear system exactly; (numerators, denominator) or None.

    The answer is x[j] = numerators[j] / denominator with the denominator
    positive. None unless the rows are consistent and determine every one of
    the ncols unknowns. The elimination is Bareiss's fraction-free one
    (Sylvester's identity and multistep integer-preserving Gaussian
    elimination, Math. Comp. 1968), so every entry stays a minor of the input
    and every division is exact. Pivots are chosen to limit fill-in, and a row the
    pivot column misses is left alone: it is brought up to date, by one
    exact scaling, only when an elimination reaches it.
    """
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    m = len(rows)
    # a row last updated at some step holds the minors Bareiss gives it there,
    # and level[i] is the pivot of that step (1 before any)
    level = [1] * m
    col_rows: dict[int, set[int]] = {}  # column -> rows using it, eliminated rows left out
    for i, r in enumerate(rows):
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    # Markowitz-style: pick the column with fewest live rows, then the
    # sparsest row within it. The heap holds (live rows, column); a step
    # changes only the pivot row's columns, which it pushes again, so an
    # entry whose count is out of date is skipped.
    heap = [(len(touch), j) for j, touch in col_rows.items()]
    heapq.heapify(heap)
    assign_order: list[tuple[int, int]] = []  # (pivot row, pivot col)
    last = 1  # the latest pivot: the determinant of the rows and columns eliminated so far

    for _ in range(min(m, ncols)):
        while heap and heap[0][0] != len(col_rows[heap[0][1]]):
            heapq.heappop(heap)
        if not heap:
            break
        pcol = heapq.heappop(heap)[1]
        prow = min(col_rows[pcol], key=lambda i: (len(rows[i]), i))
        if level[prow] != last:
            d = level[prow]
            rows[prow] = {j: v * last // d for j, v in rows[prow].items()}
            rhs[prow] = rhs[prow] * last // d
        pr = rows[prow]
        piv, pb = pr[pcol], rhs[prow]
        for j in pr:
            col_rows[j].discard(prow)
        for i in col_rows[pcol]:
            # Bareiss: row i becomes (piv * row i - f * pivot row) / d, exactly
            ri, d = rows[i], level[i]
            f = ri.pop(pcol)
            if piv != 1:
                ri = {j: v * piv for j, v in ri.items()}
            for j, w in pr.items():
                if j != pcol:
                    v = ri.get(j, 0) - f * w
                    if v:
                        ri[j] = v
                        col_rows[j].add(i)
                    else:
                        del ri[j]
                        col_rows[j].discard(i)
            if d != 1:
                ri = {j: v // d for j, v in ri.items()}
            rows[i] = ri
            rhs[i] = (rhs[i] * piv - f * pb) // d
            level[i] = piv
        col_rows[pcol].clear()
        for j in pr:
            if col_rows[j]:
                heapq.heappush(heap, (len(col_rows[j]), j))
        assign_order.append((prow, pcol))
        last = piv

    eliminated_rows = {r for r, _ in assign_order}
    for i in range(m):
        if i not in eliminated_rows and (rows[i] or rhs[i]):
            return None  # a leftover row with unsolved columns or a nonzero rhs
    if len(assign_order) < ncols:
        return None  # underdetermined
    # back-substitute in reverse elimination order; last * x is integral (Cramer)
    x = [0] * ncols
    for prow, pcol in reversed(assign_order):
        r = rows[prow]
        acc = rhs[prow] * last
        for j, v in r.items():
            if j != pcol:
                acc -= v * x[j]
        x[pcol] = acc // r[pcol]
    if last < 0:
        return [-v for v in x], -last
    return x, last


# ---------------------------------------------------------------------------
# the integer form, float solve, exact basis step, exact simplex

@dataclass
class IntegerLP:
    """max c.x subject to a.x <= b and x >= 0, held in integers.

    With units[j] = (num, den) > 0 standing for num/den, the LP reads
    a[i][j] = rows[i][j] * units[j], b[i] = rhs[i] / den and
    c[j] = cost[j] * units[j] / cost_den. Every rhs is >= 0. In the scaled
    variables X[j] = units[j] * x[j] the rows are integer and the costs share
    one denominator, which is what the exact recovery solves in.
    """

    rows: list[dict[int, int]]
    rhs: list[int]
    den: int
    cost: list[int]
    cost_den: int
    units: list[tuple[int, int]]

    def floats(self) -> tuple[list[float], Iterator[dict[int, float]], list[float]]:
        """The costs, rows and right-hand sides as HiGHS gets them.

        Each is one int/int true division, which rounds correctly, so it is
        bit for bit the float of the LP's own rational. The rows come one at
        a time, so no float copy of the matrix is held.
        """
        units, cden = self.units, self.cost_den
        return (
            [c * u / (cden * v) for c, (u, v) in zip(self.cost, units)],
            ({j: a * units[j][0] / units[j][1] for j, a in r.items()} for r in self.rows),
            [b / self.den for b in self.rhs],
        )

    @classmethod
    def from_columns(cls, columns: Sequence[tuple[int, dict[int, int], int]], rhs: list[int], den: int) -> "IntegerLP":
        """The integer form of max c.x s.t. a.x <= rhs/den, x >= 0, given by columns.

        Column j is (cost, entries, d): c[j] = cost/d and a[i][j] = entries[i]/d.
        Its unit is g/d in lowest terms, g the gcd of its entries (d if all are
        0), so the column divided by it is integer with coprime entries and its
        cost per scaled variable cost/g. Rows list columns in ascending order.
        """
        rows: list[dict[int, int]] = [{} for _ in rhs]
        units, scaled = [], []
        for j, (c, entries, d) in enumerate(columns):
            g = math.gcd(*entries.values()) or d
            for i, a in entries.items():
                rows[i][j] = a // g
            h, k = math.gcd(g, d), math.gcd(c, g)
            units.append((g // h, d // h))
            scaled.append((c // k, g // k))
        cost_den = math.lcm(*(cd for _, cd in scaled))
        return cls(rows, rhs, den, [num * (cost_den // cd) for num, cd in scaled], cost_den, units)


# each thread's one HiGHS solver, made on the thread's first LP
_solvers = threading.local()


def linprog(lp: IntegerLP) -> tuple[list[int], list[int]] | None:
    """HiGHS's optimal basis of lp as (basic columns, binding rows); None if it has none.

    The float rows go to HiGHS as they are, a row-wise matrix that HiGHS
    turns into columns itself, with the options linprog sets for
    method="highs", so the basis is linprog's. The solver is this thread's
    one solver, its options set once when the thread first calls here (run
    releases the GIL, so threads must not share one); `passModel` replaces
    the previous model and basis, and the model is cleared after each call.
    A row binds when its slack is nonbasic. No float of the answer is read:
    the basis states the vertex exactly, and None when HiGHS finds no
    optimum or no valid basis.
    """
    from scipy.optimize._highspy import _core as highspy

    nv, m = len(lp.cost), len(lp.rows)
    cost, rows, rhs = lp.floats()
    start, index, value = [0], [], []
    for coeffs in rows:
        index += coeffs.keys()
        value += coeffs.values()
        start.append(len(index))
    model = highspy.HighsLp()
    model.num_col_, model.num_row_ = nv, m
    model.col_cost_ = [-v for v in cost]
    model.col_lower_ = [0.0] * nv
    model.col_upper_ = [highspy.kHighsInf] * nv
    model.row_lower_ = [-highspy.kHighsInf] * m
    model.row_upper_ = rhs
    matrix = model.a_matrix_
    matrix.format_ = highspy.MatrixFormat.kRowwise
    matrix.num_col_, matrix.num_row_ = nv, m
    matrix.start_, matrix.index_, matrix.value_ = start, index, value

    highs = getattr(_solvers, "highs", None)
    if highs is None:
        highs = _solvers.highs = highspy._Highs()
        # the options scipy.optimize.linprog passes HiGHS for method="highs"
        highs.setOptionValue("presolve", "on")
        highs.setOptionValue("simplex_strategy",
                             int(highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual))
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("log_to_console", False)
    try:
        error = highspy.HighsStatus.kError
        if highs.passModel(model) == error or highs.run() == error:
            return None
        basis = highs.getBasis()
        if highs.getModelStatus() != highspy.HighsModelStatus.kOptimal or not basis.valid:
            return None
        basic = highspy.HighsBasisStatus.kBasic
        return ([j for j, s in enumerate(basis.col_status) if s == basic],
                [i for i, s in enumerate(basis.row_status) if s != basic])
    finally:
        highs.clearModel()


def _basis_rows(lp: IntegerLP, basic: list[int], binding: list[int]) -> list[dict[int, int]]:
    """The binding rows in the basic columns, the columns renumbered in basic's order."""
    pos = {j: k for k, j in enumerate(basic)}
    return [{pos[j]: v for j, v in lp.rows[i].items() if j in pos} for i in binding]


def _basis_step(lp: IntegerLP, basic: list[int], binding: list[int]) -> tuple[list[int], int, dict[int, int], int, int] | None:
    """Solve one basis exactly and name the variable Bland's rule enters there.

    Variable j < n is column j and variable n + i the slack of row i. A basis
    is given by its basic columns and its binding rows, the rows whose slacks
    are nonbasic. X' = den * X solves the binding rows in the basic columns,
    every other column at 0; the duals Y = cost_den * y solve the basic
    columns in the binding rows, every other row's dual at 0. Both systems
    are square on a valid basis and are solved in integers.

    Returns (nums, xden, ys, yden, entering): X' = nums / xden, Y = ys / yden
    on the binding rows, and entering the smallest variable with a positive
    reduced profit (a column that its duals underprice, or the slack of a
    row whose dual is negative), -1 if there is none. None unless both
    systems have one solution and X' is feasible and >= 0. At entering == -1
    the duals are feasible too and c.x == b.y is checked, which by strong
    duality proves the point optimal.
    """
    rows, rhs, cost = lp.rows, lp.rhs, lp.cost
    nv = len(cost)
    primal = solve_sparse_system(_basis_rows(lp, basic, binding), [rhs[i] for i in binding], len(basic))
    if primal is None or any(v < 0 for v in primal[0]):
        return None
    xs, xden = dict(zip(basic, primal[0])), primal[1]
    bound = set(binding)
    for i, coeffs in enumerate(rows):
        if i not in bound and sum(v * xs[j] for j, v in coeffs.items() if j in xs) > rhs[i] * xden:
            return None

    at = {i: k for k, i in enumerate(binding)}
    cols: dict[int, dict[int, int]] = {j: {} for j in basic}
    for i in binding:
        for j, v in rows[i].items():
            if j in cols:
                cols[j][at[i]] = v
    dual = solve_sparse_system([cols[j] for j in basic], [cost[j] for j in basic], len(binding))
    if dual is None:
        return None
    ys, yden = dict(zip(binding, dual[0])), dual[1]
    profit = [c * yden for c in cost]
    for i, y in ys.items():
        for j, v in rows[i].items():
            profit[j] -= v * y
    entering = next((j for j, g in enumerate(profit) if g > 0), -1)
    if entering < 0:
        entering = min((nv + i for i, y in ys.items() if y < 0), default=-1)
    # c.x == b.y, both over cost_den * den * xden * yden
    if entering < 0 and yden * sum(cost[j] * v for j, v in xs.items()) != xden * sum(rhs[i] * v for i, v in ys.items()):
        return None
    return [xs.get(j, 0) for j in range(nv)], xden, ys, yden, entering


def exact_simplex(lp: IntegerLP) -> tuple[list[int], int]:
    """An optimal vertex of lp by the primal simplex with Bland's rule, exact.

    Every rhs is >= 0, so the slack basis is a feasible start. Each basis is
    solved by `_basis_step`, which names the entering variable: the smallest
    index with a positive reduced profit, the columns before the slacks. The
    ratio test solves the entering column in the basis, and the basic
    variable that first falls to 0 leaves, the smallest index among ties, so
    no basis repeats (Bland, New finite pivoting rules for the simplex
    method, 1977). Returns X = nums / den as `_solve` does; raises
    ValueError if the LP is unbounded.
    """
    rows, rhs, nv = lp.rows, lp.rhs, len(lp.cost)
    basic: list[int] = []
    binding: list[int] = []
    while True:
        nums, xden, _, _, entering = _basis_step(lp, basic, binding)
        if entering < 0:
            return nums, xden * lp.den
        # the entering variable's column: its entries, or its slack's 1
        a = {i: r[entering] for i, r in enumerate(rows) if entering in r} if entering < nv else {entering - nv: 1}
        # as the entering variable grows by t, basic column j falls by
        # t * d[j] / dden, and the slack of a row that does not bind by
        # t * rate / dden; values are over xden
        dnums, dden = solve_sparse_system(_basis_rows(lp, basic, binding), [a.get(i, 0) for i in binding], len(basic))
        d = dict(zip(basic, dnums))
        falls = [(nums[j], d[j], j) for j in basic]
        bound = set(binding)
        for i, coeffs in enumerate(rows):
            if i not in bound:
                value = rhs[i] * xden - sum(v * nums[j] for j, v in coeffs.items() if j in d)
                rate = a.get(i, 0) * dden - sum(v * d[j] for j, v in coeffs.items() if j in d)
                falls.append((value, rate, nv + i))
        leaving, least = -1, None
        for value, rate, var in falls:
            if rate > 0 and (leaving < 0 or value * least[1] < least[0] * rate
                             or (value * least[1] == least[0] * rate and var < leaving)):
                leaving, least = var, (value, rate)
        if leaving < 0:
            raise ValueError("LP is unbounded")
        if entering < nv:
            basic.append(entering)
        else:
            binding.remove(entering - nv)
        if leaving < nv:
            basic.remove(leaving)
        else:
            binding.append(leaving - nv)


def _solve(lp: IntegerLP) -> tuple[list[int], int]:
    """An optimal vertex of lp in its scaled variables: X[j] = nums[j] / den.

    HiGHS solves the LP in floats, and its optimal basis is kept when
    `_basis_step` proves it optimal: feasible, with no entering variable.
    When HiGHS fails, the step rejects its basis or the LP has no rows,
    `exact_simplex` solves the integer form from the slack basis. That form
    is the LP with each column scaled by a positive factor and the costs and
    the right-hand sides each by one positive factor, which changes neither
    the sign of a reduced profit nor the order of the ratios, so Bland's rule
    picks the same pivots and finds the vertex it would find on the LP
    itself. Raises ValueError if the LP is unbounded.
    """
    if lp.rows:
        basis = linprog(lp)
        if basis is not None:
            step = _basis_step(lp, *basis)
            if step is not None and step[4] < 0:
                return step[0], step[1] * lp.den
    return exact_simplex(lp)


def _exact_answer(lp: IntegerLP, nums: list[int], den: int) -> tuple[list[Fraction], Fraction]:
    """The LP's own x and objective from the scaled point nums / den."""
    x = [Fraction(n * v, den * u) for n, (u, v) in zip(nums, lp.units)]
    return x, Fraction(sum(c * n for c, n in zip(lp.cost, nums)), lp.cost_den * den)


# ---------------------------------------------------------------------------
# generic LP surface (max c.x, rows <= rhs >= 0, x >= 0)

@dataclass
class LinearProgram:
    """max objective . x subject to sparse rows (coeffs . x <= rhs), rhs >= 0, x >= 0."""

    objective: list[Fraction]
    rows: list[tuple[dict[int, Fraction], Fraction]]  # sparse coeffs, rhs >= 0; relation <=

    def __post_init__(self):
        for i, (coeffs, rhs) in enumerate(self.rows):
            if rhs < 0:
                raise ValueError(f"row {i} has negative rhs {rhs}")
            for j in coeffs:
                if j < 0 or j >= len(self.objective):
                    raise ValueError(f"row references unknown variable {j}")


def solve_lp(lp: LinearProgram) -> tuple[list[Fraction], Fraction]:
    """Optimal vertex and objective, exact. Raises ValueError if unbounded.

    The LP is put into its integer form and solved there (see `_solve`).
    """
    cols: list[dict[int, Fraction]] = [{} for _ in lp.objective]
    for i, (coeffs, _) in enumerate(lp.rows):
        for j, v in coeffs.items():
            cols[j][i] = v
    dens = [math.lcm(c.denominator, *(v.denominator for v in col.values())) for c, col in zip(lp.objective, cols)]
    columns = [(int(c * d), {i: int(v * d) for i, v in col.items()}, d) for c, col, d in zip(lp.objective, cols, dens)]
    den = math.lcm(*(rhs.denominator for _, rhs in lp.rows))
    ilp = IntegerLP.from_columns(columns, [int(rhs * den) for _, rhs in lp.rows], den)
    return _exact_answer(ilp, *_solve(ilp))


# ---------------------------------------------------------------------------
# reduce-weights helper: min sum(x) s.t. 0 <= x <= caps, sum over sets >= p

def minimize_totals_exact(
    caps: list[int],
    constraint_sets: Sequence[Sequence[int]],
    p: int,
    den: int,
) -> tuple[list[int], int] | None:
    """Exact minimizer of the covering LP used for weight reduction, as (nums, xden).

    min sum(x) s.t. 0 <= x <= caps/den and, over each set of indices,
    sum(x) >= p/den. It is solved as its complement z = caps/den - x: max
    sum(z) s.t. den * sum(z) <= sum(caps) - p over each set, and z <= caps/den.
    That has this module's LP form exactly when the covering LP is feasible,
    so a set whose caps fall short of p gives None.
    """
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    for s in constraint_sets:
        cap = sum(caps[i] for i in s) - p
        if cap < 0:
            return None
        rows.append(dict.fromkeys(s, 1))
        rhs.append(cap)
    nv = len(caps)
    rows += [{i: 1} for i in range(nv)]
    rhs += caps
    z, zden = _solve(IntegerLP(rows, rhs, den, [1] * nv, 1, [(1, 1)] * nv))
    scale = zden // den
    return [c * scale - v for c, v in zip(caps, z)], zden


# ---------------------------------------------------------------------------
# certificate combination

@dataclass
class CertComponent:
    """A proven penalized structure ready for linear combination, every number an integer over den."""

    nodes: tuple[int, ...]
    loads: dict[Pair, int]  # signed reduced scores
    penalty: int
    den: int

    def dedupe_key(self):
        # any node order, numbers in lowest terms: a 3-chain and a triangle loaded alike are one
        g = math.gcd(self.den, self.penalty, *self.loads.values())
        return (tuple(sorted(self.nodes)), self.den // g, self.penalty // g,
                tuple(sorted((q, v // g) for q, v in self.loads.items())))


@dataclass
class CombinedCertificate:
    components: tuple[tuple[CertComponent, Fraction], ...]  # (component, lambda)
    bound: Fraction
    # a document's claims, set only by document_to_certificate: the listed
    # partition (its modularity the document's), the gap and the status;
    # when achieved is set, the verifier checks all three
    achieved: Partition | None = None
    gap: Fraction | None = None
    status: str | None = None


def combine(components: Sequence[CertComponent], sm: ScoreMatrix) -> CombinedCertificate:
    """Best permissible linear combination of proven components.

    One variable per component, one capacity row per touched pair: the
    lambda-weighted absolute loads may not exceed the magnitude of the pair's
    original score. Each component is a column of `IntegerLP.from_columns` as
    it stands, over its own den. Exact multipliers, exact bound.
    """
    trivial = trivial_upper_bound(sm)
    comps = list(components)
    if not comps:
        return CombinedCertificate(components=(), bound=trivial)

    pairs = sorted({q for comp in comps for q in comp.loads})
    pair_row = {q: i for i, q in enumerate(pairs)}
    S = sm.S
    columns = []
    for jc, comp in enumerate(comps):
        entries = {}
        for q, load in comp.loads.items():
            if load * S[q[0]][q[1]] < 0:
                raise ValueError(f"component {jc} load on {q} contradicts the score sign")
            entries[pair_row[q]] = abs(load)
        columns.append((comp.penalty, entries, comp.den))
    lp = IntegerLP.from_columns(columns, [abs(S[a][b]) for a, b in pairs], sm.den)
    try:
        lambdas, total = _exact_answer(lp, *_solve(lp))
    except ValueError:
        raise ValueError("combination LP unbounded; some component has empty loads") from None
    return CombinedCertificate(
        components=tuple(zip(comps, lambdas)),
        bound=trivial - total,
    )
