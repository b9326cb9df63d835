"""Linear programming with exact rational answers.

Every LP here has one form: maximize c.x subject to sparse rows
coeffs.x <= rhs with every rhs >= 0, and x >= 0, so the origin is feasible
and the slack basis is a starting vertex. Every solve, the combination LP
and the weight-reduction LPs alike, takes one path: HiGHS solves it in
floating point, its primal and its dual are each solved again exactly on
their patterns, and the answer is kept only if strong duality holds exactly
(Applegate, Cook, Dash & Espinoza, Exact solutions to linear programming
problems, 2007). If HiGHS fails or the check rejects its answer, a
single-phase exact simplex over Fractions with Bland's rule solves the whole
LP. Every number that leaves this module is exact.

HiGHS (Huangfu & Hall, Parallelizing the dual revised simplex method, 2018)
is called through the binding bundled with scipy, `scipy.optimize._highspy`:
one fresh solver per LP, with the options `scipy.optimize.linprog` sets for
method="highs". Most LPs here have at most six columns, and on those
linprog's own input checks and result objects cost several times the solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from scipy.optimize._highspy import _core as highspy

from .scores import Pair, Partition, ScoreMatrix, trivial_upper_bound

Row = tuple[dict[int, Fraction], Fraction]  # sparse coeffs, rhs >= 0; relation <=


# ---------------------------------------------------------------------------
# exact single-phase simplex (Bland's rule), dense Fractions

def exact_simplex(c: Sequence[Fraction], rows: Sequence[Row]):
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


# ---------------------------------------------------------------------------
# exact linear systems (sparse-aware Gaussian elimination)

def solve_sparse_system(rows: list[dict[int, Fraction]], rhs: list[Fraction], ncols: int) -> list[Fraction] | None:
    """Solve a sparse exact linear system; pivots chosen to limit fill-in."""
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    m = len(rows)
    col_rows: dict[int, set[int]] = {}  # column -> rows using it, eliminated rows left out
    for i, r in enumerate(rows):
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    assign_order: list[tuple[int, int]] = []  # (pivot row, pivot col)

    for _ in range(min(m, ncols)):
        # Markowitz-style: pick the column with fewest live rows, then the
        # sparsest row within it
        best = min(((len(touch), j) for j, touch in col_rows.items() if touch), default=None)
        if best is None:
            break
        pcol = best[1]
        prow = min(col_rows[pcol], key=lambda i: (len(rows[i]), i))
        piv = rows[prow][pcol]
        inv = 1 / piv
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
                nv = ri.get(j, Fraction(0)) - f * v
                if nv == 0:
                    ri.pop(j, None)
                    col_rows.get(j, set()).discard(i)
                else:
                    ri[j] = nv
                    col_rows.setdefault(j, set()).add(i)
            rhs[i] -= f * rhs[prow]
        assign_order.append((prow, pcol))

    eliminated_rows = {r for r, _ in assign_order}
    solved_cols = {c for _, c in assign_order}
    for i in range(m):
        if i not in eliminated_rows:
            if rows[i]:
                return None  # leftover row with unsolved columns: underdetermined
            if rhs[i] != 0:
                return None  # inconsistent
    if len(solved_cols) < ncols:
        return None
    x = [Fraction(0)] * ncols
    # back-substitute in reverse elimination order
    for prow, pcol in reversed(assign_order):
        acc = rhs[prow]
        for j, v in rows[prow].items():
            if j != pcol:
                acc -= v * x[j]
        x[pcol] = acc
    return x


# ---------------------------------------------------------------------------
# float solve, exact primal-dual recovery, exact fallback

# the options scipy.optimize.linprog passes HiGHS for method="highs"
_HIGHS_OPTIONS = {
    "presolve": "on",
    "simplex_strategy": int(highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    "output_flag": False,
    "log_to_console": False,
}


def linprog(obj, rows):
    """HiGHS's answer to max obj.x, rows <=, x >= 0; None if it has no optimum.

    The rows go to one fresh HiGHS solver as a column-wise matrix, with the
    options linprog sets for method="highs", so the answer is linprog's
    bit for bit. Returns the point x, the row duals y >= 0 and the reduced
    costs, which are zero on the columns where the dual constraint is tight.
    """
    nv, m = len(obj), len(rows)
    cols: list[list[tuple[int, float]]] = [[] for _ in range(nv)]
    for i, (coeffs, _) in enumerate(rows):
        for j, v in coeffs.items():
            cols[j].append((i, float(v)))
    start, index, value = [0], [], []
    for col in cols:
        for i, v in col:
            index.append(i)
            value.append(v)
        start.append(len(index))
    model = highspy.HighsLp()
    model.num_col_, model.num_row_ = nv, m
    model.col_cost_ = [-float(v) for v in obj]
    model.col_lower_ = [0.0] * nv
    model.col_upper_ = [highspy.kHighsInf] * nv
    model.row_lower_ = [-highspy.kHighsInf] * m
    model.row_upper_ = [float(rhs) for _, rhs in rows]
    matrix = model.a_matrix_
    matrix.format_ = highspy.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = nv, m
    matrix.start_, matrix.index_, matrix.value_ = start, index, value

    highs = highspy._Highs()
    for key, val in _HIGHS_OPTIONS.items():
        highs.setOptionValue(key, val)
    error = highspy.HighsStatus.kError
    if highs.passModel(model) == error or highs.run() == error:
        return None
    if highs.getModelStatus() != highspy.HighsModelStatus.kOptimal:
        return None
    sol = highs.getSolution()
    lower = highspy.HighsBasisStatus.kLower
    reduced = [d if s == lower else 0.0 for d, s in zip(sol.col_dual, highs.getBasis().col_status)]
    return sol.col_value, [-d for d in sol.row_dual], reduced


def _solve_on_pattern(eqs, unknowns: list[int]) -> dict[int, Fraction] | None:
    """Exact values of the unknowns solving eqs (coeffs, rhs), every other index at 0.

    The equations may outnumber the unknowns, as long as they are consistent
    and determine every one of them. None unless the solution is unique and
    nonnegative.
    """
    pos = {u: k for k, u in enumerate(unknowns)}
    sol = solve_sparse_system(
        [{pos[j]: v for j, v in coeffs.items() if j in pos} for coeffs, _ in eqs],
        [rhs for _, rhs in eqs],
        len(unknowns),
    )
    if sol is None or any(v < 0 for v in sol):
        return None
    return dict(zip(unknowns, sol))


def _reduced_profits(obj, rows: Sequence[Row], y: dict[int, Fraction]) -> list[Fraction]:
    """Each column's objective minus its charge under the row duals y."""
    profit = [Fraction(v) for v in obj]
    for i, yv in y.items():
        if yv == 0:
            continue
        for j, v in rows[i][0].items():
            profit[j] -= yv * v
    return profit


def _exact_from_float(obj, rows: Sequence[Row], xf, yf, df):
    """Exact (x, objective) from HiGHS's primal and dual; None unless provably optimal.

    x solves the rows the float point binds, in its support variables; y
    solves the columns with zero reduced cost, in the rows with a positive
    float dual. Both patterns are read to a scaled tolerance. The pair is
    kept only if x is feasible, y >= 0 prices every column out and
    c.x == b.y, which by strong duality makes x optimal.
    """
    nv = len(obj)
    b = [float(rhs) for _, rhs in rows]
    tol = 1e-8 * max(1.0, max(b))
    support = [j for j in range(nv) if xf[j] > tol]
    binding = [
        i for i, (coeffs, _) in enumerate(rows)
        if b[i] - sum(float(v) * xf[j] for j, v in coeffs.items()) < tol
    ]
    xs = _solve_on_pattern([rows[i] for i in binding], support)
    if xs is None:
        return None
    x = [xs.get(j, Fraction(0)) for j in range(nv)]
    for coeffs, rhs in rows:
        if sum((v * xs[j] for j, v in coeffs.items() if j in xs), Fraction(0)) > rhs:
            return None

    dtol = 1e-8 * max(1.0, max((abs(float(v)) for v in obj), default=1.0))
    cols: list[dict[int, Fraction]] = [{} for _ in range(nv)]
    for i, (coeffs, _) in enumerate(rows):
        for j, v in coeffs.items():
            cols[j][i] = v
    y = _solve_on_pattern(
        [(cols[j], Fraction(obj[j])) for j in range(nv) if abs(df[j]) < dtol],
        [i for i in range(len(rows)) if yf[i] > dtol],
    )
    if y is None or any(g > 0 for g in _reduced_profits(obj, rows, y)):
        return None
    objective = sum((Fraction(obj[j]) * v for j, v in xs.items()), Fraction(0))
    if objective != sum((rows[i][1] * v for i, v in y.items()), Fraction(0)):
        return None
    return x, objective


# ---------------------------------------------------------------------------
# generic LP surface (max c.x, rows <= rhs >= 0, x >= 0)

@dataclass
class LinearProgram:
    """max objective . x subject to sparse rows (coeffs . x <= rhs), rhs >= 0, x >= 0."""

    objective: list[Fraction]
    rows: list[Row]

    def __post_init__(self):
        for i, (coeffs, rhs) in enumerate(self.rows):
            if rhs < 0:
                raise ValueError(f"row {i} has negative rhs {rhs}")
            for j in coeffs:
                if j < 0 or j >= len(self.objective):
                    raise ValueError(f"row references unknown variable {j}")


def solve_lp(lp: LinearProgram) -> tuple[list[Fraction], Fraction]:
    """Optimal vertex and objective, exact. Raises ValueError if unbounded.

    HiGHS solves the LP in floats; its primal and dual are made exact on
    their patterns and kept when they prove each other optimal. When HiGHS
    fails, the check rejects its answer or the LP has no rows, the exact
    simplex solves the whole LP.
    """
    obj, rows = lp.objective, lp.rows
    if rows:
        floats = linprog(obj, rows)
        if floats is not None:
            exact = _exact_from_float(obj, rows, *floats)
            if exact is not None:
                return exact
    status, x, objective, _ = exact_simplex(obj, rows)
    if status == "unbounded":
        raise ValueError("LP is unbounded")
    return x, objective


# ---------------------------------------------------------------------------
# reduce-weights helper: min sum(x) s.t. 0 <= x <= ub, sum over sets >= p

def minimize_totals_exact(
    keys: Sequence[Pair],
    ub: dict[Pair, Fraction],
    constraint_sets: Sequence[frozenset],
    p: Fraction,
) -> dict[Pair, Fraction] | None:
    """Exact minimizer of the covering LP used for weight reduction.

    It is solved as its complement z = ub - x: max sum(z) subject to sum over
    each set of z <= (sum over the set of ub) - p, and z <= ub. That has this
    module's LP form exactly when the covering LP is feasible, so a set whose
    ub sum falls short of p gives None.
    """
    keys = list(keys)
    idx = {k: i for i, k in enumerate(keys)}
    if not constraint_sets:
        return {k: Fraction(0) for k in keys}
    rows: list[Row] = []
    for s in constraint_sets:
        cap = sum((ub[k] for k in s), Fraction(0)) - p
        if cap < 0:
            return None
        rows.append(({idx[k]: Fraction(1) for k in s}, cap))
    rows += [({i: Fraction(1)}, ub[k]) for i, k in enumerate(keys)]
    z, _ = solve_lp(LinearProgram([Fraction(1)] * len(keys), rows))
    return {k: ub[k] - z[idx[k]] for k in keys}


# ---------------------------------------------------------------------------
# certificate combination

@dataclass
class CertComponent:
    """A proven penalized structure ready for linear combination."""

    nodes: tuple[int, ...]
    loads: dict[Pair, Fraction]  # signed reduced scores
    penalty: Fraction

    def dedupe_key(self):
        # chains keep their nodes in path order, subnetworks sorted: a 3-chain
        # and the triangle on its nodes with equal loads are one component
        return (tuple(sorted(self.nodes)), self.penalty, tuple(sorted(self.loads.items())))


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
    original score. Exact multipliers, exact bound.
    """
    trivial = trivial_upper_bound(sm)
    comps = list(components)
    if not comps:
        return CombinedCertificate(components=(), bound=trivial)

    pairs = sorted({q for comp in comps for q in comp.loads})
    pair_row = {q: i for i, q in enumerate(pairs)}
    rows: list[Row] = [({}, abs(sm.score(*q))) for q in pairs]
    for jc, comp in enumerate(comps):
        for q, load in comp.loads.items():
            base = sm.score(*q)
            if load * base < 0:
                raise ValueError(f"component {jc} load on {q} contradicts the score sign")
            rows[pair_row[q]][0][jc] = abs(load)
    lp = LinearProgram([comp.penalty for comp in comps], rows)
    try:
        lambdas, total = solve_lp(lp)
    except ValueError:
        raise ValueError("combination LP unbounded; some component has empty loads") from None
    return CombinedCertificate(
        components=tuple(zip(comps, lambdas)),
        bound=trivial - total,
    )
