"""Linear programming with exact rational answers.

Every LP here has one form: maximize c.x subject to sparse rows
coeffs.x <= rhs with every rhs >= 0, and x >= 0, so the origin is feasible
and the slack basis is a starting vertex. Solves run in floating point first
(scipy/HiGHS) for speed; the vertex of the float point is then solved again
in exact rational arithmetic. Whenever that recovery fails, a single-phase
exact simplex over Fractions with Bland's rule takes over (with column
generation for wide problems), so every number that leaves this module is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

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
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    eliminated_rows: set[int] = set()
    assign_order: list[tuple[int, int]] = []  # (pivot row, pivot col)

    for _ in range(min(m, ncols)):
        # Markowitz-style: pick the available column with fewest rows, then the
        # sparsest row within it
        best = None
        for j, touch in col_rows.items():
            live = [i for i in touch if i not in eliminated_rows]
            if not live:
                continue
            cand = (len(live), j)
            if best is None or cand < best[0:2]:
                best = (len(live), j, live)
        if best is None:
            break
        _, pcol, live = best
        prow = min(live, key=lambda i: (len(rows[i]), i))
        piv = rows[prow][pcol]
        inv = 1 / piv
        rows[prow] = {j: v * inv for j, v in rows[prow].items()}
        rhs[prow] *= inv
        for i in list(col_rows[pcol]):
            if i == prow or i in eliminated_rows:
                continue
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
        eliminated_rows.add(prow)
        assign_order.append((prow, pcol))

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
# float solve, exact vertex recovery, exact fallback

def _float_solve(obj, rows):
    """HiGHS's optimal point of max obj.x, rows <=, x >= 0; None if it has none."""
    nv = len(obj)
    m = len(rows)
    c = np.array([-float(v) for v in obj])
    data, ri, ci = [], [], []
    b = np.zeros(m)
    for i, (coeffs, rhs) in enumerate(rows):
        b[i] = float(rhs)
        for j, v in coeffs.items():
            ri.append(i)
            ci.append(j)
            data.append(float(v))
    A = sparse.csr_matrix((data, (ri, ci)), shape=(m, nv))
    try:
        res = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    except ValueError:
        return None
    return res.x if res.success else None


def _binding_pattern(rows: Sequence[Row], xf) -> tuple[list[int], list[int]]:
    """Support of the float point xf and the rows it binds, to a scaled tolerance."""
    b = [float(rhs) for _, rhs in rows]
    tol = 1e-8 * max(1.0, max(b, default=1.0))
    support = [j for j in range(len(xf)) if xf[j] > tol]
    binding = [
        i for i, (coeffs, _) in enumerate(rows)
        if b[i] - sum(float(v) * xf[j] for j, v in coeffs.items()) < tol
    ]
    return support, binding


def _recover_vertex(rows: Sequence[Row], nv: int, support, binding) -> list[Fraction] | None:
    """Exact point whose support variables solve the binding rows; None unless feasible.

    The binding rows may outnumber the support variables, as long as they
    are consistent and determine every one of them.
    """
    spos = {j: jj for jj, j in enumerate(support)}
    sysrows = [
        {spos[j]: v for j, v in rows[i][0].items() if j in spos} for i in binding
    ]
    sol = solve_sparse_system(sysrows, [rows[i][1] for i in binding], len(support))
    if sol is None:
        return None
    x = [Fraction(0)] * nv
    for j, v in zip(support, sol):
        if v < 0:
            return None
        x[j] = v
    for coeffs, rhs in rows:
        acc = sum((v * x[j] for j, v in coeffs.items() if x[j] != 0), Fraction(0))
        if acc > rhs:
            return None
    return x


def _reduced_profits(obj, rows: Sequence[Row], y: dict[int, Fraction]) -> list[Fraction]:
    """Each column's objective minus its charge under the row duals y."""
    profit = [Fraction(v) for v in obj]
    for i, yv in y.items():
        if yv == 0:
            continue
        for j, v in rows[i][0].items():
            profit[j] -= yv * v
    return profit


def _float_then_recover(obj, rows, xf):
    """Exact optimum at the float point's vertex, certified by a matching dual."""
    nv = len(obj)
    support, binding = _binding_pattern(rows, xf)
    if len(support) != len(binding):
        return None
    if not support:
        if all(Fraction(v) <= 0 for v in obj):
            return [Fraction(0)] * nv, Fraction(0)
        return None
    x = _recover_vertex(rows, nv, support, binding)
    if x is None:
        return None
    # dual certificate on the same pattern
    spos = {j: jj for jj, j in enumerate(support)}
    bpos = {i: ii for ii, i in enumerate(binding)}
    trows: list[dict[int, Fraction]] = [{} for _ in support]
    for i in binding:
        for j, v in rows[i][0].items():
            if j in spos:
                trows[spos[j]][bpos[i]] = v
    y = solve_sparse_system(trows, [Fraction(obj[j]) for j in support], len(binding))
    if y is None or any(v < 0 for v in y):
        return None
    if any(g > 0 for g in _reduced_profits(obj, rows, dict(zip(binding, y)))):
        return None
    objective = sum((Fraction(obj[j]) * x[j] for j in support), Fraction(0))
    return x, objective


def _column_generation(obj, rows, xf):
    """Exact simplex over an active column set, priced against the full pool.

    xf is the caller's float optimum, or None if it has none; its support
    seeds the active set. Returns (x, objective), or None if unbounded.
    """
    nv = len(obj)
    active = set() if xf is None else {j for j in range(nv) if xf[j] > 1e-10}
    if not active:
        active = {j for j in range(nv) if Fraction(obj[j]) > 0}
        if not active:
            return [Fraction(0)] * nv, Fraction(0)
        active = set(sorted(active)[:50])

    for _round in range(len(obj) + 10):
        cols = sorted(active)
        cmap = {j: jj for jj, j in enumerate(cols)}
        touched_rows = [i for i, (coeffs, _) in enumerate(rows) if any(j in active for j in coeffs)]
        sub_rows = [
            ({cmap[j]: v for j, v in rows[i][0].items() if j in active}, rows[i][1])
            for i in touched_rows
        ]
        status, vals, objective, duals = exact_simplex([Fraction(obj[j]) for j in cols], sub_rows)
        if status == "unbounded":
            return None
        # price the full pool; add the most violated columns
        profit = _reduced_profits(obj, rows, dict(zip(touched_rows, duals)))
        violated = [(g, j) for j, g in enumerate(profit) if g > 0 and j not in active]
        if not violated:
            x = [Fraction(0)] * nv
            for j, v in zip(cols, vals):
                x[j] = v
            return x, objective
        violated.sort(key=lambda t: (-t[0], t[1]))
        for _, j in violated[:100]:
            active.add(j)
    raise RuntimeError("column generation did not converge")


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
    """Optimal vertex, exact. Raises ValueError on unbounded problems."""
    if not lp.objective:
        return [], Fraction(0)
    result = _solve_max_leq_exact(lp.objective, lp.rows)
    if result is None:
        raise ValueError("LP is unbounded")
    return result


def _solve_max_leq_exact(obj: Sequence[Fraction], rows: Sequence[Row]):
    """Exact optimum of max obj.x, rows <= rhs >= 0, x >= 0; None if unbounded."""
    nv = len(obj)
    zero = Fraction(0)
    if not rows:
        if any(v > 0 for v in obj):
            return None
        return [zero] * nv, zero
    xf = _float_solve(obj, rows)
    if xf is not None:
        recovered = _float_then_recover(obj, rows, xf)
        if recovered is not None:
            return recovered
    return _column_generation(obj, rows, xf)


# ---------------------------------------------------------------------------
# reduce-weights helper: min sum(x) s.t. 0 <= x <= ub, sum over sets >= p

def minimize_totals_exact(
    keys: Sequence[Pair],
    ub: dict[Pair, Fraction],
    constraint_sets: Sequence[frozenset],
    p: Fraction,
) -> dict[Pair, Fraction] | None:
    """Exact minimizer of the covering LP used for weight reduction.

    The exact solve works on the complement z = ub - x: max sum(z) subject to
    sum over each set of z <= (sum over the set of ub) - p, and z <= ub. That
    has this module's LP form exactly when the covering LP is feasible, so a
    set whose ub sum falls short of p gives None.
    """
    keys = list(keys)
    idx = {k: i for i, k in enumerate(keys)}
    nv = len(keys)
    sets = [frozenset(s) for s in constraint_sets]
    if not sets:
        return {k: Fraction(0) for k in keys}
    rows: list[Row] = []
    for s in sets:
        cap = sum((ub[k] for k in s), Fraction(0)) - p
        if cap < 0:
            return None
        rows.append(({idx[k]: Fraction(1) for k in s}, cap))
    rows += [({i: Fraction(1)}, ub[k]) for i, k in enumerate(keys)]

    # HiGHS solves the covering LP itself, with x's box as bounds; on the
    # complement it can land on a different optimal vertex
    c = np.ones(nv)
    A = np.zeros((len(sets), nv))
    for r, s in enumerate(sets):
        for k in s:
            A[r, idx[k]] = -1.0
    b = np.full(len(sets), -float(p))
    bounds = [(0.0, float(ub[k])) for k in keys]
    try:
        res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    except ValueError:
        res = None
    z = zf = None
    if res is not None and res.success:
        zf = np.array([hi for _, hi in bounds]) - res.x
        z = _recover_vertex(rows, nv, *_binding_pattern(rows, zf))
    if z is None:
        z, _ = _column_generation([Fraction(1)] * nv, rows, zf)
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
        return (self.nodes, self.penalty, tuple(sorted(self.loads.items())))


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
    objective = [comp.penalty for comp in comps]
    solved = _solve_max_leq_exact(objective, rows)
    if solved is None:
        raise ValueError("combination LP unbounded; some component has empty loads")
    lambdas, total = solved
    return CombinedCertificate(
        components=tuple(zip(comps, lambdas)),
        bound=trivial - total,
    )
