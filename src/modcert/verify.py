"""Certificate checking.

Written apart from certificate construction: permissibility is
re-accumulated pair by pair, each component's penalty is re-derived from the
min rule on its node order or else re-proven by enumerating every partition
of the component from scratch, and the trivial bound and a document's
achieved modularity are re-summed from the scores. The scores themselves are
not re-derived: callers hand in the builder's `score_matrix(net)`, read here
by attribute alone (`n`, `den`, `S` and `diag`), so a certificate that passes
here is a proof provided `score_matrix` is right. `modcert verify` and the
self-check at the end of `certify` both come here, through
`document_to_certificate`.

Every check runs in Python ints on two common denominators per certificate:
Λ, the lcm of the multipliers' denominators, and D, the lcm of the lattice's
`den` and of every component's `den` (read from a document, the lcm of its
loads' and penalty's denominators). A multiplier is an integer over Λ, a
load or penalty an integer over D, and a weighted load an integer over Λ·D.
A `Fraction` is built only to write a violation's message.
"""

from __future__ import annotations

import math
from fractions import Fraction

MAX_EXHAUSTIVE_NODES = 12


class Violation:
    PERMISSIBILITY = "permissibility"
    COMPONENT_PENALTY = "component-penalty"
    BOUND_ARITHMETIC = "bound-arithmetic"
    ACHIEVED_MISMATCH = "achieved-mismatch"
    STATUS_MISMATCH = "status-mismatch"


def _scaled(components, den: int) -> tuple[int, int, list]:
    """(Λ, D, rows): one row (component, λ, λ·Λ, penalty·D, {pair: load·D}) per component."""
    lam_den = math.lcm(*{lam.denominator for _, lam in components})
    load_den = math.lcm(den, *{comp.den for comp, _ in components})
    rows = []
    for comp, lam in components:
        up = load_den // comp.den
        rows.append((comp, lam, lam.numerator * (lam_den // lam.denominator),
                     comp.penalty * up, {q: v * up for q, v in comp.loads.items()}))
    return lam_den, load_den, rows


def _check_permissibility(rows, sm, lam_den: int, load_den: int) -> str | None:
    S, diag, den = sm.S, sm.diag, sm.den
    loads: dict[tuple[int, int], int] = {}  # over Λ·D
    for _comp, lam, lam_int, _pen, scaled in rows:
        if lam_int < 0:
            return f"{Violation.PERMISSIBILITY}: negative multiplier {lam}"
        for (a, b), v in scaled.items():
            if a > b:
                a, b = b, a
            base = diag[a] if a == b else S[a][b]
            if (v > 0 and base < 0) or (v < 0 and base > 0):
                return (
                    f"{Violation.PERMISSIBILITY}: load on pair {(a, b)} has sign "
                    f"{'+' if v > 0 else '-'} against score {Fraction(base, den)}"
                )
            loads[a, b] = loads.get((a, b), 0) + lam_int * abs(v)
    unit = lam_den * (load_den // den)  # one 1/den of capacity, over Λ·D
    over = [(a, b) for (a, b), total in loads.items()
            if total > abs(diag[a] if a == b else S[a][b]) * unit]
    if over:
        a, b = min(over)
        cap = Fraction(abs(diag[a] if a == b else S[a][b]), den)
        return (
            f"{Violation.PERMISSIBILITY}: pair {(a, b)} carries load "
            f"{Fraction(loads[a, b], lam_den * load_den)} over capacity {cap}"
        )
    return None


def _chain_penalty_ok(nodes, loads: dict, penalty: int) -> bool:
    """The min rule on the node order, for a positive penalty: every
    consecutive pair carries at least it and the closing pair at most its
    negative. Loads on other pairs, if any, only raise the positive total or
    lower what a partition collects."""
    if len(nodes) < 3 or len(set(nodes)) != len(nodes):
        return False
    for u, v in zip(nodes, nodes[1:]):
        val = loads.get((u, v) if u < v else (v, u))
        if val is None or val < penalty:
            return False
    a, b = nodes[0], nodes[-1]
    closing = loads.get((a, b) if a < b else (b, a))
    return closing is not None and -closing >= penalty


def _exhaustive_penalty_ok(nodes, loads: dict, penalty: int) -> bool:
    nodes = sorted(set(nodes))
    if len(nodes) > MAX_EXHAUSTIVE_NODES:
        return False  # cannot re-prove; refuse rather than trust
    index = {v: i for i, v in enumerate(nodes)}
    nn = len(nodes)
    pos_total = sum(v for v in loads.values() if v > 0)
    entries = [(index[a], index[b], v) for (a, b), v in loads.items()]

    best = 0  # all-singletons collects nothing
    assignment = [0] * nn

    def rec(i: int, mx: int):
        nonlocal best
        if i == nn:
            val = sum(v for a, b, v in entries if assignment[a] == assignment[b])
            if val > best:
                best = val
            return
        for c in range(mx + 2):
            assignment[i] = c
            rec(i + 1, max(mx, c))

    if nn > 1:
        rec(1, 0)
    return penalty <= pos_total - best


def _check_penalties(rows) -> str | None:
    """Each component's penalty, positive and re-proven on its own loads."""
    for i, (comp, _lam, _lam_int, penalty, loads) in enumerate(rows):
        nodes = set(comp.nodes)
        if penalty <= 0:
            why = f"claims penalty {Fraction(comp.penalty, comp.den)}"
        elif any(a == b or a not in nodes or b not in nodes for a, b in loads):
            why = "has a load outside its node pairs"
        elif not (_chain_penalty_ok(comp.nodes, loads, penalty)
                  or _exhaustive_penalty_ok(comp.nodes, loads, penalty)):
            why = f"does not prove penalty {Fraction(comp.penalty, comp.den)}"
        else:
            continue
        return f"{Violation.COMPONENT_PENALTY}: component {i} on nodes {comp.nodes} {why}"
    return None


def _check_claims(cert, sm) -> str | None:
    """A document's claims: the listed partition's modularity, the gap and the status."""
    assignment = cert.achieved.assignment
    if len(assignment) != sm.n:
        return f"{Violation.ACHIEVED_MISMATCH}: partition covers {len(assignment)} of {sm.n} nodes"
    inside = sum(
        v for a, row in enumerate(sm.S) for b, v in enumerate(row[a + 1:], a + 1)
        if assignment[a] == assignment[b]
    )
    q = Fraction(inside + sum(sm.diag), sm.den)
    if q != cert.achieved.modularity:
        return f"{Violation.ACHIEVED_MISMATCH}: stated modularity is not the partition's"
    if cert.gap != cert.bound - q:
        return f"{Violation.BOUND_ARITHMETIC}: gap field inconsistent"
    if cert.status != ("optimal-proved" if cert.gap == 0 else "gap"):
        return f"{Violation.STATUS_MISMATCH}: status {cert.status!r} does not match gap"
    return None


def verify_certificate(cert, sm) -> tuple[bool, str | None]:
    """Check a certificate against the score matrix it claims to bound.

    sm is read by attribute only: `n`, `den`, the integer rows `S` and the
    integer diagonal terms `diag`, each score an integer over `den`. cert is
    read by attribute only too: `components`, (component, lambda) pairs
    whose components carry `nodes` and integer `loads` and `penalty` over
    `den`; `bound`; and `achieved`, `gap` and `status`, the document's
    claims, read only when `achieved` is not None.

    Conditions, in order: (a) the lambda-weighted loads stay within every
    pair's score magnitude with matching signs; (b) each component's penalty
    survives independent re-proof; (c) the claimed bound equals the trivial
    bound minus the weighted penalties; (d) when the claims are present, the
    listed partition scores the stated modularity, the gap is bound minus
    that modularity and the status is "optimal-proved" when the gap is 0 and
    "gap" otherwise. Returns (ok, first_violation).
    """
    components, claimed_bound = cert.components, cert.bound
    lam_den, load_den, rows = _scaled(components, sm.den)

    msg = _check_permissibility(rows, sm, lam_den, load_den)
    if msg is not None:
        return False, msg

    msg = _check_penalties(rows)
    if msg is not None:
        return False, msg

    # independent trivial bound: positive pair mass plus all diagonal terms,
    # over den; the weighted penalties over Λ·D
    positive = sum(sum([v for v in row[a + 1:] if v > 0]) for a, row in enumerate(sm.S))
    trivial = positive + sum(sm.diag)
    total = sum(lam_int * penalty for _, _, lam_int, penalty, _ in rows)
    scale = lam_den * load_den
    bound = trivial * lam_den * (load_den // sm.den) - total  # over Λ·D
    if bound * claimed_bound.denominator != claimed_bound.numerator * scale:
        return False, (
            f"{Violation.BOUND_ARITHMETIC}: claimed bound {claimed_bound} != "
            f"trivial {Fraction(trivial, sm.den)} - penalties {Fraction(total, scale)}"
        )
    if cert.achieved is not None:
        msg = _check_claims(cert, sm)
        if msg is not None:
            return False, msg
    return True, None
