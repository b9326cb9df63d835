"""Certificate checking.

Written apart from certificate construction: permissibility is
re-accumulated pair by pair, each component's penalty is re-derived from the
min rule on its node order or else re-proven by enumerating every partition
of the component from scratch, and the trivial bound and a document's
achieved modularity are re-summed from the scores. The scores themselves are
not re-derived: callers hand in the builder's `score_matrix(net)`, and
`ScoreMatrix` and `pair_key` come from `scores`, so a certificate that passes
here is a proof provided `score_matrix` is right. `modcert verify` and the
self-check at the end of `certify` both come here, through
`document_to_certificate`.
"""

from __future__ import annotations

from fractions import Fraction

from .scores import Pair, ScoreMatrix, pair_key

MAX_EXHAUSTIVE_NODES = 12


class Violation:
    PERMISSIBILITY = "permissibility"
    COMPONENT_PENALTY = "component-penalty"
    BOUND_ARITHMETIC = "bound-arithmetic"
    ACHIEVED_MISMATCH = "achieved-mismatch"
    STATUS_MISMATCH = "status-mismatch"


def _check_permissibility(components, sm: ScoreMatrix) -> str | None:
    loads: dict[Pair, Fraction] = {}
    for comp, lam in components:
        if lam < 0:
            return f"{Violation.PERMISSIBILITY}: negative multiplier {lam}"
        for q, v in comp.loads.items():
            key = pair_key(*q)
            base = sm.score(*key)
            if v * base < 0:
                return (
                    f"{Violation.PERMISSIBILITY}: load on pair {key} has sign "
                    f"{'+' if v > 0 else '-'} against score {base}"
                )
            loads[key] = loads.get(key, Fraction(0)) + lam * abs(v)
    for key in sorted(loads):
        cap = abs(sm.score(*key))
        if loads[key] > cap:
            return (
                f"{Violation.PERMISSIBILITY}: pair {key} carries load {loads[key]} "
                f"over capacity {cap}"
            )
    return None


def _chain_penalty_ok(comp) -> bool:
    """The min rule on the node order; loads on other pairs, if any, only
    raise the positive total or lower what a partition collects."""
    nodes = comp.nodes
    if len(nodes) < 3 or len(set(nodes)) != len(nodes):
        return False
    interior = []
    for u, v in zip(nodes, nodes[1:]):
        val = comp.loads.get(pair_key(u, v))
        if val is None or val <= 0:
            return False
        interior.append(val)
    closing = comp.loads.get(pair_key(nodes[0], nodes[-1]))
    if closing is None or closing >= 0:
        return False
    return comp.penalty <= min(min(interior), -closing)


def _exhaustive_penalty_ok(comp) -> bool:
    nodes = sorted(set(comp.nodes))
    if len(nodes) > MAX_EXHAUSTIVE_NODES:
        return False  # cannot re-prove; refuse rather than trust
    index = {v: i for i, v in enumerate(nodes)}
    nn = len(nodes)
    pos_total = sum((v for v in comp.loads.values() if v > 0), Fraction(0))

    best = Fraction(0)  # all-singletons collects nothing
    assignment = [0] * nn

    def rec(i: int, mx: int):
        nonlocal best
        if i == nn:
            val = Fraction(0)
            for (a, b), v in comp.loads.items():
                if assignment[index[a]] == assignment[index[b]]:
                    val += v
            if val > best:
                best = val
            return
        for c in range(mx + 2):
            assignment[i] = c
            rec(i + 1, max(mx, c))

    if nn > 1:
        rec(1, 0)
    return comp.penalty <= pos_total - best


def _check_claims(cert, sm: ScoreMatrix) -> str | None:
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


def verify_certificate(cert, sm: ScoreMatrix) -> tuple[bool, str | None]:
    """Check a certificate against the score matrix it claims to bound.

    cert is read by attribute only: `components`, (component, lambda) pairs
    whose components carry `nodes`, `loads` and `penalty`; `bound`;
    and `achieved`, `gap` and `status`, the document's claims, read only
    when `achieved` is not None.

    Conditions, in order: (a) the lambda-weighted loads stay within every
    pair's score magnitude with matching signs; (b) each component's penalty
    survives independent re-proof; (c) the claimed bound equals the trivial
    bound minus the weighted penalties; (d) when the claims are present, the
    listed partition scores the stated modularity, the gap is bound minus
    that modularity and the status is "optimal-proved" when the gap is 0 and
    "gap" otherwise. Returns (ok, first_violation).
    """
    components, claimed_bound = cert.components, cert.bound

    msg = _check_permissibility(components, sm)
    if msg is not None:
        return False, msg

    for i, (comp, _lam) in enumerate(components):
        name = f"component {i} on nodes {comp.nodes}"
        if comp.penalty <= 0:
            return False, f"{Violation.COMPONENT_PENALTY}: {name} claims penalty {comp.penalty}"
        nodes = set(comp.nodes)
        if any(a == b or a not in nodes or b not in nodes for a, b in comp.loads):
            return False, f"{Violation.COMPONENT_PENALTY}: {name} has a load outside its node pairs"
        if not (_chain_penalty_ok(comp) or _exhaustive_penalty_ok(comp)):
            return False, f"{Violation.COMPONENT_PENALTY}: {name} does not prove penalty {comp.penalty}"

    # independent trivial bound: positive pair mass plus all diagonal terms
    positive = sum(v for a, row in enumerate(sm.S) for v in row[a + 1:] if v > 0)
    trivial = Fraction(positive + sum(sm.diag), sm.den)
    total = sum((lam * comp.penalty for comp, lam in components), Fraction(0))
    if trivial - total != claimed_bound:
        return False, (
            f"{Violation.BOUND_ARITHMETIC}: claimed bound {claimed_bound} != "
            f"trivial {trivial} - penalties {total}"
        )
    if cert.achieved is not None:
        msg = _check_claims(cert, sm)
        if msg is not None:
            return False, msg
    return True, None
