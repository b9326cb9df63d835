"""Shared helpers: seeded random networks and convention-independent oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from modcert.graph import Network, build_network
from modcert.lp import CertComponent, CombinedCertificate
from modcert.scores import ScoreMatrix, chain_loads, pair_key

# A 4-cycle whose one improving split, {a, b} | {c, d}, raises modularity
# from 0 by about 1.25e-16: below float resolution next to the scores summed.
C4_NEAR_TIE = "a b\nb c\nc d\nd a 0.999999999999999\n"

WEIGHT_CHOICES = [1, 1, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(5, 4)]


def random_network(seed: int, n: int | None = None, directed: bool = False,
                   p: float = 0.5, rational_weights: bool = True, loops: bool = False) -> Network:
    """Random weighted network with at least one edge, deterministic per seed.

    With loops, each node also carries a self-loop with probability p.
    """
    rng = random.Random(seed)
    if n is None:
        n = rng.randint(3, 8)
    labels = [f"v{i}" for i in range(n)]
    triples = []
    for a in range(n):
        rng_b = range(n) if directed else range(a + 1, n)
        for b in rng_b:
            if a == b:
                continue
            if rng.random() < p:
                w = rng.choice(WEIGHT_CHOICES) if rational_weights else 1
                triples.append((labels[a], labels[b], w))
    present = {lab for t in triples for lab in t[:2]}
    for i, lab in enumerate(labels):
        if lab not in present:
            triples.append((labels[(i + 1) % n], lab, 1))
    if loops:
        for lab in labels:
            if rng.random() < p:
                triples.append((lab, lab, rng.choice(WEIGHT_CHOICES)))
    return build_network(triples, directed=directed)


def _weights(net: Network):
    """e(a, b) as a function, the total T and the out- and in-weights, summed
    from net.edges alone."""
    out = [Fraction(0)] * net.n
    inn = [Fraction(0)] * net.n
    for (a, b), w in net.edges.items():
        out[a] += w
        inn[b] += w
    return (lambda a, b: net.edges.get((a, b), Fraction(0))), sum(out), out, inn


def modularity_ordered(net: Network, assignment) -> Fraction:
    """Ordered-pair modularity straight from the raw scores; shares no code
    with the ScoreMatrix implementation."""
    e, T, out, inn = _weights(net)
    total = Fraction(0)
    for a in range(net.n):
        for b in range(net.n):
            if assignment[a] == assignment[b]:
                q = e(a, b) / T - out[a] * inn[b] / (T * T)
                total += q
    return total


def textbook_scores(net: Network) -> tuple[dict, tuple]:
    """The effective scores straight from their definition, in Fractions:
    s(a,b) = (e_ab + e_ba)/T - (out_a in_b + out_b in_a)/T^2 on pairs a < b and
    d(a) = e_aa/T - out_a in_a/T^2; shares no code with score_matrix."""
    e, T, out, inn = _weights(net)
    s = {}
    for a in range(net.n):
        for b in range(a + 1, net.n):
            s[(a, b)] = (e(a, b) + e(b, a)) / T - (
                out[a] * inn[b] + out[b] * inn[a]) / (T * T)
    d = tuple(e(a, a) / T - out[a] * inn[a] / (T * T) for a in range(net.n))
    return s, d


def lattice(n: int, s: dict) -> ScoreMatrix:
    """A synthetic ScoreMatrix from Fraction scores on pairs a < b (unlisted
    pairs score 0) and zero diagonal terms, on one denominator."""
    den = math.lcm(*(v.denominator for v in s.values()))
    S = [[0] * n for _ in range(n)]
    for (a, b), v in s.items():
        S[a][b] = S[b][a] = int(v * den)
    return ScoreMatrix(n=n, den=den, S=S, diag=(0,) * n)


def component(nodes, loads: dict, penalty: Fraction) -> CertComponent:
    """A CertComponent from Fraction loads and penalty, on the lcm of their denominators."""
    den = math.lcm(penalty.denominator, *(v.denominator for v in loads.values()))
    return CertComponent(tuple(nodes), {q: int(v * den) for q, v in loads.items()}, int(penalty * den), den)


def reduced_component(red, rs) -> CertComponent:
    """rs's reduced subnetwork red as a component, rs's penalty put over red's den."""
    den, penalty = red.lattice.den, Fraction(rs.penalty, rs.sub.lattice.den)
    assert den % penalty.denominator == 0
    return CertComponent(red.nodes, red.loads(), penalty.numerator * (den // penalty.denominator), den)


def rational_loads(loads: dict, den: int) -> dict:
    """Integer loads over den as Fractions."""
    return {q: Fraction(v, den) for q, v in loads.items()}


def random_assignment(rng: random.Random, n: int, groups: int | None = None):
    g = groups or rng.randint(1, n)
    return [rng.randrange(g) for _ in range(n)]


def adjusted_rand_index(a, b) -> float:
    """Plain ARI from the pair-counting contingency table."""
    from collections import Counter
    from math import comb

    ct = Counter(zip(a, b))
    rows = Counter(a)
    cols = Counter(b)
    n = len(a)
    sum_ij = sum(comb(v, 2) for v in ct.values())
    sum_a = sum(comb(v, 2) for v in rows.values())
    sum_b = sum(comb(v, 2) for v in cols.values())
    expected = sum_a * sum_b / comb(n, 2)
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


@pytest.fixture
def optimize_restarts(monkeypatch) -> list[int]:
    """The restarts of each `pipeline.optimize` call the test makes, in call order."""
    from modcert import pipeline

    calls = []
    real = pipeline.optimize

    def recording(sm, **kwargs):
        calls.append(kwargs["restarts"])
        return real(sm, **kwargs)

    monkeypatch.setattr(pipeline, "optimize", recording)
    return calls


def _fraction_permissibility(components, sm: ScoreMatrix) -> str | None:
    loads: dict = {}
    for comp, lam in components:
        if lam < 0:
            return f"permissibility: negative multiplier {lam}"
        for q, v in rational_loads(comp.loads, comp.den).items():
            key = pair_key(*q)
            base = sm.score(*key)
            if v * base < 0:
                return (f"permissibility: load on pair {key} has sign "
                        f"{'+' if v > 0 else '-'} against score {base}")
            loads[key] = loads.get(key, Fraction(0)) + lam * abs(v)
    for key in sorted(loads):
        cap = abs(sm.score(*key))
        if loads[key] > cap:
            return f"permissibility: pair {key} carries load {loads[key]} over capacity {cap}"
    return None


def _fraction_chain_penalty_ok(nodes, loads: dict, penalty: Fraction) -> bool:
    if len(nodes) < 3 or len(set(nodes)) != len(nodes):
        return False
    interior = []
    for u, v in zip(nodes, nodes[1:]):
        val = loads.get(pair_key(u, v))
        if val is None or val <= 0:
            return False
        interior.append(val)
    closing = loads.get(pair_key(nodes[0], nodes[-1]))
    if closing is None or closing >= 0:
        return False
    return penalty <= min(min(interior), -closing)


def _fraction_exhaustive_penalty_ok(nodes, loads: dict, penalty: Fraction) -> bool:
    nodes = sorted(set(nodes))
    if len(nodes) > 12:
        return False
    index = {v: i for i, v in enumerate(nodes)}
    nn = len(nodes)
    pos_total = sum((v for v in loads.values() if v > 0), Fraction(0))
    best = Fraction(0)
    assignment = [0] * nn

    def rec(i: int, mx: int):
        nonlocal best
        if i == nn:
            val = Fraction(0)
            for (a, b), v in loads.items():
                if assignment[index[a]] == assignment[index[b]]:
                    val += v
            best = max(best, val)
            return
        for c in range(mx + 2):
            assignment[i] = c
            rec(i + 1, max(mx, c))

    if nn > 1:
        rec(1, 0)
    return penalty <= pos_total - best


def fraction_verify(cert, sm: ScoreMatrix) -> tuple[bool, str | None]:
    """The certificate checks in `Fraction`s: each component's loads and
    penalty read as Fraction(v, comp.den), loads summed pair by pair,
    penalties re-proven and the bound compared as rationals. The oracle that
    `verify_certificate` must agree with, verdict and message alike."""
    msg = _fraction_permissibility(cert.components, sm)
    if msg is not None:
        return False, msg
    for i, (comp, _lam) in enumerate(cert.components):
        name = f"component {i} on nodes {comp.nodes}"
        loads, penalty = rational_loads(comp.loads, comp.den), Fraction(comp.penalty, comp.den)
        if penalty <= 0:
            return False, f"component-penalty: {name} claims penalty {penalty}"
        nodes = set(comp.nodes)
        if any(a == b or a not in nodes or b not in nodes for a, b in loads):
            return False, f"component-penalty: {name} has a load outside its node pairs"
        if not (_fraction_chain_penalty_ok(comp.nodes, loads, penalty)
                or _fraction_exhaustive_penalty_ok(comp.nodes, loads, penalty)):
            return False, f"component-penalty: {name} does not prove penalty {penalty}"
    positive = sum(v for a, row in enumerate(sm.S) for v in row[a + 1:] if v > 0)
    trivial = Fraction(positive + sum(sm.diag), sm.den)
    total = sum((lam * Fraction(comp.penalty, comp.den) for comp, lam in cert.components), Fraction(0))
    if trivial - total != cert.bound:
        return False, (f"bound-arithmetic: claimed bound {cert.bound} != "
                       f"trivial {trivial} - penalties {total}")
    if cert.achieved is not None:
        assignment = cert.achieved.assignment
        if len(assignment) != sm.n:
            return False, f"achieved-mismatch: partition covers {len(assignment)} of {sm.n} nodes"
        inside = sum(v for a, row in enumerate(sm.S) for b, v in enumerate(row[a + 1:], a + 1)
                     if assignment[a] == assignment[b])
        q = Fraction(inside + sum(sm.diag), sm.den)
        if q != cert.achieved.modularity:
            return False, "achieved-mismatch: stated modularity is not the partition's"
        if cert.gap != cert.bound - q:
            return False, "bound-arithmetic: gap field inconsistent"
        if cert.status != ("optimal-proved" if cert.gap == 0 else "gap"):
            return False, f"status-mismatch: status {cert.status!r} does not match gap"
    return True, None


def _unit_step(f: Fraction, step: int) -> Fraction:
    """f moved by step units of its own denominator."""
    return Fraction(f.numerator + step, f.denominator)


def _unit_step_over(v: int, den: int, step: int) -> int:
    """v / den moved by step units of its own denominator, still over den."""
    f = Fraction(v, den)
    return (f.numerator + step) * (den // f.denominator)


def certificate_mutants(cert, spread: int = 8):
    """Certificates one edit away from cert: lambda and penalty +-1 unit of
    its own denominator (a chain's loads follow its penalty, as they do when
    a document is read) on up to `spread` components spaced evenly from the
    first (on all of them when there are no more), then one load +-1 unit (a
    subnetwork's, when there is one), one load's sign flipped and one lambda
    made negative."""
    comps = list(cert.components)

    def with_entry(i, comp, lam):
        edited = comps[:i] + [(comp, lam)] + comps[i + 1:]
        return CombinedCertificate(components=tuple(edited), bound=cert.bound,
                                   achieved=cert.achieved, gap=cert.gap, status=cert.status)

    for i in range(0, len(comps), max(1, math.ceil(len(comps) / spread))):
        comp, lam = comps[i]
        chain = comp.loads == chain_loads(comp.nodes, comp.penalty)
        for step in (1, -1):
            yield with_entry(i, comp, _unit_step(lam, step))
            penalty = _unit_step_over(comp.penalty, comp.den, step)
            loads = chain_loads(comp.nodes, penalty) if chain else comp.loads
            yield with_entry(i, CertComponent(comp.nodes, loads, penalty, comp.den), lam)
    if not comps:
        return
    subnets = [i for i, (comp, _) in enumerate(comps)
               if comp.loads != chain_loads(comp.nodes, comp.penalty)]
    i = subnets[0] if subnets else 0
    comp, lam = comps[i]
    q = min(comp.loads)
    for step in (1, -1):
        loads = {**comp.loads, q: _unit_step_over(comp.loads[q], comp.den, step)}
        yield with_entry(i, CertComponent(comp.nodes, loads, comp.penalty, comp.den), lam)
    comp, lam = comps[0]
    q = min(comp.loads)
    yield with_entry(0, CertComponent(comp.nodes, {**comp.loads, q: -comp.loads[q]}, comp.penalty, comp.den), lam)
    yield with_entry(0, comp, -lam if lam else Fraction(-1))
