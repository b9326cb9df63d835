"""Small-subnetwork resolution: proven penalties beyond what chains capture.

A subnetwork is a node subset carrying per-pair scores no larger in magnitude
than (and matching the sign of) the scores it was cut from; enumeration cuts
them from a `ScoreMatrix`, all of one size per call. Resolving one means
proving the exact maximum any partition of it can collect; the shortfall
against its all-positives sum is a penalty that can be charged against the
whole network. Reducing one shrinks its scores to the minimum weight that
still proves the same penalty, so that many subnetworks can be combined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import lp
from .scores import Pair, ScoreMatrix


@dataclass
class Subnetwork:
    nodes: tuple[int, ...]
    scores: dict[Pair, Fraction]

    def positive_pairs(self) -> list[Pair]:
        return sorted(p for p, v in self.scores.items() if v > 0)


@dataclass
class ResolvedSubnetwork:
    sub: Subnetwork
    q_star_best: Fraction
    penalty: Fraction
    # pairs that cost each evaluated partition value (excluded positives and
    # negatives caught inside a group), one set per distinct non-empty pattern
    contributing_sets: frozenset[frozenset[Pair]]
    final_m: int


def enumerate_subnetworks(sm: ScoreMatrix, size: int) -> Iterator[Subnetwork]:
    """Connected induced subsets of exactly `size` nodes, each emitted once.

    Connectivity is over positive pairs of sm, which provably still
    reaches every subnetwork able to carry a positive penalty (a penalty needs
    a negative pair inside a positively-connected group, and penalties add
    over positively-connected parts). Only subsets with at least one negative
    and at least two positive internal pairs are emitted. Deterministic order.
    """
    if size < 3:
        raise ValueError("size must be >= 3")
    n = sm.n
    adj = [set(nbrs) for nbrs in sm.positive_adjacency()]

    def make(sub: list[int]) -> Subnetwork | None:
        nodes = tuple(sorted(sub))
        pos = neg = 0
        scores: dict[Pair, Fraction] = {}
        for a, b in itertools.combinations(nodes, 2):
            v = sm.S[a][b]
            if v:
                scores[(a, b)] = Fraction(v, sm.den)
                if v > 0:
                    pos += 1
                else:
                    neg += 1
        if neg >= 1 and pos >= 2:
            return Subnetwork(nodes=nodes, scores=scores)
        return None

    # extension enumeration anchored at the smallest node id; new candidates
    # are exclusive neighbors of the just-added node, so every connected
    # subset appears exactly once
    def extend(sub: list[int], sub_set: set[int], ext: list[int], anchor: int):
        if len(sub) == size:
            cand = make(sub)
            if cand is not None:
                yield cand
            return
        for i, w in enumerate(ext):
            extra = []
            for u in sorted(adj[w]):
                if u <= anchor or u in sub_set:
                    continue
                if any(u in adj[x] for x in sub):
                    continue
                extra.append(u)
            sub.append(w)
            sub_set.add(w)
            yield from extend(sub, sub_set, ext[i + 1:] + extra, anchor)
            sub.pop()
            sub_set.remove(w)

    for v in range(n):
        ext0 = sorted(u for u in adj[v] if u > v)
        yield from extend([v], {v}, ext0, v)


def _integer_scores(sub: Subnetwork) -> tuple[int, dict[Pair, int]]:
    den = 1
    for v in sub.scores.values():
        den = math.lcm(den, v.denominator)
    return den, {p: v.numerator * (den // v.denominator) for p, v in sub.scores.items()}


def partial_brute_force(sub: Subnetwork, _disable_discard: bool = False) -> ResolvedSubnetwork:
    """Resolve a subnetwork by excluding m positive pairs and merging the rest.

    For m = 0, 1, ... every m-subset of positive pairs is dropped, the nodes
    joined by remaining positive pairs are merged and the resulting partition
    scored (kept positives plus negatives caught inside merged groups).
    Exclusion patterns whose dropped pair ends up inside one merged group
    duplicate a smaller-m pattern and are discarded. The search stops as
    proven-complete once even the cheapest m+1 exclusions cost more than the
    best value found, which happens by m = number of positive pairs at the
    latest, so every subnetwork is resolved.
    """
    nodes = sub.nodes
    local = {v: i for i, v in enumerate(nodes)}
    nn = len(nodes)
    den, scaled = _integer_scores(sub)
    positives = sorted((p for p, v in scaled.items() if v > 0), key=lambda p: (scaled[p], p))
    negatives = [p for p, v in scaled.items() if v < 0]
    pos_total = sum(scaled[p] for p in positives)
    pos_sorted_vals = [scaled[p] for p in positives]  # ascending

    best_val = 0  # all singletons
    contributing_sets: set[frozenset[Pair]] = set()

    def evaluate(excluded: tuple[Pair, ...]) -> None:
        nonlocal best_val
        parent = list(range(nn))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        excl = set(excluded)
        for p in positives:
            if p not in excl:
                a, b = local[p[0]], local[p[1]]
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
        # discard: an excluded pair that still lands inside one group was
        # already covered with fewer exclusions
        if not _disable_discard:
            for p in excluded:
                if find(local[p[0]]) == find(local[p[1]]):
                    return
        value = pos_total - sum(scaled[p] for p in excluded)
        contributing = list(excluded)
        for p in negatives:
            if find(local[p[0]]) == find(local[p[1]]):
                value += scaled[p]
                contributing.append(p)
        if contributing:
            contributing_sets.add(frozenset(contributing))
        best_val = max(best_val, value)

    # m = len(positives) leaves nothing to exclude, so the loop always breaks
    for m in range(len(positives) + 1):
        for combo in itertools.combinations(positives, m):
            evaluate(combo)
        if pos_total - sum(pos_sorted_vals[: m + 1]) <= best_val:
            break

    q_star = Fraction(best_val, den)
    return ResolvedSubnetwork(
        sub=sub,
        q_star_best=q_star,
        penalty=Fraction(pos_total, den) - q_star,
        contributing_sets=frozenset(contributing_sets),
        final_m=m,
    )


def _minimal_constraint_sets(rs: ResolvedSubnetwork) -> list[frozenset[Pair]]:
    """The inclusion-minimal sets among the resolution's contributing sets."""
    minimal = []
    for s in sorted(rs.contributing_sets, key=lambda s: (len(s), sorted(s))):
        if not any(t < s for t in minimal):
            minimal.append(s)
    return minimal


def _minimum_weights(rs: ResolvedSubnetwork) -> dict[Pair, Fraction] | None:
    """The reduction LP's exact minimizer, None if it has none.

    Minimizes total absolute score subject to: every evaluated partition still
    pays at least the penalty, and (added lazily as cutting planes) every
    (m+1)-subset of positive pairs sums to at least the penalty.
    """
    p = rs.penalty
    sub = rs.sub
    all_pairs = sorted(sub.scores)
    ub = {q: abs(sub.scores[q]) for q in all_pairs}
    constraint_sets = _minimal_constraint_sets(rs)
    positives = sub.positive_pairs()
    m_plus_1 = rs.final_m + 1

    while True:
        x = lp.minimize_totals_exact(all_pairs, ub, constraint_sets, p)
        if x is None or m_plus_1 > len(positives):
            return x
        ranked = sorted(positives, key=lambda q: (x[q], q))
        cheapest = ranked[:m_plus_1]
        if sum(x[q] for q in cheapest) >= p:
            return x
        cut = frozenset(cheapest)
        if cut in constraint_sets:
            return None  # cannot happen with a sound solver; stay safe
        constraint_sets.append(cut)


def reduce_weights(rs: ResolvedSubnetwork) -> Subnetwork:
    """Shrink a resolved subnetwork's scores while provably keeping its penalty.

    The scores become the reduction LP's minimizer (see _minimum_weights);
    a triangle gets it in closed form. The result is re-verified by a fresh
    resolution run; on any failure the original subnetwork is returned
    unchanged.
    """
    p = rs.penalty
    if p <= 0:
        return rs.sub
    sub = rs.sub
    if len(sub.nodes) == 3 and len(sub.scores) == 3:
        # a penalized triangle is a positive path closed by a negative pair,
        # and p = min(u1, u2, |n|); each of its partitions pays exactly one
        # pair, so +-p on every pair is the LP's unique minimum
        x = dict.fromkeys(sub.scores, p)
    else:
        x = _minimum_weights(rs)
        if x is None:
            return rs.sub

    reduced_scores = {}
    for q in sorted(sub.scores):
        if x[q] != 0:
            reduced_scores[q] = x[q] if sub.scores[q] > 0 else -x[q]
    reduced = Subnetwork(nodes=sub.nodes, scores=reduced_scores)
    if partial_brute_force(reduced).penalty < p:
        return rs.sub
    return reduced
