"""Small-subnetwork resolution: proven penalties beyond what chains capture.

A subnetwork is a sorted node tuple plus the `ScoreMatrix` it carries on
positions 0..k-1, position i standing for nodes[i]. Enumeration cuts it from
a network's lattice (same scores, same denominator, zero diagonal); every
search here reads positions only, and `Subnetwork.loads` turns them back into
node-id pairs. Resolving one means proving the exact maximum any partition of
it can collect; the shortfall against its all-positives sum is a penalty that
can be charged against the whole network. Reducing one shrinks its scores to
the minimum weight that still proves the same penalty, so that many
subnetworks can be combined.
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
    nodes: tuple[int, ...]  # ascending node ids
    lattice: ScoreMatrix  # scores on positions: lattice.S[i][j] is the pair (nodes[i], nodes[j])

    def loads(self) -> dict[Pair, Fraction]:
        """The nonzero scores keyed by node-id pairs, in ascending pair order."""
        nodes, lattice = self.nodes, self.lattice
        return {(nodes[i], nodes[j]): lattice.score(i, j) for i, j in _nonzero_pairs(lattice)}


@dataclass
class ResolvedSubnetwork:
    sub: Subnetwork
    q_star_best: Fraction
    penalty: Fraction
    # position pairs costing each evaluated partition value (excluded positives
    # and negatives caught inside a group), one set per distinct non-empty pattern
    contributing_sets: frozenset[frozenset[Pair]]
    final_m: int


def _nonzero_pairs(lattice: ScoreMatrix) -> list[Pair]:
    """The position pairs with a nonzero score, ascending."""
    S = lattice.S
    return [(i, j) for i, j in itertools.combinations(range(lattice.n), 2) if S[i][j]]


def enumerate_subnetworks(sm: ScoreMatrix, size: int) -> Iterator[Subnetwork]:
    """Connected induced subsets of exactly `size` nodes, each emitted once.

    Connectivity is over positive pairs of sm, which provably still
    reaches every subnetwork able to carry a positive penalty (a penalty needs
    a negative pair inside a positively-connected group, and penalties add
    over positively-connected parts). Only subsets with at least one negative
    and at least two positive internal pairs are emitted, each with the
    lattice sm induces on it. Deterministic order.
    """
    if size < 3:
        raise ValueError("size must be >= 3")
    n = sm.n
    adj = [set(nbrs) for nbrs in sm.positive_adjacency()]

    def make(sub: list[int]) -> Subnetwork | None:
        nodes = tuple(sorted(sub))
        S = [[sm.S[a][b] for b in nodes] for a in nodes]
        upper = [v for i, row in enumerate(S) for v in row[i + 1:]]
        if any(v < 0 for v in upper) and sum(v > 0 for v in upper) >= 2:
            return Subnetwork(nodes, ScoreMatrix(n=size, den=sm.den, S=S, diag=(0,) * size))
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
    lattice = sub.lattice
    S = lattice.S
    positives = sorted((q for q in _nonzero_pairs(lattice) if S[q[0]][q[1]] > 0),
                       key=lambda q: (S[q[0]][q[1]], q))
    negatives = lattice.negative_pairs()
    pos_sorted_vals = [S[a][b] for a, b in positives]  # ascending
    pos_total = sum(pos_sorted_vals)

    best_val = 0  # all singletons
    contributing_sets: set[frozenset[Pair]] = set()

    def evaluate(excluded: tuple[Pair, ...]) -> None:
        nonlocal best_val
        parent = list(range(lattice.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        excl = set(excluded)
        for q in positives:
            if q not in excl:
                ra, rb = find(q[0]), find(q[1])
                if ra != rb:
                    parent[rb] = ra
        # discard: an excluded pair that still lands inside one group was
        # already covered with fewer exclusions
        if not _disable_discard:
            for a, b in excluded:
                if find(a) == find(b):
                    return
        value = pos_total - sum(S[a][b] for a, b in excluded)
        contributing = list(excluded)
        for a, b in negatives:
            if find(a) == find(b):
                value += S[a][b]
                contributing.append((a, b))
        if contributing:
            contributing_sets.add(frozenset(contributing))
        best_val = max(best_val, value)

    # m = len(positives) leaves nothing to exclude, so the loop always breaks
    for m in range(len(positives) + 1):
        for combo in itertools.combinations(positives, m):
            evaluate(combo)
        if pos_total - sum(pos_sorted_vals[: m + 1]) <= best_val:
            break

    return ResolvedSubnetwork(
        sub=sub,
        q_star_best=Fraction(best_val, lattice.den),
        penalty=Fraction(pos_total - best_val, lattice.den),
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
    """The reduction LP's exact minimizer on position pairs, None if it has none.

    Minimizes total absolute score subject to: every evaluated partition still
    pays at least the penalty, and (added lazily as cutting planes) every
    (m+1)-subset of positive pairs sums to at least the penalty.
    """
    p = rs.penalty
    lattice = rs.sub.lattice
    all_pairs = _nonzero_pairs(lattice)
    ub = {q: abs(lattice.score(*q)) for q in all_pairs}
    constraint_sets = _minimal_constraint_sets(rs)
    positives = [q for q in all_pairs if lattice.S[q[0]][q[1]] > 0]
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

    The scores become the reduction LP's minimizer (see _minimum_weights) on
    one denominator, the lcm of the minimizer's; a triangle gets it in closed
    form. The result is re-verified by a fresh resolution run; on any failure
    the original subnetwork is returned unchanged.
    """
    p = rs.penalty
    if p <= 0:
        return rs.sub
    sub = rs.sub
    S, k = sub.lattice.S, sub.lattice.n
    pairs = _nonzero_pairs(sub.lattice)
    if k == 3 and len(pairs) == 3:
        # a penalized triangle is a positive path closed by a negative pair,
        # and p = min(u1, u2, |n|); each of its partitions pays exactly one
        # pair, so +-p on every pair is the LP's unique minimum
        x = dict.fromkeys(pairs, p)
    else:
        x = _minimum_weights(rs)
        if x is None:
            return rs.sub

    den = math.lcm(*(v.denominator for v in x.values()))
    reduced_S = [[0] * k for _ in range(k)]
    for (a, b), v in x.items():
        r = v.numerator * (den // v.denominator)
        reduced_S[a][b] = reduced_S[b][a] = r if S[a][b] > 0 else -r
    reduced = Subnetwork(sub.nodes, ScoreMatrix(n=k, den=den, S=reduced_S, diag=(0,) * k))
    if partial_brute_force(reduced).penalty < p:
        return rs.sub
    return reduced
