"""Small-subnetwork resolution: proven penalties beyond what chains capture.

A subnetwork is a sorted node tuple plus the `ScoreMatrix` it carries on
positions 0..k-1, position i standing for nodes[i]. Enumeration cuts it from
a network's lattice (same scores, same denominator, zero diagonal); every
search here reads positions only, and `Subnetwork.loads` turns them back into
node-id pairs. Resolving one means proving the exact maximum any partition of
it can collect; the shortfall against its all-positives sum is a penalty that
can be charged against the whole network. Reducing one shrinks its scores to
the minimum weight that still proves the same penalty, so that many
subnetworks can be combined. Every score and penalty here is an integer over
a lattice's `den`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from . import lp
from .scores import Pair, ScoreMatrix


@dataclass
class Subnetwork:
    nodes: tuple[int, ...]  # ascending node ids
    lattice: ScoreMatrix  # scores on positions: lattice.S[i][j] is the pair (nodes[i], nodes[j])

    def loads(self) -> dict[Pair, int]:
        """The nonzero scores keyed by node-id pairs, in ascending pair order, over lattice.den."""
        nodes, S = self.nodes, self.lattice.S
        return {(nodes[i], nodes[j]): S[i][j] for i, j in _nonzero_pairs(self.lattice)}


@dataclass
class ResolvedSubnetwork:
    """A subnetwork with its proven penalty: its positive total less the best
    value any partition of it collects, an integer over sub.lattice.den."""

    sub: Subnetwork
    penalty: int
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
    over positively-connected parts). Only subsets with a negative internal
    pair are emitted, each with the lattice sm induces on it; being connected,
    each also has at least size - 1 positive pairs and so a positive penalty.
    Deterministic order.
    """
    if size < 3:
        raise ValueError("size must be >= 3")
    n = sm.n
    adj = [set(nbrs) for nbrs in sm.positive_adjacency()]

    # extension enumeration anchored at the smallest node id; new candidates
    # are exclusive neighbors of the just-added node, so every connected
    # subset appears exactly once
    def extend(sub: list[int], sub_set: set[int], ext: list[int], anchor: int):
        if len(sub) == size:
            nodes = tuple(sorted(sub))
            S = [[sm.S[a][b] for b in nodes] for a in nodes]
            if any(v < 0 for i, row in enumerate(S) for v in row[i + 1:]):
                yield Subnetwork(nodes, ScoreMatrix(n=size, den=sm.den, S=S, diag=(0,) * size))
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


def partial_brute_force(sub: Subnetwork) -> ResolvedSubnetwork:
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
        penalty=pos_total - best_val,
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


def _minimum_weights(rs: ResolvedSubnetwork, pairs: list[Pair]) -> tuple[list[int], int] | None:
    """The reduction LP's exact minimizer on the pairs, None if it has none.

    Minimizes total absolute score subject to: every evaluated partition still
    pays at least the penalty, and (added lazily as cutting planes) every
    (m+1)-subset of positive pairs sums to at least the penalty. The LP runs
    on indices into pairs, with the lattice's integers as its bounds; the
    answer is x[i] = nums[i] / xden.
    """
    lattice = rs.sub.lattice
    S, den, p = lattice.S, lattice.den, rs.penalty
    caps = [abs(S[a][b]) for a, b in pairs]
    index = {q: i for i, q in enumerate(pairs)}
    constraint_sets = [sorted(index[q] for q in s) for s in _minimal_constraint_sets(rs)]
    positives = [i for i, (a, b) in enumerate(pairs) if S[a][b] > 0]
    m_plus_1 = rs.final_m + 1

    while True:
        x = lp.minimize_totals_exact(caps, constraint_sets, p, den)
        if x is None or m_plus_1 > len(positives):
            return x
        nums, xden = x
        ranked = sorted(positives, key=lambda i: (nums[i], i))
        cheapest = sorted(ranked[:m_plus_1])
        if sum(nums[i] for i in cheapest) * den >= p * xden:
            return x
        if cheapest in constraint_sets:
            return None  # cannot happen with a sound solver; stay safe
        constraint_sets.append(cheapest)


def reduce_weights(rs: ResolvedSubnetwork) -> Subnetwork:
    """Shrink a resolved subnetwork's scores while provably keeping its penalty.

    The scores become the reduction LP's minimizer (see _minimum_weights),
    written as its numerators over its own denominator, a multiple of the
    subnetwork's den; a triangle gets it in closed form over that den. The
    result is re-verified by a fresh resolution run; on any failure the
    original subnetwork is returned unchanged.
    """
    p, sub = rs.penalty, rs.sub
    if p <= 0:
        return sub
    S, k, den = sub.lattice.S, sub.lattice.n, sub.lattice.den
    pairs = _nonzero_pairs(sub.lattice)
    if k == 3 and len(pairs) == 3:
        # a penalized triangle is a positive path closed by a negative pair,
        # and p = min(u1, u2, |n|); each of its partitions pays exactly one
        # pair, so +-p on every pair is the LP's unique minimum
        x = [p] * 3, den
    else:
        x = _minimum_weights(rs, pairs)
        if x is None:
            return sub

    nums, xden = x
    reduced_S = [[0] * k for _ in range(k)]
    for (a, b), r in zip(pairs, nums):
        reduced_S[a][b] = reduced_S[b][a] = r if S[a][b] > 0 else -r
    reduced = Subnetwork(sub.nodes, ScoreMatrix(n=k, den=xden, S=reduced_S, diag=(0,) * k))
    if partial_brute_force(reduced).penalty * den < p * xden:
        return sub
    return reduced
