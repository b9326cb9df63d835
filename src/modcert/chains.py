"""Penalized chains: greedy construction of a certified modularity bound.

A chain is a simple path whose consecutive pair scores are positive while the
endpoint pair score is negative. Collecting all the positive scores forces the
endpoints into one community and with them the negative score; skipping any
positive loses that score instead. Either way every partition pays at least
the minimum magnitude along the chain, which is the chain's penalty.

Applying a chain subtracts the penalty from its positive pairs and adds it to
the closing negative pair, leaving a residual matrix on which further chains
remain independently valid. The certificate is the trivial bound minus the
accumulated penalties.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .scores import Pair, ScoreMatrix, trivial_upper_bound

DEFAULT_PATH_BUDGET = 10_000_000


@dataclass
class Chain:
    nodes: tuple[int, ...]
    penalty: Fraction


@dataclass
class ResidualScores:
    """Score matrix minus everything already consumed by applied reductions.

    Residuals keep the sign of the base score and never exceed it in
    magnitude. Stored as a common-denominator integer matrix internally;
    `residual` exposes exact Fractions.
    """

    base: ScoreMatrix
    num: list[list[int]] = field(repr=False)
    den: int

    @classmethod
    def fresh(cls, sm: ScoreMatrix) -> "ResidualScores":
        return cls(base=sm, num=[row[:] for row in sm.S], den=sm.den)

    @property
    def n(self) -> int:
        return self.base.n

    def residual(self, a: int, b: int) -> Fraction:
        return Fraction(self.num[a][b], self.den)

    def positive_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a in range(self.n):
            row = self.num[a]
            for b in range(a + 1, self.n):
                if row[b] > 0:
                    adj[a].append(b)
                    adj[b].append(a)
        return adj

    def negative_pairs(self) -> list[Pair]:
        out = []
        for a in range(self.n):
            row = self.num[a]
            for b in range(a + 1, self.n):
                if row[b] < 0:
                    out.append((a, b))
        return out

    def penalty(self, nodes: Sequence[int]) -> int:
        """A chain's penalty in units of 1/den: the smallest magnitude on it.

        0 means the chain is dead: a consecutive pair is no longer positive
        or the closing pair no longer negative. Node distinctness is not
        checked; enumeration guarantees it.
        """
        num = self.num
        worst = None
        for u, v in zip(nodes, nodes[1:]):
            r = num[u][v]
            if r <= 0:
                return 0
            if worst is None or r < worst:
                worst = r
        closing = -num[nodes[0]][nodes[-1]]
        if closing <= 0:
            return 0
        return min(worst, closing)

    def apply(self, nodes: Sequence[int], p: int) -> None:
        """Apply a chain in place: its consecutive pairs lose p, its closing pair gains p.

        p must not exceed penalty(nodes), so that every residual keeps its sign.
        """
        num = self.num
        for u, v in zip(nodes, nodes[1:]):
            num[u][v] -= p
            num[v][u] -= p
        a, b = nodes[0], nodes[-1]
        num[a][b] += p
        num[b][a] += p


def find_penalized_chains(
    res: ResidualScores, k: int, path_budget: int = DEFAULT_PATH_BUDGET
) -> tuple[list[Chain], bool]:
    """All chains of exactly k nodes on the residual matrix.

    Enumeration is deterministic: negative pairs in sorted order, then DFS in
    ascending neighbor order from the smaller endpoint. Each chain is emitted
    once, oriented from its smaller endpoint. Returns (chains, truncated);
    truncated is set when the shared path budget ran out.
    """
    if k < 3:
        raise ValueError("chain length k must be >= 3")
    n = res.n
    adj = res.positive_adjacency()
    chains: list[Chain] = []
    visited = 0
    truncated = False

    # distance pruning: BFS over positive adjacency, one per distinct endpoint
    dist_cache: dict[int, list[int]] = {}

    def bfs_dist(src: int) -> list[int]:
        cached = dist_cache.get(src)
        if cached is not None:
            return cached
        dist = [-1] * n
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        dist_cache[src] = dist
        return dist

    for a, b in res.negative_pairs():
        dist_b = bfs_dist(b)
        if dist_b[a] < 0 or dist_b[a] > k - 1:
            continue
        path = [a]
        on_path = {a}

        def dfs(u: int):
            nonlocal visited, truncated
            if truncated:
                return
            steps_left = k - len(path)
            if steps_left == 0:
                if u == b:
                    penalty = Fraction(res.penalty(path), res.den)
                    chains.append(Chain(nodes=tuple(path), penalty=penalty))
                return
            for v in adj[u]:
                if truncated:
                    return
                if v in on_path:
                    continue
                if v == b and steps_left != 1:
                    continue
                if dist_b[v] < 0 or dist_b[v] > steps_left - 1:
                    continue
                visited += 1
                if visited > path_budget:
                    truncated = True
                    return
                path.append(v)
                on_path.add(v)
                dfs(v)
                path.pop()
                on_path.remove(v)

        dfs(a)
        if truncated:
            break
    return chains, truncated


def has_remaining_penalized_chain(res: ResidualScores) -> bool:
    """True iff some positive-residual component contains an internal negative pair."""
    n = res.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(n):
        row = res.num[a]
        for b in range(a + 1, n):
            if row[b] > 0:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    for a, b in res.negative_pairs():
        if find(a) == find(b):
            return True
    return False


@dataclass
class ChainCertificate:
    trivial_bound: Fraction
    chains: tuple[Chain, ...]
    bound: Fraction
    residual: ResidualScores
    truncated: bool = False


def greedy_certify(sm: ScoreMatrix, path_budget: int = DEFAULT_PATH_BUDGET) -> ChainCertificate:
    """Greedy chain accumulation: k = 3 upward until no penalized chain remains.

    Each k-stage enumerates the length-k chains once and then repeatedly
    applies the one with the highest penalty (ties to the smallest node
    sequence), in place on one residual. Chains of a fixed length can only
    disappear or weaken as reductions are applied, so the stage keeps them
    in a max-heap keyed (-penalty, nodes) with possibly stale penalties: a
    popped chain whose penalty is still current is the highest, and one
    that has weakened goes back with its new penalty unless it is dead.
    """
    res = ResidualScores.fresh(sm)
    applied: list[Chain] = []
    truncated_any = False
    k = 3
    while has_remaining_penalized_chain(res) and k <= sm.n:
        chains, truncated = find_penalized_chains(res, k, path_budget)
        truncated_any |= truncated
        heap = [(-res.penalty(ch.nodes), ch.nodes) for ch in chains]
        heapq.heapify(heap)
        while heap:
            stale, nodes = heapq.heappop(heap)
            p = res.penalty(nodes)
            if p == -stale:
                res.apply(nodes, p)
                applied.append(Chain(nodes=nodes, penalty=Fraction(p, res.den)))
            elif p > 0:
                heapq.heappush(heap, (-p, nodes))
        k += 1

    trivial = trivial_upper_bound(sm)
    bound = trivial - sum((c.penalty for c in applied), Fraction(0))
    return ChainCertificate(
        trivial_bound=trivial, chains=tuple(applied), bound=bound, residual=res, truncated=truncated_any
    )
