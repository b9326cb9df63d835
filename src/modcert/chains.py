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

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .scores import Pair, ScoreMatrix, trivial_upper_bound

DEFAULT_PATH_BUDGET = 10_000_000


@dataclass
class Chain:
    nodes: tuple[int, ...]
    penalty: Fraction


class ChainError(ValueError):
    """Node sequence does not satisfy the chain sign pattern."""


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
        den, S, _ = sm.scaled()
        return cls(base=sm, num=[row[:] for row in S], den=den)

    @property
    def n(self) -> int:
        return self.base.n

    def residual(self, a: int, b: int) -> Fraction:
        return Fraction(self.num[a][b], self.den)

    def copy(self) -> "ResidualScores":
        return ResidualScores(base=self.base, num=[row[:] for row in self.num], den=self.den)

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


def chain_penalty(res: ResidualScores, nodes: Sequence[int]) -> Fraction:
    """Penalty of a node sequence on the residual matrix (rejects bad patterns)."""
    nodes = tuple(nodes)
    if len(nodes) < 3:
        raise ChainError("a chain needs at least 3 nodes")
    if len(set(nodes)) != len(nodes):
        raise ChainError("chain nodes must be distinct")
    vals = []
    for u, v in zip(nodes, nodes[1:]):
        r = res.num[u][v]
        if r <= 0:
            raise ChainError(f"interior pair ({u}, {v}) is not positive")
        vals.append(r)
    closing = res.num[nodes[0]][nodes[-1]]
    if closing >= 0:
        raise ChainError(f"closing pair ({nodes[0]}, {nodes[-1]}) is not negative")
    return Fraction(min(min(vals), -closing), res.den)


def apply_chain(res: ResidualScores, ch: Chain) -> ResidualScores:
    """Subtract a chain's reduced loads; returns a new residual matrix."""
    p = chain_penalty(res, ch.nodes)
    if p != ch.penalty:
        raise ChainError(f"chain penalty {ch.penalty} does not match residual ({p})")
    pnum = ch.penalty.numerator * (res.den // ch.penalty.denominator)
    out = res.copy()
    for u, v in zip(ch.nodes, ch.nodes[1:]):
        out.num[u][v] -= pnum
        out.num[v][u] -= pnum
        assert out.num[u][v] >= 0
    a, b = ch.nodes[0], ch.nodes[-1]
    out.num[a][b] += pnum
    out.num[b][a] += pnum
    assert out.num[a][b] <= 0
    return out


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
                    penalty = chain_penalty(res, path)
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
    total_penalty: Fraction
    bound: Fraction
    residual: ResidualScores
    truncated: bool = False


def _stage_pass(res: ResidualScores, k: int, strategy, rng, mixed_prob, path_budget):
    """One complete pass at chain length k, applied on a copy of res.

    Chains of a fixed length can only disappear or weaken as reductions are
    applied, so the candidate node sequences are enumerated once and their
    penalties maintained incrementally (integer arithmetic on the residual
    lattice). Returns (total_penalty, chains, residual, truncated).
    """
    chains0, truncated = find_penalized_chains(res, k, path_budget)
    out = res.copy()
    applied: list[Chain] = []
    total = Fraction(0)
    if not chains0:
        return total, applied, out, truncated

    num = out.num

    def int_penalty(nodes) -> int:
        # 0 means dead; assumes sign pattern was valid at enumeration time
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

    alive = [(ch.nodes, int_penalty(ch.nodes)) for ch in chains0]
    while True:
        alive = [(nodes, p) for nodes, p in alive if p > 0]
        if not alive:
            break
        if strategy == "best" or (strategy == "mixed" and rng.random() < mixed_prob):
            nodes, p = min(alive, key=lambda t: (-t[1], t[0]))
        else:
            nodes, p = alive[rng.randrange(len(alive))]
        penalty = Fraction(p, out.den)
        pnum = p
        for u, v in zip(nodes, nodes[1:]):
            num[u][v] -= pnum
            num[v][u] -= pnum
        a, b = nodes[0], nodes[-1]
        num[a][b] += pnum
        num[b][a] += pnum
        applied.append(Chain(nodes=nodes, penalty=penalty))
        total += penalty
        alive = [(nn, int_penalty(nn)) for nn, _ in alive]
    return total, applied, out, truncated


def greedy_certify(
    sm: ScoreMatrix,
    strategy: str = "best",
    seed: int = 0,
    tries_per_k: int = 1,
    mixed_prob: float = 0.5,
    path_budget: int = DEFAULT_PATH_BUDGET,
) -> ChainCertificate:
    """Greedy chain accumulation: k = 3 upward until no penalized chain remains.

    strategy "best" picks the highest-penalty chain (ties to the smallest node
    sequence), "random" picks uniformly, "mixed" picks best with probability
    mixed_prob. With tries_per_k > 1 the whole per-k pass is replayed from the
    pre-k residual and the replay with the largest cumulative penalty wins.
    """
    if strategy not in ("best", "random", "mixed"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    rng = random.Random(seed)
    res = ResidualScores.fresh(sm)
    applied: list[Chain] = []
    truncated_any = False
    k = 3
    tries = 1 if strategy == "best" else max(1, tries_per_k)

    while has_remaining_penalized_chain(res) and k <= sm.n:
        best_run = None
        for _ in range(tries):
            run_total, run_chains, run_res, truncated = _stage_pass(
                res, k, strategy, rng, mixed_prob, path_budget
            )
            if truncated:
                truncated_any = True
            if best_run is None or run_total > best_run[0]:
                best_run = (run_total, run_chains, run_res)
        _, new_chains, res = best_run
        applied.extend(new_chains)
        k += 1

    trivial = trivial_upper_bound(sm)
    total = sum((c.penalty for c in applied), Fraction(0))
    return ChainCertificate(
        trivial_bound=trivial,
        chains=tuple(applied),
        total_penalty=total,
        bound=trivial - total,
        residual=res,
        truncated=truncated_any,
    )
