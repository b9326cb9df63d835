"""Penalized chains: greedy construction of a certified modularity bound.

A chain is a simple path whose consecutive pair scores are positive while the
endpoint pair score is negative. Collecting all the positive scores forces the
endpoints into one community and with them the negative score; skipping any
positive loses that score instead. Either way every partition pays at least
the minimum magnitude along the chain, which is the chain's penalty.

Every search here reads a `ScoreMatrix`. Applying a chain
(`ScoreMatrix.apply`) subtracts the penalty from its positive pairs and adds
it to the closing negative pair; the greedy pass does this on its own copy
of the lattice, on which further chains remain independently valid. The
certificate is the trivial bound minus the accumulated penalties.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .lp import CertComponent, CombinedCertificate
from .scores import ScoreMatrix, chain_loads, trivial_upper_bound

DEFAULT_PATH_BUDGET = 10_000_000


def chain_component(sm: ScoreMatrix, nodes: tuple[int, ...]) -> CertComponent:
    """A path as a combinable component: its penalty p on sm, +p along it, -p on its closing pair, over sm.den."""
    p = sm.penalty(nodes)
    return CertComponent(nodes=nodes, loads=chain_loads(nodes, p), penalty=p, den=sm.den)


def find_penalized_chains(
    sm: ScoreMatrix, k: int, path_budget: int = DEFAULT_PATH_BUDGET
) -> tuple[list[tuple[int, ...]], bool]:
    """The node tuples of all chains of exactly k nodes on sm.

    Enumeration is deterministic: negative pairs in sorted order, then DFS in
    ascending neighbor order from the smaller endpoint. Each chain is emitted
    once, oriented from its smaller endpoint. Returns (chains, truncated);
    truncated is set when the shared path budget ran out.
    """
    if k < 3:
        raise ValueError("chain length k must be >= 3")
    n = sm.n
    adj = sm.positive_adjacency()
    chains: list[tuple[int, ...]] = []
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

    for a, b in sm.negative_pairs():
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
                    chains.append(tuple(path))
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


def has_remaining_penalized_chain(sm: ScoreMatrix) -> bool:
    """True iff some component of sm's positive pairs contains an internal negative pair."""
    n = sm.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(n):
        row = sm.S[a]
        for b in range(a + 1, n):
            if row[b] > 0:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    for a, b in sm.negative_pairs():
        if find(a) == find(b):
            return True
    return False


def greedy_certify(
    sm: ScoreMatrix, path_budget: int = DEFAULT_PATH_BUDGET
) -> tuple[CombinedCertificate, bool]:
    """Greedy chain accumulation: k = 3 upward until no penalized chain remains.

    Each k-stage enumerates the length-k chains once and then repeatedly
    applies the one with the highest penalty (ties to the smallest node
    sequence), in place on one copy of sm. Chains of a fixed length can only
    disappear or weaken as reductions are applied, so the stage keeps them
    in a max-heap keyed (-penalty, nodes) with possibly stale penalties: a
    popped chain whose penalty is still current is the highest, and one
    that has weakened goes back with its new penalty unless it is dead.
    Returns (certificate, truncated): every applied chain with multiplier 1
    and the trivial bound less their penalties; truncated is set when the
    path budget cut some enumeration short.
    """
    res = sm.copy()
    applied: list[tuple[CertComponent, Fraction]] = []
    truncated_any = False
    k = 3
    while has_remaining_penalized_chain(res) and k <= sm.n:
        chains, truncated = find_penalized_chains(res, k, path_budget)
        truncated_any |= truncated
        heap = [(-res.penalty(nodes), nodes) for nodes in chains]
        heapq.heapify(heap)
        while heap:
            stale, nodes = heapq.heappop(heap)
            p = res.penalty(nodes)
            if p == -stale:
                applied.append((chain_component(res, nodes), Fraction(1)))
                res.apply(nodes, p)
            elif p > 0:
                heapq.heappush(heap, (-p, nodes))
        k += 1

    bound = trivial_upper_bound(sm) - Fraction(sum(comp.penalty for comp, _ in applied), sm.den)
    return CombinedCertificate(components=tuple(applied), bound=bound), truncated_any
