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

The searches read the lattice's positive pairs as one bitmask (a Python int)
per node, bit b of node a's mask set iff S[a][b] > 0: enumeration keeps, per
closing endpoint, the masks of the nodes within each number of positive
steps of it, and the component test grows components a mask at a time.
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


def _neighbours(nbr: list[int], m: int) -> int:
    """The union of the positive-neighbour masks of the nodes in mask m."""
    out = 0
    while m:
        low = m & -m
        out |= nbr[low.bit_length() - 1]
        m ^= low
    return out


def _within(nbr: list[int], b: int, depth: int) -> list[int]:
    """Masks of the nodes within d positive steps of b, for d = 0..depth."""
    reach = frontier = 1 << b
    levels = [reach]
    for _ in range(depth):
        frontier = _neighbours(nbr, frontier) & ~reach
        reach |= frontier
        levels.append(reach)
    return levels


def find_penalized_chains(
    sm: ScoreMatrix, k: int, path_budget: int = DEFAULT_PATH_BUDGET
) -> tuple[list[tuple[int, ...]], bool]:
    """The node tuples of all chains of exactly k nodes on sm.

    Enumeration is deterministic: negative pairs (a, b) in sorted order, then
    DFS from a in ascending neighbor order. Each chain is emitted once,
    oriented from its smaller endpoint. The search reads one bitmask of
    positive neighbours per node: a DFS step from u with s nodes still to
    place takes the unused neighbours of u within s - 1 positive steps of b,
    and the last interior node is an unused common neighbour of u and b.
    Every interior node placed and every arrival at b costs one step of the
    shared path budget. Returns (chains, truncated); truncated is set when
    the budget ran out.
    """
    if k < 3:
        raise ValueError("chain length k must be >= 3")
    nbr = sm.positive_masks()
    chains: list[tuple[int, ...]] = []
    visited = 0
    truncated = False
    within_cache: dict[int, list[int]] = {}
    # rebound for each negative pair (a, b): b, its mask, the path from a and
    # b's distance masks
    b = nbr_b = 0
    path: list[int] = []
    within: list[int] = []

    def dfs(u: int, used: int, steps_left: int) -> None:
        # steps_left >= 2 nodes still to place, b last among them
        nonlocal visited, truncated
        if steps_left == 2:
            m = nbr[u] & nbr_b & ~used
            while m:
                low = m & -m
                visited += 2
                if visited > path_budget:
                    truncated = True
                    return
                chains.append((*path, low.bit_length() - 1, b))
                m ^= low
            return
        m = nbr[u] & within[steps_left - 1] & ~used
        while m:
            low = m & -m
            visited += 1
            if visited > path_budget:
                truncated = True
                return
            v = low.bit_length() - 1
            path.append(v)
            dfs(v, used | low, steps_left - 1)
            path.pop()
            if truncated:
                return
            m ^= low

    for a, b in sm.negative_pairs():
        if k > 3:  # a 3-chain's one interior node is a common neighbour: no distances
            within = within_cache.get(b)
            if within is None:
                within = within_cache[b] = _within(nbr, b, k - 1)
            if not within[k - 1] >> a & 1:
                continue
        nbr_b = nbr[b]
        path = [a]
        dfs(a, 1 << a | 1 << b, k - 1)
        if truncated:
            break
    return chains, truncated


def has_remaining_penalized_chain(sm: ScoreMatrix) -> bool:
    """True iff some component of sm's positive pairs contains an internal negative pair."""
    nbr = sm.positive_masks()
    S = sm.S
    unseen = (1 << sm.n) - 1
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            frontier = _neighbours(nbr, frontier) & ~comp
            comp |= frontier
        unseen &= ~comp
        members = []
        while comp:
            low = comp & -comp
            members.append(low.bit_length() - 1)
            comp ^= low
        for i, x in enumerate(members):
            row = S[x]
            for y in members[i + 1:]:
                if row[y] < 0:
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
    that has weakened goes back with its new penalty unless it is dead. The
    heap is split in two: the enumerated chains ranked once by `sorted`, and
    a small heap of the re-pushed ones; keys are unique, so always taking
    the smaller head pops in the one heap's order.
    Returns (certificate, truncated): every applied chain with multiplier 1
    and the trivial bound less their penalties; truncated is set when the
    path budget cut some enumeration short.
    """
    res = sm.copy()
    den = res.den
    one = Fraction(1)
    applied: list[tuple[CertComponent, Fraction]] = []
    truncated_any = False
    k = 3
    while has_remaining_penalized_chain(res) and k <= sm.n:
        chains, truncated = find_penalized_chains(res, k, path_budget)
        truncated_any |= truncated
        ranked = sorted([(-res.penalty(nodes), nodes) for nodes in chains])
        heap: list[tuple[int, tuple[int, ...]]] = []
        i, end = 0, len(ranked)
        while i < end or heap:
            if heap and (i == end or heap[0] < ranked[i]):
                stale, nodes = heapq.heappop(heap)
            else:
                stale, nodes = ranked[i]
                i += 1
            p = res.penalty(nodes)
            if p == -stale:
                applied.append((CertComponent(nodes=nodes, loads=chain_loads(nodes, p), penalty=p, den=den), one))
                res.apply(nodes, p)
            elif p > 0:
                heapq.heappush(heap, (-p, nodes))
        k += 1

    bound = trivial_upper_bound(sm) - Fraction(sum(comp.penalty for comp, _ in applied), den)
    return CombinedCertificate(components=tuple(applied), bound=bound), truncated_any
