"""Planted-partition network generator for trend experiments."""

from __future__ import annotations

import random

from .graph import Network, build_network


def generate_planted(
    n: int,
    communities: int,
    p_in: float,
    p_out: float,
    seed: int = 0,
) -> Network:
    """Random undirected network with planted groups of near-equal size.

    Within-group pairs get an edge with probability p_in, cross-group pairs
    with p_out (0 <= p_out < p_in <= 1). Node labels carry the planted group
    ("c<g>_n<i>") so recovered partitions can be scored against the truth.
    Deterministic for a given seed.
    """
    if not (0 <= p_out < p_in <= 1):
        raise ValueError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if not (1 <= communities <= n):
        raise ValueError("communities must be between 1 and n")

    rng = random.Random(seed)
    group = [i * communities // n for i in range(n)]
    labels = [f"c{group[i]}_n{i}" for i in range(n)]
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            p = p_in if group[a] == group[b] else p_out
            if rng.random() < p:
                pairs.append((labels[a], labels[b]))
    if not pairs:
        # degenerate draw: wire each group as a path so the network is usable
        for g in range(communities):
            members = [i for i in range(n) if group[i] == g]
            for a, b in zip(members, members[1:]):
                pairs.append((labels[a], labels[b]))
        if not pairs:
            pairs.append((labels[0], labels[1]))
    return build_network(pairs, directed=False)
