"""Merge/split/regroup local search for high-modularity partitions.

The inner loop works in floating point for speed; every candidate
recombination is re-checked in exact rationals before it is applied, so the
reported modularity is exact and monotone over accepted steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .scores import Partition, ScoreMatrix, modularity_of_assignment

MAX_PASSES = 1000  # guard on recombination passes per restart
FLOAT_TOLERANCE = 1e-12


@dataclass
class OptimizerConfig:
    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


def _float_matrix(sm: ScoreMatrix) -> list[list[float]]:
    return [[v / sm.den for v in row] for row in sm.S]


def _kl_series(S, members, src, dst):
    """Best prefix of single-node best-gain moves from community src to dst.

    Returns (gain, nodes_to_move) where nodes_to_move is the prefix of the
    move sequence with the highest cumulative float gain, or (0, []) if no
    prefix beats FLOAT_TOLERANCE.
    """
    pool = sorted(members[src])
    if not pool:
        return 0.0, []
    # connection of each pool node to current src (minus itself) and to dst
    conn_src = {}
    conn_dst = {}
    dst_members = members.get(dst, set())
    for v in pool:
        row = S[v]
        cs = 0.0
        for u in members[src]:
            if u != v:
                cs += row[u]
        cd = 0.0
        for u in dst_members:
            cd += row[u]
        conn_src[v] = cs
        conn_dst[v] = cd

    remaining = pool[:]
    moved: list[int] = []
    cumulative = 0.0
    best_gain = 0.0
    best_len = 0
    while remaining:
        # best single move at the current state; ties to the smallest node id
        best_v = None
        best_delta = None
        for v in remaining:
            delta = conn_dst[v] - conn_src[v]
            if best_delta is None or delta > best_delta:
                best_delta = delta
                best_v = v
        v = best_v
        remaining.remove(v)
        moved.append(v)
        cumulative += best_delta
        if cumulative > best_gain + FLOAT_TOLERANCE:
            best_gain = cumulative
            best_len = len(moved)
        row = S[v]
        for u in remaining:
            conn_src[u] -= row[u]
            conn_dst[u] += row[u]
    if best_len == 0:
        return 0.0, []
    return best_gain, moved[:best_len]


def _members_map(comm_of) -> dict[int, set[int]]:
    members: dict[int, set[int]] = {}
    for v, c in enumerate(comm_of):
        members.setdefault(c, set()).add(v)
    return members


def _improve(sm: ScoreMatrix, comm_of: list[int]):
    """Apply best-gain recombinations until none improves the exact score."""
    S = _float_matrix(sm)
    comm_of = list(Partition.canonical_assignment(comm_of))
    q_exact = modularity_of_assignment(sm, comm_of)
    for _ in range(MAX_PASSES):
        members = _members_map(comm_of)
        comm_ids = sorted(members)
        new_id = max(comm_ids) + 1
        candidates = []
        for src in comm_ids:
            for dst in comm_ids + [new_id]:
                if dst == src:
                    continue
                if dst == new_id and len(members[src]) < 2:
                    continue
                gain, nodes = _kl_series(S, members, src, dst)
                if nodes and gain > FLOAT_TOLERANCE:
                    candidates.append((gain, src, dst, nodes))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        applied = False
        for gain, src, dst, nodes in candidates:
            trial = comm_of[:]
            for v in nodes:
                trial[v] = dst
            trial_q = modularity_of_assignment(sm, trial)
            if trial_q > q_exact:
                comm_of = list(Partition.canonical_assignment(trial))
                q_exact = trial_q
                applied = True
                break
        if not applied:
            break
    return comm_of, q_exact


def optimize(sm: ScoreMatrix, cfg: OptimizerConfig | None = None) -> Partition:
    """Best partition across seeded restarts; deterministic for a given seed.

    Restart 0 starts from a single all-in-one community, later restarts from
    a random assignment into min(n, 2 + r) groups.
    """
    cfg = cfg or OptimizerConfig()
    rng = random.Random(cfg.seed)
    best = None
    for r in range(cfg.restarts):
        if r == 0:
            start = [0] * sm.n
        else:
            g = min(sm.n, 2 + r)
            start = [rng.randrange(g) for _ in range(sm.n)]
        assignment, q = _improve(sm, start)
        if best is None or q > best[0] or (q == best[0] and tuple(assignment) < tuple(best[1])):
            best = (q, assignment)
    q, assignment = best
    return Partition(assignment=tuple(assignment), num_communities=max(assignment) + 1, modularity=q)
