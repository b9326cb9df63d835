"""Merge/split/regroup local search for high-modularity partitions.

Each pass scores, for every ordered pair of communities (src, dst), with dst
possibly a new empty community, the best Kernighan-Lin series of single-node
moves from src to dst, and applies the highest-gain one. The search sums the
integer scores of the `ScoreMatrix` itself, so a series gain is the exact
modularity increase in units of 1/den: every gain of at least 1/den is seen,
and the reported modularity is exact and rises with every applied series.

A series depends only on the two communities' node sets, so each restart
computes each (src, dst) series once, and each community's connection vector
once, and keeps them while both communities exist: a pass recomputes only the
series that touch the two communities the last move changed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scores import Partition, ScoreMatrix, modularity_of_assignment

MAX_PASSES = 1000  # guard on recombination passes per restart
NEW_COMMUNITY = frozenset()


def _kl_series(S, src, to_src, to_dst):
    """Best prefix of single-node best-gain moves from community src to dst.

    to_src[v] and to_dst[v] are v's connections to all of src and dst.
    Returns (gain, nodes_to_move) where nodes_to_move is the shortest prefix
    of the move sequence with the highest cumulative gain, or (0, ()) if no
    prefix gains.
    """
    remaining = sorted(src)
    # S has a zero diagonal, so to_src[v] is v's connection to the rest of
    # src; the vectors are copied because the memo shares them
    conn_src = list(to_src)
    conn_dst = list(to_dst)
    moved: list[int] = []
    cumulative = 0
    best_gain = 0
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
        if cumulative > best_gain:
            best_gain = cumulative
            best_len = len(moved)
        row = S[v]
        for u in remaining:
            conn_src[u] -= row[u]
            conn_dst[u] += row[u]
    if best_len == 0:
        return 0, ()
    return best_gain, tuple(moved[:best_len])


class _SeriesMemo:
    """memo(src, dst) -> (gain, nodes) of `_kl_series`, each pair computed once
    while both communities exist.

    src and dst are frozensets of node ids. A series is a function of the two
    sets alone, so a memo hit returns what a fresh computation would give.
    """

    def __init__(self, S):
        self.S = S
        self.conn: dict[frozenset, list[int]] = {}
        self.series: dict[tuple[frozenset, frozenset], tuple] = {}

    def retain(self, communities) -> None:
        """Drop every entry that touches a set not among `communities`."""
        live = {NEW_COMMUNITY, *communities}
        self.conn = {c: vec for c, vec in self.conn.items() if c in live}
        self.series = {k: hit for k, hit in self.series.items() if k[0] in live and k[1] in live}

    def _connection(self, c):
        vec = self.conn.get(c)
        if vec is None:
            vec = [0] * len(self.S)
            for u in c:  # S is symmetric: column u of S is row u
                vec = [a + b for a, b in zip(vec, self.S[u])]
            self.conn[c] = vec
        return vec

    def __call__(self, src, dst):
        key = (src, dst)
        hit = self.series.get(key)
        if hit is None:
            to_src, to_dst = self._connection(src), self._connection(dst)
            hit = self.series[key] = _kl_series(self.S, src, to_src, to_dst)
        return hit


def _members_map(comm_of) -> dict[int, frozenset[int]]:
    members: dict[int, list[int]] = {}
    for v, c in enumerate(comm_of):
        members.setdefault(c, []).append(v)
    return {c: frozenset(nodes) for c, nodes in members.items()}


def _improve(sm: ScoreMatrix, comm_of: list[int], series: _SeriesMemo):
    """Apply the best-gain recombination until none gains."""
    comm_of = list(Partition.canonical_assignment(comm_of))
    q = modularity_of_assignment(sm, comm_of)
    for _ in range(MAX_PASSES):
        members = _members_map(comm_of)
        # an applied move replaced two communities; forget the old ones
        series.retain(members.values())
        comm_ids = sorted(members)
        new_id = max(comm_ids) + 1
        candidates = []
        for src in comm_ids:
            src_set = members[src]
            for dst in comm_ids + [new_id]:
                if dst == src:
                    continue
                if dst == new_id and len(src_set) < 2:
                    continue
                gain, nodes = series(src_set, members.get(dst, NEW_COMMUNITY))
                if nodes:
                    candidates.append((gain, src, dst, nodes))
        if not candidates:
            break
        gain, _, dst, nodes = min(candidates, key=lambda c: (-c[0], c[1], c[2]))
        for v in nodes:
            comm_of[v] = dst
        comm_of = list(Partition.canonical_assignment(comm_of))
        q += Fraction(gain, sm.den)
    return comm_of, q


def _starts(n: int, seed: int, restarts: int):
    """Restart 0 starts from one all-in-one community, restart r > 0 from a
    seeded random assignment into min(n, 2 + r) groups."""
    rng = random.Random(seed)
    for r in range(restarts):
        if r == 0:
            yield [0] * n
        else:
            g = min(n, 2 + r)
            yield [rng.randrange(g) for _ in range(n)]


def optimize(sm: ScoreMatrix, *, seed: int = 0, restarts: int = 8) -> Partition:
    """Best partition across seeded restarts; deterministic for a given seed."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best = None
    for start in _starts(sm.n, seed, restarts):
        assignment, q = _improve(sm, start, _SeriesMemo(sm.S))
        if best is None or q > best[0] or (q == best[0] and tuple(assignment) < tuple(best[1])):
            best = (q, assignment)
    q, assignment = best
    return Partition(assignment=tuple(assignment), modularity=q)
