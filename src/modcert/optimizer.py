"""Merge/split/regroup local search for high-modularity partitions.

Each pass applies the best Kernighan-Lin series of single-node moves from
one community src to another community dst or to a new empty one; a series
can merge, split or regroup communities. The search sums the integer scores
of the `ScoreMatrix` itself, so a series gain is the exact modularity
increase in units of 1/den: every gain of at least 1/den is seen, and the
reported modularity is exact and rises with every applied series.

Each restart keeps every live ordered pair's series, which depends only on
the two communities' node sets, and a move runs again only the series of
the pairs that touch the two communities it changed. Communities are keyed
by their smallest node and the new community by n; each pass applies the
series with the highest gain, ties to the smaller (src, dst) key, and the
search stops when that gain is 0.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scores import Partition, ScoreMatrix, modularity_of_assignment

MAX_PASSES = 1000  # guard on recombination passes per restart


def _kl_series(S, src, d):
    """Best prefix of single-node best-gain moves from community src to dst.

    src lists the community's nodes in ascending order, and d[v] is
    to_dst(v) - to_src(v) for each v in src; moving v adds 2 S[v][u] to
    d[u], in place. Returns (gain, nodes_to_move) where
    nodes_to_move is the shortest prefix of the move sequence with the
    highest cumulative gain, or (0, ()) if no prefix gains.
    """
    remaining = list(src)
    moved: list[int] = []
    cumulative = 0
    best_gain = 0
    best_len = 0
    while remaining:
        # max returns the first maximum: ties go to the smallest node id
        v = max(remaining, key=d.__getitem__)
        remaining.remove(v)
        moved.append(v)
        cumulative += d[v]
        if cumulative > best_gain:
            best_gain = cumulative
            best_len = len(moved)
        row = S[v]
        for u in remaining:
            d[u] += 2 * row[u]
    return best_gain, tuple(moved[:best_len])


def _row_sum(rows, nodes):
    return [sum(column) for column in zip(*(rows[u] for u in nodes))]


class _Search:
    """The search on one score matrix; `improve` runs one restart.

    During a restart, members[c] lists community c's nodes in ascending
    order, c being the smallest; conn[c][v] sums S[u][v] over the u in c,
    and entries[(src, dst)] is the (gain, nodes) of `exact` for each live
    ordered pair.
    """

    def __init__(self, sm: ScoreMatrix):
        self.sm = sm
        self.new = sm.n

    def exact(self, src, dst):
        """The (gain, nodes) of `_kl_series` from src to dst."""
        to_src = self.conn[src]
        if dst == self.new:
            d = {v: -to_src[v] for v in self.members[src]}
        else:
            to_dst = self.conn[dst]
            d = {v: to_dst[v] - to_src[v] for v in self.members[src]}
        return _kl_series(self.sm.S, self.members[src], d)

    def move(self, src, dst, nodes) -> None:
        """Move nodes from src to dst, rekey the two, and run their pairs' series again."""
        members, conn, entries, new = self.members, self.conn, self.entries, self.new
        touched = (src,) if dst == new else (src, dst)
        for t in touched:
            entries.pop((t, new), None)
            for c in members:
                entries.pop((t, c), None)
                entries.pop((c, t), None)
        row = _row_sum(self.sm.S, nodes)
        changed = []
        moved = set(nodes)
        rest = [v for v in members.pop(src) if v not in moved]
        conn_src = conn.pop(src)
        if rest:
            c = rest[0]
            members[c] = rest
            conn[c] = [a - b for a, b in zip(conn_src, row)]
            changed.append(c)
        if dst == new:
            joined, conn_dst = sorted(nodes), row
        else:
            joined = sorted(members.pop(dst) + list(nodes))
            conn_dst = [a + b for a, b in zip(conn.pop(dst), row)]
        c = joined[0]
        members[c], conn[c] = joined, conn_dst
        changed.append(c)
        self._add_pairs(changed)

    def _add_pairs(self, changed) -> None:
        """Run the series of every live pair that touches a community in `changed`."""
        members, entries, exact = self.members, self.entries, self.exact
        for c in changed:
            for x in members:
                if x != c:
                    entries[(c, x)] = exact(c, x)
                    if x not in changed:
                        entries[(x, c)] = exact(x, c)
            if len(members[c]) > 1:
                entries[(c, self.new)] = exact(c, self.new)

    def improve(self, comm_of):
        """Apply the best-gain series until none gains; returns the
        canonical assignment reached and its modularity."""
        sm = self.sm
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(comm_of):
            groups.setdefault(c, []).append(v)
        self.members = {nodes[0]: nodes for nodes in groups.values()}
        self.conn = {c: _row_sum(sm.S, nodes) for c, nodes in self.members.items()}
        entries = self.entries = {}
        self._add_pairs(set(self.members))
        total = 0
        for _ in range(MAX_PASSES):
            # the highest gain, ties to the smaller (src, dst) key
            pair = min(entries, key=lambda p: (-entries[p][0], p), default=None)
            if pair is None or entries[pair][0] == 0:
                break
            gain, nodes = entries[pair]
            self.move(*pair, nodes)
            total += gain
        reached = [0] * sm.n
        for c, nodes in self.members.items():
            for v in nodes:
                reached[v] = c
        q = modularity_of_assignment(sm, comm_of) + Fraction(total, sm.den)
        return list(Partition.canonical_assignment(reached)), q


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
    search = _Search(sm)
    best = None
    for start in _starts(sm.n, seed, restarts):
        assignment, q = search.improve(start)
        if best is None or q > best[0] or (q == best[0] and tuple(assignment) < tuple(best[1])):
            best = (q, assignment)
    q, assignment = best
    return Partition(assignment=tuple(assignment), modularity=q)
