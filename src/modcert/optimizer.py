"""Merge/split/regroup local search for high-modularity partitions.

Each pass applies the best Kernighan-Lin series of single-node moves from
one community src to another community dst or to a new empty one; a series
can merge, split or regroup communities. The search sums the integer scores
of the `ScoreMatrix` itself, so a series gain is the exact modularity
increase in units of 1/den: every gain of at least 1/den is seen, and the
reported modularity is exact and rises with every applied series.

Pairs are ranked by a cheap exact upper bound, and a pair's series runs only
when its bound reaches the top. With to_X(v) the sum of S[u][v] over the u
in X, moving a set M of src's nodes to dst gains the sum over v in M of
to_dst(v) - to_src(v) + to_M(v). Since to_M(v) is at most the positive part
of v's row inside src, every prefix of the series gains at most

    UB(src, dst) = sum over v in src of max(0, to_dst(v) + N_src(v)),

where N_src(v) sums |S[u][v]| over the u in src with S[u][v] < 0.

Communities are keyed by their smallest node, and the new community by n.
Each pass takes the pair with the highest value, ties to the smaller src
key and then the smaller dst key: a value is the pair's bound until its
series has run and its exact gain after. While the top value is a bound,
the pair's series runs and the top is taken again; the first exact value on
top is the highest exact gain, since no bound is below its pair's gain. The
pass applies that series, and the search stops when the top value is 0.

A bound and a series depend only on the two communities' node sets, so each
restart keeps them while both communities exist: a move bounds again only
the pairs that touch the two communities it changed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heappop, heappush, heapreplace

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


def _negative_parts(S, nodes):
    """{v: N(v)} for each v in nodes, N(v) summing max(0, -S[u][v]) over the
    u in nodes; S is symmetric, so that is row v's negative entries there."""
    # (0).__gt__(x) is 0 > x: keep the negative entries
    return {v: -sum(filter((0).__gt__, map(S[v].__getitem__, nodes))) for v in nodes}


class _Search:
    """The search on one score matrix; `improve` runs one restart.

    During a restart, members[c] lists community c's nodes in ascending
    order, c being the smallest; conn[c][v] sums S[u][v] over the u in c,
    and neg[c] maps each v in c, the only nodes `bound` reads it at, to
    N_c(v). entries[(src, dst)] is (value, nodes)
    for each live ordered pair, nodes being None while value is the bound.
    The heap holds (-value, src, dst) for every entry, and also for entries
    since dropped or replaced: `_best` skips an item whose value is not its
    pair's live value.
    """

    def __init__(self, sm: ScoreMatrix):
        self.sm = sm
        self.new = sm.n

    def bound(self, src, dst) -> int:
        """UB(src, dst): no prefix of the series from src to dst gains more."""
        neg = self.neg[src]
        if dst == self.new:
            return sum(neg.values())
        to_dst = self.conn[dst]
        total = 0
        for v in self.members[src]:
            x = to_dst[v] + neg[v]
            if x > 0:
                total += x
        return total

    def exact(self, src, dst):
        """The (gain, nodes) of `_kl_series` from src to dst."""
        to_src = self.conn[src]
        if dst == self.new:
            d = {v: -to_src[v] for v in self.members[src]}
        else:
            to_dst = self.conn[dst]
            d = {v: to_dst[v] - to_src[v] for v in self.members[src]}
        return _kl_series(self.sm.S, self.members[src], d)

    def _add(self, src, dst) -> None:
        value = self.bound(src, dst)
        self.entries[(src, dst)] = (value, None)
        heappush(self.heap, (-value, src, dst))

    def _best(self):
        """(gain, src, dst, nodes) of the pass's series, or None if none gains."""
        heap, entries = self.heap, self.entries
        while heap:
            neg_value, src, dst = heap[0]
            entry = entries.get((src, dst))
            if entry is None or entry[0] != -neg_value:
                heappop(heap)
                continue
            if neg_value == 0:
                return None
            if entry[1] is not None:
                return entry[0], src, dst, entry[1]
            gain, nodes = entries[(src, dst)] = self.exact(src, dst)
            heapreplace(heap, (-gain, src, dst))
        return None

    def move(self, src, dst, nodes) -> None:
        """Move nodes from src to dst, rekey the two, and bound their pairs again."""
        members, conn, neg, entries, new = self.members, self.conn, self.neg, self.entries, self.new
        touched = (src,) if dst == new else (src, dst)
        for t in touched:
            entries.pop((t, new), None)
            for c in members:
                entries.pop((t, c), None)
                entries.pop((c, t), None)
        S = self.sm.S
        row = _row_sum(S, nodes)
        changed = []
        moved = set(nodes)
        rest = [v for v in members.pop(src) if v not in moved]
        conn_src = conn.pop(src)
        del neg[src]
        if rest:
            c = rest[0]
            members[c] = rest
            conn[c] = [a - b for a, b in zip(conn_src, row)]
            neg[c] = _negative_parts(S, rest)
            changed.append(c)
        if dst == new:
            joined, conn_dst = sorted(nodes), row
        else:
            joined = sorted(members.pop(dst) + list(nodes))
            conn_dst = [a + b for a, b in zip(conn.pop(dst), row)]
            del neg[dst]
        c = joined[0]
        members[c], conn[c], neg[c] = joined, conn_dst, _negative_parts(S, joined)
        changed.append(c)
        self._add_pairs(changed)

    def _add_pairs(self, changed) -> None:
        """Bound every live pair that touches a community in `changed`."""
        members = self.members
        for c in changed:
            for x in members:
                if x != c:
                    self._add(c, x)
                    if x not in changed:
                        self._add(x, c)
            if len(members[c]) > 1:
                self._add(c, self.new)

    def improve(self, comm_of):
        """Apply the best-gain series until none gains; returns the
        canonical assignment reached and its modularity."""
        sm = self.sm
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(comm_of):
            groups.setdefault(c, []).append(v)
        self.members = {nodes[0]: nodes for nodes in groups.values()}
        self.conn = {c: _row_sum(sm.S, nodes) for c, nodes in self.members.items()}
        self.neg = {c: _negative_parts(sm.S, nodes) for c, nodes in self.members.items()}
        self.entries = {}
        self.heap = []
        self._add_pairs(set(self.members))
        total = 0
        for _ in range(MAX_PASSES):
            best = self._best()
            if best is None:
                break
            gain, src, dst, nodes = best
            self.move(src, dst, nodes)
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
