from fractions import Fraction

import pytest

from conftest import C4_NEAR_TIE, random_network
from modcert import optimizer
from modcert.brute import brute_force_max
from modcert.datasets import load_network
from modcert.edgelist import parse_edge_list
from modcert.graph import build_network
from modcert.optimizer import MAX_PASSES, optimize
from modcert.scores import Partition, ScoreMatrix, modularity_of_assignment, score_matrix


def test_dyad_single_community():
    sm = score_matrix(build_network([("a", "b", 1)]))
    p = optimize(sm, seed=0, restarts=2)
    assert p.modularity == 0
    assert len(p.communities()) == 1


def test_config_validation():
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        optimize(score_matrix(build_network([("a", "b", 1)])), restarts=0)


def test_determinism_same_seed():
    net = random_network(42, n=8)
    sm = score_matrix(net)
    a = optimize(sm, seed=5, restarts=4)
    b = optimize(sm, seed=5, restarts=4)
    assert a.assignment == b.assignment
    assert a.modularity == b.modularity


def test_oracle_parity_small_networks():
    hits = 0
    total = 100
    for seed in range(total):
        net = random_network(seed, n=3 + seed % 7)  # n in 3..9
        sm = score_matrix(net)
        best, _ = brute_force_max(sm)
        got = optimize(sm, seed=seed, restarts=4)
        assert got.modularity <= best
        if got.modularity == best:
            hits += 1
    assert hits >= 95, f"optimizer matched brute force on only {hits}/{total}"


def test_gain_below_float_resolution_is_found():
    sm = score_matrix(parse_edge_list(C4_NEAR_TIE))
    best, _ = brute_force_max(sm)
    assert best > 0
    assert optimize(sm, seed=0, restarts=1).modularity == best


def test_gain_of_one_lattice_unit_is_applied():
    # splitting the dyad gains exactly 1/den over restart 0's one community
    for den in (7, 10**30):
        sm = ScoreMatrix(n=2, den=den, S=[[0, -1], [-1, 0]], diag=(0, 0))
        got = optimize(sm, restarts=1)
        assert got.assignment == (0, 1)
        assert got.modularity == 0


def test_cached_modularity_consistent():
    net = random_network(3, n=8)
    sm = score_matrix(net)
    p = optimize(sm, seed=1, restarts=3)
    assert modularity_of_assignment(sm, p.assignment) == p.modularity


# Reference search: the optimizer before its series memo, which recomputed
# every (src, dst) series from scratch on every pass.
def reference_kl_series(S, members, src, dst):
    pool = sorted(members[src])
    if not pool:
        return 0, []
    conn_src = {}
    conn_dst = {}
    dst_members = members.get(dst, set())
    for v in pool:
        row = S[v]
        cs = 0
        for u in members[src]:
            if u != v:
                cs += row[u]
        cd = 0
        for u in dst_members:
            cd += row[u]
        conn_src[v] = cs
        conn_dst[v] = cd

    remaining = pool[:]
    moved = []
    cumulative = 0
    best_gain = 0
    best_len = 0
    while remaining:
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
        return 0, []
    return best_gain, moved[:best_len]


def reference_improve(sm, comm_of):
    """Returns the (assignment, modularity) the unmemoized search reaches.
    Each applied series' modularity is re-derived from scratch and must
    rise by exactly its gain."""
    comm_of = list(Partition.canonical_assignment(comm_of))
    q_exact = modularity_of_assignment(sm, comm_of)
    for _ in range(MAX_PASSES):
        members = {}
        for v, c in enumerate(comm_of):
            members.setdefault(c, set()).add(v)
        comm_ids = sorted(members)
        new_id = max(comm_ids) + 1
        candidates = []
        for src in comm_ids:
            for dst in comm_ids + [new_id]:
                if dst == src:
                    continue
                if dst == new_id and len(members[src]) < 2:
                    continue
                gain, nodes = reference_kl_series(sm.S, members, src, dst)
                if nodes:
                    candidates.append((gain, src, dst, nodes))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        gain, src, dst, nodes = candidates[0]
        trial = comm_of[:]
        for v in nodes:
            trial[v] = dst
        trial_q = modularity_of_assignment(sm, trial)
        assert gain > 0
        assert trial_q - q_exact == Fraction(gain, sm.den)
        comm_of = list(Partition.canonical_assignment(trial))
        q_exact = trial_q
    return comm_of, q_exact


def series_members(search, src, dst):
    """The reference's members map for the pair (src, dst) of a search."""
    members = {0: set(search.members[src])}
    if dst != search.new:
        members[1] = set(search.members[dst])
    return members


class CheckedSearch(optimizer._Search):
    """A search that checks every series it runs against the reference and,
    after every move, that it holds one entry for each live ordered pair and
    each community's connection vector summed afresh."""

    def exact(self, src, dst):
        hit = super().exact(src, dst)
        gain, nodes = reference_kl_series(self.sm.S, series_members(self, src, dst), 0, 1)
        assert hit == (gain, tuple(nodes))
        return hit

    def move(self, src, dst, nodes):
        super().move(src, dst, nodes)
        S, n = self.sm.S, self.sm.n
        assert sorted(v for group in self.members.values() for v in group) == list(range(n))
        live = set()
        for c, group in self.members.items():
            assert group == sorted(group) and c == group[0]
            assert self.conn[c] == [sum(S[u][v] for u in group) for v in range(n)]
            live |= {(c, d) for d in self.members if d != c}
            if len(group) > 1:
                live.add((c, self.new))
        assert set(self.entries) == live


def assert_matches_reference(sm, seed):
    """Every restart's result equals the reference's."""
    search = CheckedSearch(sm)
    for start in optimizer._starts(sm.n, seed, 8):
        assert search.improve(start) == reference_improve(sm, start)


def test_search_matches_reference():
    for seed in range(30):
        net = random_network(seed, n=6 + seed % 25, directed=bool(seed % 2), p=0.4)
        assert_matches_reference(score_matrix(net), seed)
    for name in ("karate", "knoki", "knokm"):
        sm = score_matrix(load_network(name))
        for seed in range(4):
            assert_matches_reference(sm, seed)


class RerunCounted(optimizer._Search):
    """A search that checks that a move runs the series of each live pair
    touching a changed community once, and keeps every other entry as it was."""

    def __init__(self, sm):
        super().__init__(sm)
        self.calls = []
        self.moves = 0

    def exact(self, src, dst):
        self.calls.append((src, dst))
        return super().exact(src, dst)

    def move(self, src, dst, nodes):
        before = dict(self.entries)
        members = {c: list(group) for c, group in self.members.items()}
        self.calls = []
        super().move(src, dst, nodes)
        changed = {c for c, group in self.members.items() if members.get(c) != group}
        touching = {pair for pair in self.entries if changed & set(pair)}
        assert sorted(self.calls) == sorted(touching)
        for pair, entry in self.entries.items():
            if pair not in touching:
                assert entry is before[pair]
        self.moves += 1


def test_move_reruns_only_touched_pairs():
    networks = [load_network("karate")]
    networks += [random_network(seed, n=8 + 3 * seed, directed=bool(seed % 2), p=0.3) for seed in range(4)]
    for seed, net in enumerate(networks):
        sm = score_matrix(net)
        search = RerunCounted(sm)
        for start in optimizer._starts(sm.n, seed, 8):
            search.improve(start)
        assert search.moves > 0
