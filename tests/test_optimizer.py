from fractions import Fraction

import pytest

from conftest import C4_NEAR_TIE, random_network
from modcert import optimizer
from modcert.brute import brute_force_max
from modcert.datasets import load_network
from modcert.edgelist import parse_edge_list
from modcert.graph import build_network
from modcert.optimizer import MAX_PASSES, optimize
from modcert.scores import Partition, modularity_of_assignment, score_matrix


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


def reference_improve(sm, comm_of, calls=None):
    """Returns the (assignment, modularity) the unmemoized search reaches;
    counts its series computations in calls[0] when given. Each applied
    series' modularity is re-derived from scratch and must rise by exactly
    its gain."""
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
                if calls is not None:
                    calls[0] += 1
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


def reference_bound(S, src_nodes, dst_nodes):
    """UB(src, dst) from its definition: the sum over v in src of
    max(0, to_dst(v) + N_src(v))."""
    total = 0
    for v in src_nodes:
        to_dst = sum(S[v][u] for u in dst_nodes)
        n_src = sum(-S[v][u] for u in src_nodes if S[v][u] < 0)
        total += max(0, to_dst + n_src)
    return total


def series_members(search, src, dst):
    """The reference's members map for the pair (src, dst) of a search."""
    members = {0: set(search.members[src])}
    if dst != search.new:
        members[1] = set(search.members[dst])
    return members


class CheckedSearch(optimizer._Search):
    """A search that checks every series it runs against the reference and,
    after every move, that it holds one entry for each live ordered pair and
    each community's connection and negative-part vectors summed afresh."""

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
            assert self.neg[c] == {v: sum(-S[u][v] for u in group if S[u][v] < 0) for v in group}
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


class BoundChecked(optimizer._Search):
    """A search that, before every move and after its last pass, checks that
    every ordered pair's bound, the new-community target included, is UB
    from its definition and is at least the reference series' gain."""

    def check_bounds(self):
        S = self.sm.S
        for src in self.members:
            for dst in [*self.members, self.new]:
                if dst == src:
                    continue
                members = series_members(self, src, dst)
                ub = self.bound(src, dst)
                assert ub == reference_bound(S, members[0], members.get(1, ()))
                assert ub >= reference_kl_series(S, members, 0, 1)[0]

    def move(self, src, dst, nodes):
        self.check_bounds()
        super().move(src, dst, nodes)

    def improve(self, comm_of):
        reached = super().improve(comm_of)
        self.check_bounds()
        return reached


def test_bound_is_at_least_every_series_gain():
    networks = [random_network(seed, n=5 + seed % 12, directed=bool(seed % 2), p=0.3 + 0.1 * (seed % 5),
                               loops=seed % 3 == 0)
                for seed in range(40)]
    networks += [load_network(name) for name in ("karate", "knoki", "knokm")]
    for seed, net in enumerate(networks):
        sm = score_matrix(net)
        search = BoundChecked(sm)
        for start in optimizer._starts(sm.n, seed, 8):
            search.improve(start)


def test_bounds_save_series(monkeypatch):
    """On karate the search runs fewer series than the reference, which ran
    one per live pair and pass, and fewer than the pairs it bounds."""
    sm = score_matrix(load_network("karate"))
    reference_calls = [0]
    for start in optimizer._starts(sm.n, 0, 8):
        reference_improve(sm, start, reference_calls)
    calls = {"exact": 0, "bound": 0}

    class Counted(optimizer._Search):
        def exact(self, src, dst):
            calls["exact"] += 1
            return super().exact(src, dst)

        def bound(self, src, dst):
            calls["bound"] += 1
            return super().bound(src, dst)

    monkeypatch.setattr(optimizer, "_Search", Counted)
    optimize(sm)
    assert 0 < calls["exact"] < min(reference_calls[0], calls["bound"])
