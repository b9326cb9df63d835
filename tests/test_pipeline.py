import copy
from fractions import Fraction

import pytest

from conftest import C4_NEAR_TIE, lattice, random_network, reduced_component
from modcert.brute import brute_force_max
from modcert.chains import find_penalized_chains, greedy_certify
from modcert.datasets import load_network
from modcert.document import CertificateDocument, build_document, document_to_certificate
from modcert.edgelist import parse_edge_list
from modcert.graph import build_network
from modcert.lp import combine
from modcert.optimizer import optimize
from modcert import pipeline
from modcert.pipeline import METHODS, CertificationError, certify, chain_bound
from modcert.scores import score_matrix
from modcert.subnets import enumerate_subnetworks, partial_brute_force, reduce_weights
from modcert.verify import MAX_EXHAUSTIVE_NODES, verify_certificate

F = Fraction


def test_path_pipeline_exact():
    net = build_network([("a", "b", 1), ("b", "c", 1)])
    doc = certify(net, method="chains")
    assert doc.status == "optimal-proved"
    assert doc.achieved_modularity == 0
    assert doc.bound == 0
    assert doc.gap == 0
    [comp] = doc.components
    assert comp["kind"] == "chain"
    assert comp["nodes"] == ["a", "b", "c"]
    assert comp["penalty"] == "1/8"


def test_gain_below_float_resolution_is_proved_optimal():
    assert certify(parse_edge_list(C4_NEAR_TIE), restarts=1).status == "optimal-proved"


def test_certify_method_validation():
    net = build_network([("a", "b", 1)])
    with pytest.raises(ValueError):
        certify(net, method="bogus")
    # checked up front: chains alone prove the path optimal, so the subnet
    # stage would never run
    path = build_network([("a", "b", 1), ("b", "c", 1)])
    with pytest.raises(ValueError, match="max_subnet_size"):
        certify(path, method="both", max_subnet_size=2)
    assert certify(path, method="chains", max_subnet_size=2).status == "optimal-proved"
    # the verifier re-proves a subnetwork component by enumeration only up to
    # MAX_EXHAUSTIVE_NODES nodes, so a larger one could never be checked
    c13 = build_network([(str(i), str((i + 1) % 13), 1) for i in range(13)])
    for method in ("subnets", "both"):
        with pytest.raises(ValueError, match=f"max_subnet_size must be <= {MAX_EXHAUSTIVE_NODES}"):
            certify(c13, method=method, max_subnet_size=MAX_EXHAUSTIVE_NODES + 1)
    with pytest.raises(ValueError, match="subnet_budget must be >= 0"):
        certify(path, method="subnets", subnet_budget=-3)
    sm = score_matrix(path)
    with pytest.raises(ValueError, match="path_budget must be >= 0"):
        chain_bound(sm, achieved=optimize(sm).modularity, path_budget=-1)
    # checked up front too, so a method without the chain stage rejects it
    for method in METHODS:
        with pytest.raises(ValueError, match="path_budget must be >= 0"):
            certify(path, method=method, path_budget=-5)
    # checked up front too: restart 0 alone proves the path optimal, so the
    # full search would never run
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        certify(path, restarts=0)


def test_certify_small_random_soundness():
    for seed in range(12):
        net = random_network(seed, n=3 + seed % 5)
        sm = score_matrix(net)
        q, _ = brute_force_max(sm)
        doc = certify(net, method="both", max_subnet_size=4)
        assert doc.bound >= q
        assert doc.achieved_modularity <= q
        if doc.status == "optimal-proved":
            assert doc.bound == doc.achieved_modularity == q


def test_certify_budget_degrades_not_invalidates():
    net = random_network(3, n=8, p=0.6)
    sm = score_matrix(net)
    q, _ = brute_force_max(sm)
    doc = certify(net, method="both", max_subnet_size=5, subnet_budget=2)
    assert doc.bound >= q


def test_pentagon_needs_subnetworks():
    """Configuration where chains provably stall above the optimum but a
    single five-node subnetwork closes the gap."""
    s = {}
    for i in range(5):
        s[tuple(sorted((i, (i + 1) % 5)))] = F(1)
    for pair in [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)]:
        s[pair] = F(-1)
    sm = lattice(5, s)
    qmax, _ = brute_force_max(sm)
    assert qmax == 2

    _, chains_only, _ = chain_bound(sm, achieved=qmax)
    assert chains_only.bound >= qmax
    assert chains_only.bound > qmax  # fundamentally unresolvable by chains

    pool = [c for c, _ in chains_only.components]
    for size in (3, 4, 5):
        for sub in enumerate_subnetworks(sm, size):
            rs = partial_brute_force(sub)
            if rs.penalty > 0:
                red = reduce_weights(rs)
                pool.append(reduced_component(red, rs))
    combined = combine(pool, sm)
    assert combined.bound == qmax


def test_chain_bound_reports_greedy_and_lp():
    net = random_network(17, n=8, p=0.6)
    sm = score_matrix(net)
    q, _ = brute_force_max(sm)
    greedy, r, _ = chain_bound(sm, achieved=q)
    assert r.bound <= greedy.bound
    assert r.bound >= q


def test_certify_gap_status_on_pentagon_like_network():
    # path of two triangles sharing capacity: chains may or may not resolve,
    # but status must reflect exact equality
    net = random_network(23, n=7, p=0.7)
    sm = score_matrix(net)
    doc = certify(net, method="chains")
    if doc.status == "optimal-proved":
        assert doc.bound == doc.achieved_modularity
    else:
        assert doc.bound > doc.achieved_modularity


def test_certify_subnets_only_method():
    # C5 resolves through a single five-node subnetwork even without chains
    net = build_network([(str(i), str((i + 1) % 5), 1) for i in range(5)])
    sm = score_matrix(net)
    q, _ = brute_force_max(sm)
    doc = certify(net, method="subnets", max_subnet_size=5)
    assert doc.bound >= q
    assert doc.status == "optimal-proved"
    assert doc.bound == q
    assert all(c["kind"] == "subnetwork" for c in doc.components)


def test_provenance_recorded():
    net = build_network([("a", "b", 1), ("b", "c", 1)])
    doc = certify(net, method="both", seed=3, max_subnet_size=4)
    assert doc.provenance["seed"] == 3
    assert doc.provenance["method"] == "both"
    assert "tool" in doc.provenance
    assert "strategy" not in doc.provenance and "tries_per_k" not in doc.provenance
    assert "path_budget_exhausted" not in doc.provenance
    assert "subnet_budget_exhausted" not in doc.provenance


@pytest.mark.parametrize("options,field", [
    ({"method": "chains", "path_budget": 50}, "path_budget_exhausted"),
    ({"method": "subnets", "max_subnet_size": 3, "subnet_budget": 5}, "subnet_budget_exhausted"),
], ids=["path-budget", "subnet-budget"])
def test_budget_cut_recorded(options, field):
    net = load_network("karate")
    doc = certify(net, **options)
    assert doc.status == "gap"
    assert doc.provenance[field] is True
    back = CertificateDocument.loads(doc.dumps())
    ok, why = verify_certificate(document_to_certificate(back, net), score_matrix(net))
    assert ok, why


def test_stage_not_needed_is_never_started(monkeypatch):
    """knoki is proved by the greedy pass, so neither the chain pool nor the
    subnetwork stage may run, and nothing is combined."""
    def refuse(*args, **kwargs):
        raise AssertionError("a stage ran after the bound met the achieved value")

    for name in ("find_penalized_chains", "enumerate_subnetworks", "combine"):
        monkeypatch.setattr(pipeline, name, refuse)
    doc = certify(load_network("knoki"), method="both")
    assert doc.status == "optimal-proved"
    assert "subnetworks_examined" not in doc.provenance


def test_self_check_rejects_wrong_status(monkeypatch):
    real = pipeline.build_document

    def wrong_status(**kwargs):
        doc = real(**kwargs)
        doc.status = "gap" if doc.status == "optimal-proved" else "optimal-proved"
        return doc

    monkeypatch.setattr(pipeline, "build_document", wrong_status)
    net = build_network([("a", "b", 1), ("b", "c", 1)])
    with pytest.raises(CertificationError, match="status-mismatch"):
        certify(net, method="chains")


def test_searches_leave_the_callers_lattice_unchanged():
    """The stages read the caller's ScoreMatrix itself; the greedy pass alone
    reduces a lattice, and only its own copy."""
    sm = score_matrix(load_network("karate"))
    before = copy.deepcopy(sm.S)
    greedy_certify(sm)
    chain_bound(sm, achieved=optimize(sm).modularity)
    find_penalized_chains(sm, 4)
    list(pipeline._subnet_stages(sm, 4, 100, {}))
    assert sm.S == before


@pytest.mark.parametrize("net,max_size", [
    (load_network("karate"), 4),
    (random_network(69, n=10, directed=True, p=0.3), 5),
], ids=["karate", "random-directed"])
def test_shape_memo_matches_fresh_reduction(net, max_size):
    """Every component certify builds through its shape memo is the one a
    fresh resolution and reduction of that subnetwork gives.

    A shape seen for the first time is resolved and reduced on the
    subnetwork itself, so only the repeats are compared against a fresh run.
    """
    shapes = {}
    lp_repeats = 0
    sm = score_matrix(net)
    subs = (sub for size in range(3, max_size + 1) for sub in enumerate_subnetworks(sm, size))
    for sub in subs:
        known = len(shapes)
        comp = pipeline._resolve_and_reduce(sub, shapes)
        if len(shapes) > known:
            continue
        rs = partial_brute_force(sub)
        assert rs.penalty > 0  # enumeration emits only penalized subnetworks
        red = reduce_weights(rs)
        assert comp == reduced_component(red, rs)
        assert list(comp.loads) == list(red.loads())
        lp_repeats += len(sub.nodes) > 3
    assert lp_repeats > 0  # repeats reduced by the LP, not only triangles


def test_certify_subnets_is_repeatable():
    net = load_network("karate")
    first = certify(net, method="subnets", max_subnet_size=4, subnet_budget=300).dumps()
    assert certify(net, method="subnets", max_subnet_size=4, subnet_budget=300).dumps() == first


@pytest.mark.parametrize("name,options,expected", [
    ("karate", {"method": "both", "max_subnet_size": 4}, [1]),
    ("knokm", {"method": "both", "max_subnet_size": 4}, [1, 8]),
    ("karate", {"method": "subnets", "max_subnet_size": 4, "subnet_budget": 100}, [1, 8]),
], ids=["karate-proved-by-restart-0", "knokm-restart-0-unproved", "karate-subnets"])
def test_full_search_runs_only_when_restart_0_is_unproved(optimize_restarts, name, options, expected):
    certify(load_network(name), **options)
    assert optimize_restarts == expected


def old_order(net, method, max_subnet_size):
    """certify's document, chains or both, as it was built before restart 0
    came first: every restart, then the chain stage and the subnet stage
    against that result."""
    sm = score_matrix(net)
    achieved = optimize(sm, restarts=8)
    _, best, _ = chain_bound(sm, achieved=achieved.modularity)
    if method == "both":
        stages = pipeline._subnet_stages(sm, max_subnet_size, None, {})
        best = pipeline._tighten(sm, best, stages, achieved.modularity)
    return build_document(net=net, achieved=achieved, cert=best, provenance={})


SWEEP_FAMILIES = [
    {"n": 10, "p": 0.4, "rational_weights": False},
    {"n": 9, "p": 0.3, "directed": True},
    {"n": 8, "p": 0.5, "loops": True},
]


def test_restart_0_first_matches_the_old_order():
    """Restart 0 first changes no bound, status, achieved value or component,
    both where restart 0 is proved and where the full search finds more."""
    missed = 0
    for seed in range(60):
        net = random_network(seed, **SWEEP_FAMILIES[seed % 3])
        sm = score_matrix(net)
        missed += optimize(sm, restarts=1).modularity < optimize(sm).modularity
        for method in ("chains", "both"):
            doc = certify(net, method=method, max_subnet_size=4)
            oracle = old_order(net, method, 4)
            assert doc.bound == oracle.bound, (seed, method)
            assert doc.status == oracle.status, (seed, method)
            assert doc.achieved_modularity == oracle.achieved_modularity, (seed, method)
            assert doc.components == oracle.components, (seed, method)
    assert missed > 0  # the sweep reaches the full search's better partitions


def test_proved_tie_reports_restart_0s_partition():
    """Restart 0's partition and another reach the same proved optimum; the
    certificate lists restart 0's, where the full search would pick the other."""
    net = random_network(112, n=6, rational_weights=False)
    sm = score_matrix(net)
    first, full = optimize(sm, restarts=1), optimize(sm, restarts=8)
    assert first.assignment != full.assignment
    doc = certify(net)
    assert doc.status == "optimal-proved"
    assert doc.achieved_communities == [[net.node_labels[v] for v in c] for c in first.communities()]
    assert doc.achieved_modularity == first.modularity == full.modularity
