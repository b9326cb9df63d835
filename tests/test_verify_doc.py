import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

import modcert.document
import modcert.verify
from conftest import random_network
from modcert.chains import Chain, greedy_certify
from modcert.document import (
    CertificateDocument,
    build_document,
    document_to_certificate,
    frac_str,
    network_fingerprint,
    parse_frac,
)
from modcert.graph import build_network
from modcert.lp import CertComponent, CombinedCertificate, combine
from modcert.pipeline import certify
from modcert.scores import score_matrix, trivial_upper_bound
from modcert.verify import verify_certificate

F = Fraction


def test_frac_round_trip():
    for f in [F(0), F(1, 3), F(-7, 12), F(5)]:
        assert parse_frac(frac_str(f)) == f


def test_fingerprint_stable_and_discriminating():
    a = build_network([("a", "b", 1), ("b", "c", 1)])
    b = build_network([("a", "b", 1), ("b", "c", 1)])
    c = build_network([("a", "b", 1), ("b", "c", 2)])
    assert network_fingerprint(a) == network_fingerprint(b)
    assert network_fingerprint(a) != network_fingerprint(c)


def test_chain_certificate_verifies():
    for seed in range(10):
        sm = score_matrix(random_network(seed, n=7))
        cert = greedy_certify(sm)
        components = tuple((CertComponent.from_chain(ch), F(1)) for ch in cert.chains)
        ok, why = verify_certificate(CombinedCertificate(components=components, bound=cert.bound), sm)
        assert ok, why


def test_combined_certificate_verifies():
    sm = score_matrix(random_network(4, n=7))
    cert = greedy_certify(sm)
    pool = [CertComponent.from_chain(c) for c in cert.chains]
    combined = combine(pool, sm)
    ok, why = verify_certificate(combined, sm)
    assert ok, why


def _sample_combined(seed=4):
    sm = score_matrix(random_network(seed, n=7))
    cert = greedy_certify(sm)
    pool = [CertComponent.from_chain(c) for c in cert.chains]
    return sm, combine(pool, sm)


def test_tampered_lambda_fails_permissibility():
    sm, combined = _sample_combined()
    comps = [(c, lam) for c, lam in combined.components]
    # inflate one multiplier far past any pair capacity
    comp, lam = comps[0]
    comps[0] = (comp, lam + F(1000))
    bad = CombinedCertificate(components=tuple(comps), bound=combined.bound)
    ok, why = verify_certificate(bad, sm)
    assert not ok
    assert why.startswith("permissibility")


def test_tampered_penalty_fails_component_check():
    sm, combined = _sample_combined()
    comps = list(combined.components)
    comp, lam = comps[0]
    worse = CertComponent(kind=comp.kind, nodes=comp.nodes, loads=dict(comp.loads),
                          penalty=comp.penalty * 2)
    comps[0] = (worse, lam)
    total = sum((c.penalty * l for c, l in comps), F(0))
    bad = CombinedCertificate(components=tuple(comps), bound=trivial_upper_bound(sm) - total)
    ok, why = verify_certificate(bad, sm)
    assert not ok
    assert why.startswith("component-penalty")


def test_tampered_bound_fails_arithmetic():
    sm, combined = _sample_combined()
    bad = CombinedCertificate(components=combined.components, bound=combined.bound - F(1, 1000))
    ok, why = verify_certificate(bad, sm)
    assert not ok
    assert why.startswith("bound-arithmetic")


def test_document_round_trip():
    net = build_network([("a", "b", 1), ("b", "c", 1)])
    doc = certify(net, method="chains")
    text = doc.dumps()
    back = CertificateDocument.loads(text)
    assert back == doc
    assert back.dumps() == text


def test_document_rejects_unknown_version():
    net = build_network([("a", "b", 1)])
    doc = certify(net, method="chains")
    data = doc.to_json_dict()
    data["format_version"] = 99
    with pytest.raises(ValueError, match="format"):
        CertificateDocument.from_json_dict(data)


def test_document_certificate_verifies_after_round_trip():
    net = random_network(9, n=7)
    sm = score_matrix(net)
    doc = certify(net, method="both", max_subnet_size=4)
    back = CertificateDocument.loads(doc.dumps())
    cert = document_to_certificate(back, net)
    ok, why = verify_certificate(cert, sm)
    assert ok, why


def _path_document():
    net = build_network([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)])
    return net, score_matrix(net), certify(net, method="chains")


def test_document_claims_verify():
    net, sm, doc = _path_document()
    cert = document_to_certificate(doc, net)
    assert cert.achieved.modularity == doc.achieved_modularity
    ok, why = verify_certificate(cert, sm)
    assert ok, why


@pytest.mark.parametrize("mutate,violation", [
    (lambda d: setattr(d, "achieved_modularity", d.achieved_modularity - F(1, 1000)),
     "achieved-mismatch"),
    (lambda d: setattr(d, "gap", d.gap + F(1, 1000)), "bound-arithmetic: gap"),
    (lambda d: setattr(d, "status", "gap" if d.status == "optimal-proved" else "optimal-proved"),
     "status-mismatch"),
])
def test_mutated_document_claim_fails(mutate, violation):
    net, sm, doc = _path_document()
    mutate(doc)
    ok, why = verify_certificate(document_to_certificate(doc, net), sm)
    assert not ok
    assert why.startswith(violation)


@pytest.mark.parametrize("communities,message", [
    ([["a", "b"], ["c", "x"]], "unknown node label"),
    ([["a", "b"], ["b", "c", "d"]], "listed twice"),
    ([["a", "b"], ["c"]], "not listed"),
])
def test_bad_achieved_listing_is_malformed(communities, message):
    net, _, doc = _path_document()
    doc.achieved_communities = communities
    with pytest.raises(ValueError, match=message):
        document_to_certificate(doc, net)


def _imported_modules(module) -> set[str]:
    """Absolute names of everything a module's source imports."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "modcert" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module,builders", [
    (modcert.verify, {"modcert.chains", "modcert.lp"}),
    (modcert.document, {"modcert.chains"}),
], ids=["verify", "document"])
def test_checker_imports_no_builder(module, builders):
    assert not _imported_modules(module) & builders
