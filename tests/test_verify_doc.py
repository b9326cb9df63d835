import ast
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

import modcert.document
import modcert.lp
import modcert.verify
from conftest import certificate_mutants, component, fraction_verify, lattice, random_network
from modcert.cli import main
from modcert.chains import greedy_certify
from modcert.datasets import load_network
from modcert.document import (
    CertificateDocument,
    build_document,
    deserialize_component,
    document_to_certificate,
    frac_str,
    network_fingerprint,
    parse_frac,
)
from modcert.edgelist import parse_edge_list
from modcert.graph import build_network
from modcert.lp import CertComponent, CombinedCertificate, combine
from modcert.pipeline import certify
from modcert.scores import chain_loads, score_matrix, trivial_upper_bound
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
    # the same network listed in another order numbers its nodes differently
    square = [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1), ("a", "c", 2)]
    r1 = build_network(square)
    r2 = build_network([square[i] for i in (2, 4, 3, 1, 0)])
    assert r1.node_labels != r2.node_labels
    assert network_fingerprint(r1) == network_fingerprint(r2)
    for directed in (False, True):
        assert (network_fingerprint(build_network(square, directed=directed))
                == network_fingerprint(build_network(square[::-1], directed=directed)))


MIXED_EDGES = "a b 1/2\nb c 3\nc a 0.25\nc d 1\nd e 2/3\ne c 1\na a 1\nd b 5/4\n"


@pytest.mark.parametrize("net, nodes, edges, sha256", [
    (lambda: load_network("karate"), 34, 156,
     "8b2d6f19834b59103c828ccd6d8fa768fd01f20a99e1daa40c36d20dc0564b4f"),
    (lambda: load_network("knoki"), 10, 49,
     "f2d8cb48275269c23e601a2448277965ac196d9321829064cf8cb4b34dc69fbc"),
    (lambda: load_network("knokm"), 10, 22,
     "619df32af4c414012caf439946508c6064de696ec26256c22991da956ec99aab"),
    (lambda: parse_edge_list(MIXED_EDGES, directed=True), 5, 8,
     "6953f2b809afbf8a50e2927a66401537a9e300fcefb00ca39086c053fce5a48f"),
    # a-b listed twice (weights summed to 4) and a self-loop on c
    (lambda: parse_edge_list("a b\nb c 2\nb a 3\nc c\nc d 1/2\n"), 4, 7,
     "93b446f1315297b8601b21cc0c5a9cbf74160fb3caa093070f25de4595784949"),
], ids=["karate", "knoki", "knokm", "mixed", "duplicate-and-loop"])
def test_fingerprint_pinned(net, nodes, edges, sha256):
    """Every certificate already written names its network by this hash."""
    assert network_fingerprint(net()) == {"nodes": nodes, "edges": edges, "sha256": sha256}


def test_chain_certificate_verifies():
    """The greedy pass's certificate is checked as it is returned."""
    nets = [load_network(name) for name in ("karate", "knoki", "knokm")]
    for net in nets + [random_network(seed, n=7) for seed in range(10)]:
        sm = score_matrix(net)
        cert, _ = greedy_certify(sm)
        assert verify_certificate(cert, sm) == (True, None)


def test_combined_certificate_verifies():
    sm = score_matrix(random_network(4, n=7))
    cert, _ = greedy_certify(sm)
    combined = combine([comp for comp, _ in cert.components], sm)
    ok, why = verify_certificate(combined, sm)
    assert ok, why


def _sample_combined(seed=4):
    sm = score_matrix(random_network(seed, n=7))
    cert, _ = greedy_certify(sm)
    return sm, combine([comp for comp, _ in cert.components], sm)


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
    worse = CertComponent(nodes=comp.nodes, loads=dict(comp.loads), penalty=comp.penalty * 2, den=comp.den)
    comps[0] = (worse, lam)
    total = sum((F(c.penalty, c.den) * l for c, l in comps), F(0))
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


def _c5_gap_document():
    net = build_network([(str(i), str((i + 1) % 5), 1) for i in range(5)])
    doc = certify(net, method="chains")
    assert doc.status == "gap"
    return net, score_matrix(net), doc


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
    (lambda d: setattr(d, "status", "whatever"), "status-mismatch: status 'whatever'"),
])
def test_mutated_document_claim_fails(mutate, violation):
    for net, sm, doc in (_path_document(), _c5_gap_document()):
        mutate(doc)
        ok, why = verify_certificate(document_to_certificate(doc, net), sm)
        assert not ok
        assert why.startswith(violation)


def test_chain_shaped_subnetwork_written_as_chain():
    # the path's one subnetwork reduces to +1/8 along a, b, c and -1/8 on (a, c)
    net = build_network([("a", "b", 1), ("b", "c", 1)])
    doc = certify(net, method="subnets", max_subnet_size=3)
    [entry] = doc.components
    assert entry["kind"] == "chain"
    assert "scores" not in entry
    # the same component in the subnetwork form, which earlier writers emitted
    old = dict(entry, kind="subnetwork",
               scores=[["a", "b", "1/8"], ["a", "c", "-1/8"], ["b", "c", "1/8"]])
    labels = net.label_index()
    assert deserialize_component(old, labels) == deserialize_component(entry, labels)
    doc.components = [old]
    back = CertificateDocument.loads(doc.dumps())
    ok, why = verify_certificate(document_to_certificate(back, net), score_matrix(net))
    assert ok, why


@pytest.mark.parametrize("nodes,extra,penalty", [
    ((0, 1, 2), {}, F(1, 16)),  # the min rule proves it
    ((0, 1, 2, 3), {(0, 2): F(-1, 16)}, F(1, 16)),  # an extra load keeps it
    ((0, 2, 1), {}, F(1, 16)),  # the min rule fails on this order, enumeration proves it
    ((0, 1, 2), {}, F(1, 8)),  # neither proves twice the chain's penalty
], ids=["min-rule", "extra-load", "exhaustive", "unproven"])
def test_component_penalty_min_rule_then_exhaustive(nodes, extra, penalty):
    # path a-b-c-d-e: positive scores along it, negative ones across it
    net = build_network([(x, y, 1) for x, y in zip("abcd", "bcde")])
    sm = score_matrix(net)
    chain = sorted(nodes)
    comp = component(nodes, {**chain_loads(chain, F(1, 16)), **extra}, penalty)
    cert = CombinedCertificate(components=((comp, F(1)),), bound=trivial_upper_bound(sm) - penalty)
    ok, why = verify_certificate(cert, sm)
    if penalty == F(1, 16):
        assert ok, why
    else:
        assert not ok
        assert why == f"component-penalty: component 0 on nodes {nodes} does not prove penalty 1/8"


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
    (modcert.verify, {"modcert.chains", "modcert.lp", "modcert.scores"}),
    (modcert.document, {"modcert.chains"}),
    (modcert.lp, {"modcert.chains", "modcert.subnets"}),
], ids=["verify", "document", "lp"])
def test_checker_imports_no_builder(module, builders):
    assert not _imported_modules(module) & builders


def _bench_networks(workdir):
    """The benchmark's 44 networks with their certify options: the corpus at
    both/6, karate at subnets/4 with budget 600, and the 40 planted networks
    written by `modcert gen` and parsed back, at both/4 with budget 30000."""
    out = [(load_network(name), {"method": "both", "max_subnet_size": 6})
           for name in ("karate", "knoki", "knokm")]
    out.append((load_network("karate"),
                {"method": "subnets", "max_subnet_size": 4, "subnet_budget": 600}))
    sizes = range(24, 36)
    for i in range(40):
        n = sizes[i % len(sizes)]
        path = workdir / f"planted-{i:02d}.edges"
        assert main(["gen", "--n", str(n), "--communities", str(max(2, round(n / 12))),
                     "--p-in", "0.9", "--p-out", "0.05", "--seed", str(i), "-o", str(path)]) == 0
        out.append((parse_edge_list(path.read_text()),
                    {"method": "both", "max_subnet_size": 4, "subnet_budget": 30000}))
    return out


def test_integer_checks_match_fraction_oracle_on_bench_certificates(tmp_path):
    """The 44 seed-0 bench certificates and their one-edit mutants get the
    Fraction oracle's verdict and message."""
    mutants = 0
    verdicts = set()
    for net, options in _bench_networks(tmp_path):
        sm = score_matrix(net)
        doc = certify(net, seed=0, **options)
        cert = document_to_certificate(doc, net)
        assert verify_certificate(cert, sm) == fraction_verify(cert, sm) == (True, None)
        for mutant in certificate_mutants(cert):
            got = verify_certificate(mutant, sm)
            assert got == fraction_verify(mutant, sm)
            verdicts.add(got[1].split(":")[0] if got[1] else None)
            mutants += 1
    assert mutants > 1000
    assert {"permissibility", "component-penalty", "bound-arithmetic"} <= verdicts


def _unreduced(text: str) -> str:
    """Every rational "a/b" in a document's text written as "ka/kb", k cycling through 2, 3 and 7."""
    factors = itertools.cycle((2, 3, 7))

    def scale(m):
        k = next(factors)
        return f'"{k * int(m[1])}/{k * int(m[2])}"'
    return re.sub(r'"(-?[0-9]+)/([0-9]+)"', scale, text)


def test_unreduced_rationals_verify_as_their_reduced_twin():
    """A document read back from unreduced rationals gets its reduced twin's
    verdict and message, passing or failing, where one subnetwork's loads are
    on different denominators."""
    net = load_network("karate")
    sm = score_matrix(net)
    data = json.loads(certify(net, method="subnets", max_subnet_size=4, subnet_budget=450).dumps())
    mixed = next(c for c in data["components"]
                 if len({parse_frac(v).denominator for _, _, v in c.get("scores", [])}) > 1)
    tampered = json.loads(json.dumps(data))
    tampered["components"][data["components"].index(mixed)]["scores"][0][2] = "1/1"
    verdicts = []
    for reduced in (data, tampered):
        text = json.dumps(reduced)
        twin = _unreduced(text)
        assert twin != text
        got = [verify_certificate(document_to_certificate(CertificateDocument.loads(t), net), sm)
               for t in (text, twin)]
        assert got[0] == got[1]
        verdicts.append(got[0])
    assert verdicts[0] == (True, None) and verdicts[1][1].startswith("permissibility")


def _chain(penalty, nodes=(0, 1, 2)):
    return component(nodes, chain_loads(nodes, penalty), penalty)


def _with_load(pair, value):
    # the path 0-1-2 at penalty 1/8 plus one more load, on nodes 0 to 3
    return component((0, 1, 2, 3), {**chain_loads((0, 1, 2), F(1, 8)), pair: value}, F(1, 8))


@pytest.mark.parametrize("components,why", [
    # lambda 7/6 and penalty 3/28 load (0, 2) with 1/8: its capacity over
    # the common denominators 6 and 56
    ([(_chain(F(3, 28)), F(7, 6))], None),
    ([(_chain(F(3, 28)), F(7, 6)), (_chain(F(1, 56)), F(1, 6))],
     "permissibility: pair (0, 2) carries load 43/336 over capacity 1/8"),
    ([(_with_load((0, 3), F(0)), F(1))], None),
    ([(component((0, 1, 2), {**chain_loads((0, 1, 2), F(1, 8)), (0, 3): F(0)}, F(1, 8)), F(1))],
     "component-penalty: component 0 on nodes (0, 1, 2) has a load outside its node pairs"),
    ([(_with_load((0, 3), F(-1, 16)), F(1))],
     "permissibility: pair (0, 3) carries load 1/16 over capacity 0"),
    ([(_with_load((1, 1), F(1, 8)), F(1))],
     "permissibility: pair (1, 1) carries load 1/8 over capacity 0"),
    ([(_with_load((2, 0), F(1, 8)), F(1))],
     "permissibility: load on pair (0, 2) has sign + against score -1/8"),
    ([(_chain(F(1, 24)), F(3))], None),
    ([(_chain(F(1, 7)), F(1))], "permissibility: pair (0, 2) carries load 1/7 over capacity 1/8"),
], ids=["at-capacity", "one-unit-over", "zero-load-on-zero-score", "load-outside-nodes", "load-on-zero-score",
        "diagonal-pair", "sign-on-reversed-pair", "load-den-not-dividing-den", "over-by-a-seventh"])
def test_integer_comparison_at_the_boundary(components, why):
    # scores 1/4 on (0, 1) and (1, 2), -1/8 on (0, 2) and 0 on the rest, over den 8
    sm = lattice(4, {(0, 1): F(1, 4), (1, 2): F(1, 4), (0, 2): F(-1, 8)})
    bound = trivial_upper_bound(sm) - sum((lam * F(comp.penalty, comp.den) for comp, lam in components), F(0))
    cert = CombinedCertificate(components=tuple(components), bound=bound)
    assert verify_certificate(cert, sm) == fraction_verify(cert, sm) == (why is None, why)


def test_min_rule_at_equality_past_enumeration():
    """A 13-node chain is past exhaustive re-proof: the min rule alone proves
    a penalty equal to its smallest load."""
    sm = lattice(13, {**{(a, a + 1): F(1, 8) for a in range(12)}, (0, 12): F(-1, 4)})
    chain = _chain(F(1, 8), tuple(range(13)))
    cert = CombinedCertificate(components=((chain, F(1)),), bound=trivial_upper_bound(sm) - F(1, 8))
    assert verify_certificate(cert, sm) == fraction_verify(cert, sm) == (True, None)


def test_non_chain_component_past_enumeration_refused():
    """The same 13-node chain's loads and true penalty, its nodes listed out
    of chain order: the min rule fails on that order, and 13 nodes are past
    exhaustive re-proof, so the component is refused."""
    sm = lattice(13, {**{(a, a + 1): F(1, 8) for a in range(12)}, (0, 12): F(-1, 4)})
    nodes = (1, 0, *range(2, 13))
    comp = component(nodes, chain_loads(tuple(range(13)), F(1, 8)), F(1, 8))
    cert = CombinedCertificate(components=((comp, F(1)),), bound=trivial_upper_bound(sm) - F(1, 8))
    why = f"component-penalty: component 0 on nodes {nodes} does not prove penalty 1/8"
    assert verify_certificate(cert, sm) == fraction_verify(cert, sm) == (False, why)


def _primes_above(low, count):
    out = []
    p = low + 1
    while len(out) < count:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            out.append(p)
        p += 1
    return out


def test_lambdas_on_sixty_distinct_prime_denominators():
    """The common denominator of 60 multipliers over distinct primes above 10**6
    runs past 360 digits; the check still agrees with the oracle."""
    net = load_network("karate")
    sm = score_matrix(net)
    cert = document_to_certificate(certify(net, method="chains"), net)
    primes = _primes_above(10**6, 60)
    # each of the first 60 multipliers down to the next multiple of 1/p below it
    comps = [(comp, F(math.ceil(lam * p) - 1, p)) for (comp, lam), p in zip(cert.components, primes)]
    comps += cert.components[len(primes):]
    bound = trivial_upper_bound(sm) - sum((lam * F(comp.penalty, comp.den) for comp, lam in comps), F(0))
    floored = CombinedCertificate(components=tuple(comps), bound=bound)
    assert math.lcm(*(lam.denominator for _, lam in comps)) > 10**360
    assert verify_certificate(floored, sm) == fraction_verify(floored, sm) == (True, None)
