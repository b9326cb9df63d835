"""Certificate documents: a lossless, human-diffable JSON serialization.

Every rational is written as an explicit "numerator/denominator" string so a
parsed document reproduces the exact values; a certificate whose meaning
depended on float parsing would not be a proof.
A component whose loads are `chain_loads(nodes, penalty)` is written as a
"chain" entry without its loads, any other as a "subnetwork" with "scores".
A component's integers over its den become rationals only here, written in
lowest terms, and a parsed component is put on the lcm of its denominators.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .graph import Network
from .lp import CertComponent, CombinedCertificate
from .scores import Partition, chain_loads, pair_key

FORMAT_VERSION = 2  # 2: the fingerprint hashes edge lines in sorted order


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # what frac_str writes; int() alone takes " 1", "+3", "1_0"


def parse_frac(s: str) -> Fraction:
    """Parse "num/den" or "num" in ASCII digits; ValueError on anything else, a zero denominator included."""
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise ValueError(f"rational must be a string num/den, got {s!r}")
    num, _, den = s.partition("/")
    if den and not int(den):
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), int(den or 1))


def _json_list(value, what: str, length: int | None = None) -> list:
    """value if it is a list (of exactly length items, when given); ValueError otherwise."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        kind = "a list" if length is None else f"a list of {length} items"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value


def network_fingerprint(net: Network) -> dict:
    """Stable identity of a network: counts plus a hash of its canonical form.

    The edge lines are hashed in sorted order, so the fingerprint does not
    depend on the order the edges were listed in, which sets the node ids.
    """
    labels = net.node_labels
    edges = sorted(f"{labels[a]}\t{labels[b]}\t{frac_str(w)}" for (a, b), w in net.edges.items())
    blob = "\n".join([f"directed={int(net.directed)}", *edges]).encode()
    return {
        "nodes": net.n,
        "edges": len(net.edges),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


@dataclass
class CertificateDocument:
    fingerprint: dict
    achieved_communities: list[list[str]]
    achieved_modularity: Fraction
    bound: Fraction
    components: list[dict]  # serialized form, labels not ids
    status: str
    gap: Fraction
    provenance: dict

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "network": dict(self.fingerprint),
            "achieved": {
                "communities": [list(c) for c in self.achieved_communities],
                "modularity": frac_str(self.achieved_modularity),
            },
            "bound": frac_str(self.bound),
            "components": [dict(c) for c in self.components],
            "status": self.status,
            "gap": frac_str(self.gap),
            "provenance": dict(self.provenance),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "CertificateDocument":
        if not isinstance(data, dict):
            raise ValueError("certificate must be a JSON object")
        version = data.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:  # a JSON true is not 1
            raise ValueError(f"unsupported certificate format: {version!r}")
        for field, kind, name in (("status", str, "a string"), ("network", dict, "an object"),
                                  ("provenance", dict, "an object"), ("achieved", dict, "an object")):
            if not isinstance(data[field], kind):
                raise ValueError(f"{field} must be {name}, got {data[field]!r}")
        components = _json_list(data["components"], "components")
        for c in components:
            if not isinstance(c, dict):  # dict() would read a list of [key, value] pairs
                raise ValueError(f"component must be an object, got {c!r}")
        return cls(
            fingerprint=dict(data["network"]),
            achieved_communities=[
                list(_json_list(c, "achieved community"))
                for c in _json_list(data["achieved"]["communities"], "achieved communities")
            ],
            achieved_modularity=parse_frac(data["achieved"]["modularity"]),
            bound=parse_frac(data["bound"]),
            components=[dict(c) for c in components],
            status=data["status"],
            gap=parse_frac(data["gap"]),
            provenance=dict(data["provenance"]),
        )

    @classmethod
    def loads(cls, text: str) -> "CertificateDocument":
        try:
            data = json.loads(text)
        except RecursionError:  # json's decoder recurses once per nested array or object
            raise ValueError("certificate nests arrays or objects too deeply") from None
        return cls.from_json_dict(data)


def serialize_component(comp: CertComponent, lam: Fraction, labels) -> dict:
    chain = comp.loads == chain_loads(comp.nodes, comp.penalty)
    entry = {
        "kind": "chain" if chain else "subnetwork",
        "nodes": [labels[v] for v in comp.nodes],
        "penalty": frac_str(Fraction(comp.penalty, comp.den)),
        "lambda": frac_str(lam),
    }
    if not chain:
        entry["scores"] = [
            [labels[a], labels[b], frac_str(Fraction(v, comp.den))] for (a, b), v in sorted(comp.loads.items())
        ]
    return entry


def _node_id(lab, label_to_id: dict) -> int:
    if lab not in label_to_id:
        raise ValueError(f"unknown node label {lab!r}")
    return label_to_id[lab]


def deserialize_component(entry: dict, label_to_id: dict) -> tuple[CertComponent, Fraction]:
    nodes = tuple(_node_id(lab, label_to_id) for lab in _json_list(entry["nodes"], "component nodes"))
    if not nodes:
        raise ValueError("component lists no nodes")
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"component lists a node twice: {entry['nodes']!r}")
    lam = parse_frac(entry["lambda"])
    penalty = parse_frac(entry["penalty"])
    if entry["kind"] == "chain":
        if len(nodes) < 3:  # chain_loads would overwrite the one pair of a 2-node chain
            raise ValueError(f"chain component lists {len(nodes)} node(s), fewer than 3")
        p = penalty.numerator
        return CertComponent(nodes, chain_loads(nodes, p), p, penalty.denominator), lam
    if entry["kind"] != "subnetwork":
        raise ValueError(f"unknown component kind: {entry['kind']!r}")
    loads = {}
    for score in _json_list(entry["scores"], "subnetwork scores"):
        la, lb, val = _json_list(score, "subnetwork score entry", 3)
        a, b = _node_id(la, label_to_id), _node_id(lb, label_to_id)
        if a == b:
            raise ValueError(f"subnetwork component pairs node {la!r} with itself")
        key = pair_key(a, b)
        if key in loads:
            raise ValueError(f"subnetwork component lists pair ({la}, {lb}) twice")
        loads[key] = parse_frac(val)
    den = math.lcm(penalty.denominator, *(v.denominator for v in loads.values()))
    return CertComponent(nodes, {q: v.numerator * (den // v.denominator) for q, v in loads.items()},
                         penalty.numerator * (den // penalty.denominator), den), lam


def build_document(
    net: Network, achieved: Partition, cert: CombinedCertificate, provenance: dict
) -> CertificateDocument:
    """The document of a bound on net: optimal-proved when it meets the achieved modularity."""
    labels = net.node_labels
    communities = [[labels[v] for v in group] for group in achieved.communities()]
    return CertificateDocument(
        fingerprint=network_fingerprint(net),
        achieved_communities=communities,
        achieved_modularity=achieved.modularity,
        bound=cert.bound,
        components=[
            serialize_component(comp, lam, labels) for comp, lam in cert.components if lam != 0
        ],
        status="optimal-proved" if cert.bound == achieved.modularity else "gap",
        gap=cert.bound - achieved.modularity,
        provenance=provenance,
    )


def _claimed_partition(doc: CertificateDocument, label_to_id: dict) -> Partition:
    """The achieved listing as a partition; ValueError unless it lists every
    node once, in communities that are not empty."""
    assignment: list[int | None] = [None] * len(label_to_id)
    for ci, community in enumerate(doc.achieved_communities):
        if not community:
            raise ValueError(f"achieved listing: community {ci} is empty")
        for lab in community:
            v = _node_id(lab, label_to_id)
            if assignment[v] is not None:
                raise ValueError(f"achieved listing: node {lab!r} listed twice")
            assignment[v] = ci
    if None in assignment:
        raise ValueError(f"achieved listing: {assignment.count(None)} node(s) not listed")
    return Partition(assignment=tuple(assignment), modularity=doc.achieved_modularity)


def document_to_certificate(doc: CertificateDocument, net: Network) -> CombinedCertificate:
    """Rebuild a verifiable certificate object, document-level claims included."""
    label_to_id = net.label_index()
    return CombinedCertificate(
        components=tuple(deserialize_component(entry, label_to_id) for entry in doc.components),
        bound=doc.bound,
        achieved=_claimed_partition(doc, label_to_id),
        gap=doc.gap,
        status=doc.status,
    )
