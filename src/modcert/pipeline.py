"""End-to-end certification: optimize, bound, tighten, emit, self-verify."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import __version__ as _version
from .chains import DEFAULT_PATH_BUDGET, chain_component, find_penalized_chains, greedy_certify
from .document import CertificateDocument, build_document, document_to_certificate, frac_str
from .graph import Network
from .lp import CertComponent, combine
from .optimizer import OptimizerConfig, optimize
from .scores import score_matrix, trivial_upper_bound
from .subnets import Subnetwork, enumerate_subnetworks, partial_brute_force, reduce_weights
from .verify import MAX_EXHAUSTIVE_NODES, verify_certificate

METHODS = ("chains", "subnets", "both")
POOL_CHAIN_LENGTH = 4  # chain_bound pools penalized chains of 3..this many nodes


class CertificationError(RuntimeError):
    """Emitted certificate failed its own verification (internal bug guard)."""


@dataclass
class BoundResult:
    components: list[tuple[CertComponent, Fraction]]  # (component, lambda)
    bound: Fraction
    greedy_bound: Fraction
    chains_applied: int
    truncated: bool  # the path budget cut some chain enumeration short


def chain_bound(
    sm, achieved: Fraction | None = None, path_budget: int = DEFAULT_PATH_BUDGET
) -> BoundResult:
    """Chain-based bound: greedy accumulation plus exact re-weighting.

    The greedy pass reduces a copy of sm chain by chain, with unit
    multipliers. If a gap remains, the chains it found are pooled with every
    penalized chain of sm itself of 3 to POOL_CHAIN_LENGTH nodes and the
    multipliers re-optimized exactly (`_tighten`). A path budget that runs
    out weakens the bound and sets `truncated`.
    """
    if path_budget < 0:
        raise ValueError("path_budget must be >= 0")
    cert = greedy_certify(sm, path_budget=path_budget)
    result = BoundResult(
        components=[(comp, Fraction(1)) for comp in cert.chains],
        bound=cert.bound,
        greedy_bound=cert.bound,
        chains_applied=len(cert.chains),
        truncated=cert.truncated,
    )

    def stages():
        for k in range(3, POOL_CHAIN_LENGTH + 1):
            chains, truncated = find_penalized_chains(sm, k, path_budget)
            result.truncated |= truncated
            yield [chain_component(sm, nodes) for nodes in chains]

    best = (result.components, result.bound)
    result.components, result.bound = _tighten(sm, best, stages(), achieved)
    return result


def _tighten(sm, best, stages, achieved):
    """Pool each stage's unseen components and keep each strictly tighter combination.

    best is the starting (components, bound) and seeds the pool; stages yields
    lists of components. The next stage is pulled only while the bound is not
    achieved (None: run every stage). Returns the final (components, bound).
    """
    pool = None
    while achieved is None or best[1] != achieved:
        found = next(stages, None)
        if found is None:
            break
        if pool is None:  # built on the first pull: a bound proved up front never keys it
            pool = [comp for comp, _ in best[0]]
            seen = {comp.dedupe_key() for comp in pool}
        pooled = len(pool)
        for comp in found:
            key = comp.dedupe_key()
            if key not in seen:
                seen.add(key)
                pool.append(comp)
        if len(pool) > pooled:
            combined = combine(pool, sm)
            if combined.bound < best[1]:
                best = (list(combined.components), combined.bound)
    return best


def _resolve_and_reduce(sub: Subnetwork, shapes: dict) -> CertComponent | None:
    """A subnetwork's reduced component, None if it has no penalty.

    shapes maps a shape (the rows of the subnetwork's lattice, all on the
    run's one denominator) to its (penalty, reduced lattice). Resolution and
    reduction read positions only, so each shape is resolved and reduced once
    and a repeat gets what a fresh run would give.
    """
    shape = tuple(map(tuple, sub.lattice.S))
    if shape not in shapes:
        resolved = partial_brute_force(sub)
        reduced = reduce_weights(resolved).lattice if resolved.penalty > 0 else None
        shapes[shape] = (resolved.penalty, reduced)
    penalty, reduced = shapes[shape]
    if reduced is None:
        return None
    return CertComponent(sub.nodes, Subnetwork(sub.nodes, reduced).loads(), penalty)


def _subnet_stages(sm, max_subnet_size, subnet_budget, provenance):
    """One list of reduced subnetwork components per size, 3 to max_subnet_size.

    Every subnetwork examined counts against subnet_budget, and the stage it
    runs out in is the last; provenance records both before each stage.
    """
    shapes: dict = {}
    spent = 0
    for size in range(3, max_subnet_size + 1):
        found = []
        for sub in enumerate_subnetworks(sm, size):
            if subnet_budget is not None and spent >= subnet_budget:
                provenance["subnet_budget_exhausted"] = True
                break
            spent += 1
            comp = _resolve_and_reduce(sub, shapes)
            if comp is not None:
                found.append(comp)
        provenance["subnetworks_examined"] = spent
        yield found
        if provenance.get("subnet_budget_exhausted"):
            return


def certify(
    net: Network,
    method: str = "both",
    max_subnet_size: int = 6,
    seed: int = 0,
    restarts: int = 8,
    subnet_budget: int | None = None,
    path_budget: int = DEFAULT_PATH_BUDGET,
) -> CertificateDocument:
    """Produce a verified certificate document for a network.

    Runs the partition search, then the chain certifier, and, if a gap
    remains and the method allows, resolves small subnetworks and
    re-optimizes all multipliers by LP. Budget exhaustion weakens the bound
    but never its validity, and provenance records it. The emitted document
    is verified before return.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if method != "chains" and max_subnet_size < 3:
        raise ValueError("max_subnet_size must be >= 3")
    if method != "chains" and max_subnet_size > MAX_EXHAUSTIVE_NODES:
        raise ValueError(f"max_subnet_size must be <= {MAX_EXHAUSTIVE_NODES}")
    if subnet_budget is not None and subnet_budget < 0:
        raise ValueError("subnet_budget must be >= 0")
    if path_budget < 0:
        raise ValueError("path_budget must be >= 0")
    sm = score_matrix(net)
    achieved = optimize(sm, OptimizerConfig(seed=seed, restarts=restarts))

    provenance = {
        "tool": f"modcert {_version}",
        "method": method,
        "seed": seed,
        "restarts": restarts,
        "max_subnet_size": max_subnet_size if method != "chains" else None,
    }

    components: list[tuple[CertComponent, Fraction]] = []
    bound = trivial_upper_bound(sm)

    if method in ("chains", "both"):
        chain_result = chain_bound(sm, achieved=achieved.modularity, path_budget=path_budget)
        components = chain_result.components
        bound = chain_result.bound
        provenance["greedy_chain_bound"] = frac_str(chain_result.greedy_bound)
        if chain_result.truncated:
            provenance["path_budget_exhausted"] = True

    if method in ("subnets", "both"):
        stages = _subnet_stages(sm, max_subnet_size, subnet_budget, provenance)
        components, bound = _tighten(sm, (components, bound), stages, achieved.modularity)

    status = "optimal-proved" if bound == achieved.modularity else "gap"
    doc = build_document(
        net=net,
        achieved=achieved,
        components=components,
        bound=bound,
        status=status,
        provenance=provenance,
    )
    ok, why = verify_certificate(document_to_certificate(doc, net), sm)
    if not ok:
        raise CertificationError(f"emitted certificate failed verification: {why}")
    return doc
