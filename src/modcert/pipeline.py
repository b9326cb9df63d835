"""End-to-end certification: optimize, bound, tighten, emit, self-verify."""

from __future__ import annotations

from fractions import Fraction

from . import __version__ as _version
# certify calls each stage through this module's own names, because
# perfbench/run.py's WRAPS patches them here (pipeline.optimize,
# pipeline.chain_bound, pipeline.combine and the other stage names) and its
# warm-up imports modcert.LinearProgram and modcert.solve_lp: renaming or
# inlining any of them crashes the traced benchmark gates.
from .chains import DEFAULT_PATH_BUDGET, chain_component, find_penalized_chains, greedy_certify
from .document import CertificateDocument, build_document, document_to_certificate, frac_str
from .graph import Network
from .lp import CertComponent, CombinedCertificate, combine
from .optimizer import optimize
from .scores import score_matrix, trivial_upper_bound
from .subnets import Subnetwork, enumerate_subnetworks, partial_brute_force, reduce_weights
from .verify import MAX_EXHAUSTIVE_NODES, verify_certificate

METHODS = ("chains", "subnets", "both")
POOL_CHAIN_LENGTH = 4  # chain_bound pools penalized chains of 3..this many nodes


class CertificationError(RuntimeError):
    """Emitted certificate failed its own verification (internal bug guard)."""


def chain_bound(
    sm, achieved: Fraction, path_budget: int = DEFAULT_PATH_BUDGET
) -> tuple[CombinedCertificate, CombinedCertificate, bool]:
    """Chain-based bound: greedy accumulation plus exact re-weighting.

    The greedy pass reduces a copy of sm chain by chain, with unit
    multipliers. If a gap remains, the chains it found are pooled with every
    penalized chain of sm itself of 3 to POOL_CHAIN_LENGTH nodes and the
    multipliers re-optimized exactly (`_tighten`). Returns (greedy,
    tightened, truncated); a path budget that runs out weakens the bound
    and sets truncated.
    """
    if path_budget < 0:
        raise ValueError("path_budget must be >= 0")
    greedy, truncated = greedy_certify(sm, path_budget=path_budget)

    def stages():
        nonlocal truncated
        for k in range(3, POOL_CHAIN_LENGTH + 1):
            chains, cut = find_penalized_chains(sm, k, path_budget)
            truncated |= cut
            yield [chain_component(sm, nodes) for nodes in chains]

    tightened = _tighten(sm, greedy, stages(), achieved)
    return greedy, tightened, truncated


def _tighten(sm, best: CombinedCertificate, stages, achieved) -> CombinedCertificate:
    """Pool each stage's unseen components and keep each strictly tighter combination.

    best is the starting certificate and its components seed the pool;
    stages yields lists of components. The next stage is pulled only while
    the bound is not achieved. Returns the tightest certificate found.
    """
    pool = None
    while best.bound != achieved:
        found = next(stages, None)
        if found is None:
            break
        if pool is None:  # built on the first pull: a bound proved up front never keys it
            pool = [comp for comp, _ in best.components]
            seen = {comp.dedupe_key() for comp in pool}
        pooled = len(pool)
        for comp in found:
            key = comp.dedupe_key()
            if key not in seen:
                seen.add(key)
                pool.append(comp)
        if len(pool) > pooled:
            combined = combine(pool, sm)
            if combined.bound < best.bound:
                best = combined
    return best


def _resolve_and_reduce(sub: Subnetwork, shapes: dict) -> CertComponent:
    """An enumerated subnetwork's reduced component.

    shapes maps a shape (the rows of the subnetwork's lattice, all on the
    run's one denominator) to its (penalty, reduced lattice). Resolution and
    reduction read positions only, so each shape is resolved and reduced once
    and a repeat gets what a fresh run would give. The penalty is an integer
    over sub's den, positive since enumeration emits only subnetworks that
    carry one; the component puts it on the reduced lattice's den, a
    multiple of sub's.
    """
    shape = tuple(map(tuple, sub.lattice.S))
    if shape not in shapes:
        resolved = partial_brute_force(sub)
        shapes[shape] = (resolved.penalty, reduce_weights(resolved).lattice)
    p, reduced = shapes[shape]
    return CertComponent(sub.nodes, Subnetwork(sub.nodes, reduced).loads(),
                         p * (reduced.den // sub.lattice.den), reduced.den)


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
            found.append(_resolve_and_reduce(sub, shapes))
        provenance["subnetworks_examined"] = spent
        yield found
        if provenance.get("subnet_budget_exhausted"):
            return


def _search_and_chain(sm, *, seed: int, path_budget: int, restarts: int = 8, chains: bool = True):
    """The partition to certify and its bound so far: restart 0 first, every restart only if unproven.

    Restart 0 (one all-in-one community, the same for every seed) runs
    first, and with chains the chain stage takes its modularity as the
    target. Only if the bound (the chain bound, else the trivial one) does
    not equal it does the full search of `restarts` restarts run, restart 0
    again included. The chain certificate stays valid for that search's
    result: `_tighten` keeps the first certificate that reaches its running
    minimum, so it returns the same one for any target at or below the
    value finally achieved. Returns (achieved, greedy, best, truncated),
    with greedy None and truncated False without chains.
    """
    achieved = optimize(sm, seed=seed, restarts=1)
    greedy, truncated = None, False
    if chains:
        greedy, best, truncated = chain_bound(sm, achieved=achieved.modularity, path_budget=path_budget)
    else:
        best = CombinedCertificate(components=(), bound=trivial_upper_bound(sm))
    if best.bound != achieved.modularity:
        achieved = optimize(sm, seed=seed, restarts=restarts)
    return achieved, greedy, best, truncated


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

    Runs restart 0 of the partition search, then the chain certifier. Only
    if that does not prove restart 0's partition optimal does the search
    run all `restarts` restarts (a ceiling, not a count), and then, if a gap
    remains and the method allows, small subnetworks are resolved and all
    multipliers re-optimized by LP. When several partitions reach a proven
    optimum, the one reported is restart 0's. Budget exhaustion weakens the
    bound but never its validity, and provenance records it. The emitted
    document is verified before return.
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
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    sm = score_matrix(net)
    achieved, greedy, best, truncated = _search_and_chain(
        sm, seed=seed, restarts=restarts, path_budget=path_budget, chains=method != "subnets")

    provenance = {
        "tool": f"modcert {_version}",
        "method": method,
        "seed": seed,
        "restarts": restarts,
        "max_subnet_size": max_subnet_size if method != "chains" else None,
    }

    if greedy is not None:
        provenance["greedy_chain_bound"] = frac_str(greedy.bound)
        if truncated:
            provenance["path_budget_exhausted"] = True

    if method in ("subnets", "both"):
        stages = _subnet_stages(sm, max_subnet_size, subnet_budget, provenance)
        best = _tighten(sm, best, stages, achieved.modularity)

    doc = build_document(net=net, achieved=achieved, cert=best, provenance=provenance)
    ok, why = verify_certificate(document_to_certificate(doc, net), sm)
    if not ok:
        raise CertificationError(f"emitted certificate failed verification: {why}")
    return doc
