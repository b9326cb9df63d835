"""modcert benchmark: certify and verify a fixed workload, with an optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 40 --trace 0

The harness imports modcert from ./src, builds the workload's networks from
the seed, then repeats passes (certify every network, write its JSON
certificate, run `modcert verify` on it in process) until --seconds have
passed. With --trace 0 it prints the end-to-end metrics: medians over
passes, with times divided by the machine's slowdown as measured by the
reference kernel in speed.py. With --trace 1 it alternates untraced and
traced passes and prints the per-layer metrics (unscaled) and a self-time
table by stage. The last line of standard output is one JSON object:
correct, attempted, failed, metrics.

Everything runs in this one process on one thread; BLAS/OpenMP pools are
pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
REFERENCE_REPEATS = 5  # reference kernel runs before each round of passes
MIN_VERIFY_S = 0.25  # verification measured per pass, in whole rounds

END_TO_END = {
    "certify_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cert_bytes": "bytes",
    "bound_ratio": "ratio",
}

def _count_truncated(tracer, result) -> None:
    tracer.count("chains.find_penalized_chains.results")
    if result[1]:
        tracer.count("chains.truncated")


def _count_resolved(tracer, result) -> None:
    tracer.count("subnets.partial_brute_force.results")
    if result is not None and result.penalty > 0:
        tracer.count("subnets.resolved")


# (module, attribute, span name, result hook, is a generator); attributes of
# modcert.pipeline are the bindings certify calls, the rest are looked up as
# module globals at call time by the code that calls them.
WRAPS = [
    ("pipeline", "score_matrix", "scores.score_matrix", None, False),
    ("pipeline", "optimize", "optimizer.optimize", None, False),
    ("pipeline", "trivial_upper_bound", "scores.trivial_upper_bound", None, False),
    ("pipeline", "chain_bound", "pipeline.chain_bound", None, False),
    ("pipeline", "greedy_certify", "chains.greedy_certify", None, False),
    ("pipeline", "find_penalized_chains", "chains.find_penalized_chains", _count_truncated, False),
    ("chains", "find_penalized_chains", "chains.find_penalized_chains", _count_truncated, False),
    ("pipeline", "combine", "lp.combine", None, False),
    ("pipeline", "enumerate_subnetworks", "subnets.enumerate_subnetworks", None, True),
    ("pipeline", "partial_brute_force", "subnets.partial_brute_force", _count_resolved, False),
    ("pipeline", "reduce_weights", "subnets.reduce_weights", None, False),
    ("pipeline", "build_document", "document.build_document", None, False),
    ("pipeline", "document_to_certificate", "document.document_to_certificate", None, False),
    ("pipeline", "verify_certificate", "verify.verify_certificate", None, False),
    ("lp", "linprog", "lp.linprog", None, False),
    ("lp", "solve_sparse_system", "lp.solve_sparse_system", None, False),
    ("lp", "exact_simplex", "lp.exact_simplex", None, False),
    ("lp", "minimize_totals_exact", "lp.minimize_totals_exact", None, False),
]
# spans the harness opens itself, around its own calls
HARNESS_SPANS = ("pipeline.certify", "document.dumps", "cli.verify")
LP_LEAVES = ("lp.linprog", "lp.solve_sparse_system", "lp.exact_simplex")
LP_OWNERS = frozenset({"lp.combine", "lp.minimize_totals_exact"})

# ROADMAP stage names -> per-layer self-time keys (LP leaves keyed by their owner)
STAGES = [
    ("optimize", ["optimizer.optimize"]),
    ("greedy chains", ["chains.greedy_certify"]),
    ("chain enumeration", ["chains.find_penalized_chains"]),
    ("combination LP: float solve", ["lp.linprog.combine"]),
    ("combination LP: exact recovery", ["lp.solve_sparse_system.combine"]),
    ("combination LP: exact-simplex fallback", ["lp.exact_simplex.combine"]),
    ("combination LP: bookkeeping", ["lp.combine"]),
    ("subnetwork enumeration", ["subnets.enumerate_subnetworks"]),
    ("partial brute force", ["subnets.partial_brute_force"]),
    ("weight reduction", ["subnets.reduce_weights", "lp.minimize_totals_exact",
                          "lp.linprog.minimize_totals_exact",
                          "lp.solve_sparse_system.minimize_totals_exact",
                          "lp.exact_simplex.minimize_totals_exact"]),
    ("self-verify", ["verify.verify_certificate", "document.document_to_certificate"]),
    ("scores and document", ["scores.score_matrix", "scores.trivial_upper_bound",
                             "document.build_document"]),
    ("orchestration", ["pipeline.certify", "pipeline.chain_bound"]),
]


def _per_layer_names() -> dict[str, str]:
    names: dict[str, str] = {}
    for span in [w[2] for w in WRAPS] + list(HARNESS_SPANS):
        names[f"{span}.self_s"] = "s"
        names[f"{span}.calls"] = "count"
    for leaf in LP_LEAVES:
        for owner in sorted(LP_OWNERS):
            names[f"{leaf}.{owner.split('.')[1]}.self_s"] = "s"
    names.update({
        "lp.combine.recovery_ratio": "ratio",
        "lp.reduce.recovery_ratio": "ratio",
        "chains.truncated": "count",
        "subnets.resolved_ratio": "ratio",
        "subnets.budget_exhausted": "count",
        "pipeline.proved_fraction": "ratio",
        "pipeline.bound_gap": "modularity",
        "pipeline.failed_fraction": "ratio",
        "trace.certify_s": "s",
        "trace.overhead_s": "s",
    })
    return names


PER_LAYER = _per_layer_names()


class BenchError(RuntimeError):
    """The benchmark cannot run here (no modcert source, bad arguments)."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_modcert() -> float:
    """Import modcert from the checkout's src/; return the import time in seconds."""
    pkg = ROOT / "src" / "modcert"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no modcert source at {pkg}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import modcert
    import modcert.cli  # noqa: F401  (verify runs through the CLI)
    import_s = time.perf_counter() - t0
    if Path(modcert.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported modcert from {modcert.__file__}, not from {pkg}")
    return import_s


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def warm_up() -> None:
    """One small certify and one LP, so HiGHS's slow first call is set-up."""
    from modcert import LinearProgram, certify, solve_lp
    from modcert.datasets import load_network

    certify(load_network("knoki"), method="both", max_subnet_size=4)
    solve_lp(LinearProgram([Fraction(1), Fraction(1)], [({0: Fraction(1), 1: Fraction(2)}, Fraction(3))]))


def set_up(workload: str, seed: int, workdir: Path):
    """Build the workload's items; return (items, median set-up seconds).

    Input generation and the warm-up are repeated SETUP_REPEATS times and
    the median is reported, since a single set-up is a single noisy sample.
    """
    from workloads import WORKLOADS

    times = []
    items = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = WORKLOADS[workload](seed, workdir)
        warm_up()
        times.append(time.perf_counter() - t0)
    return items, statistics.median(times)


# ---------------------------------------------------------------------------
# one pass over the workload


@dataclass
class PassResult:
    certify_s: float = 0.0
    verify_s: float = 0.0
    cert_bytes: int = 0
    bound: Fraction = Fraction(0)
    achieved: Fraction = Fraction(0)
    proved: int = 0
    attempted: int = 0
    failed: int = 0
    budget_exhausted: int = 0
    results: dict = field(default_factory=dict)  # name -> [achieved, bound, status]
    problems: list = field(default_factory=list)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def run_pass(items, workdir: Path, tracer=None) -> PassResult:
    """Certify every item and write its certificate, then verify each with the CLI.

    Verification is repeated in rounds until MIN_VERIFY_S has been measured,
    and verify_s is the time of one round; only the first round is traced.
    """
    import modcert
    from modcert import cli

    res = PassResult()
    emitted = []
    for item in items:
        res.attempted += 1
        cert_path = workdir / f"{item.name}.cert.json"
        if tracer is not None:
            tracer.call_id += 1
        t0 = time.perf_counter()
        try:
            with _span(tracer, "pipeline.certify"):
                doc = modcert.certify(item.net, **item.options)
        except Exception:
            res.certify_s += time.perf_counter() - t0
            res.failed += 1
            res.problems.append(f"{item.name}: certify raised\n{traceback.format_exc()}")
            continue
        res.certify_s += time.perf_counter() - t0
        with _span(tracer, "document.dumps"):
            text = doc.dumps()
        cert_path.write_text(text)
        res.cert_bytes += len(text.encode())
        emitted.append((item, doc, cert_path))

    rejected = set()
    rounds = 0
    while emitted and (rounds == 0 or res.verify_s < MIN_VERIFY_S):
        for item, _, cert_path in emitted:
            out = io.StringIO()
            t0 = time.perf_counter()
            with _span(tracer if rounds == 0 else None, "cli.verify"), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(["verify", item.network_arg, str(cert_path)])
            res.verify_s += time.perf_counter() - t0
            if code != 0 and item.name not in rejected:
                rejected.add(item.name)
                res.failed += 1
                res.problems.append(f"{item.name}: verify exited {code}: {out.getvalue().strip()}")
        rounds += 1
    res.verify_s /= max(rounds, 1)

    for item, doc, _ in emitted:
        if item.name in rejected:
            continue
        res.results[item.name] = [_frac(doc.achieved_modularity), _frac(doc.bound), doc.status]
        res.bound += doc.bound
        res.achieved += doc.achieved_modularity
        res.proved += doc.status == "optimal-proved"
        budget = item.options.get("subnet_budget")
        if budget is not None and doc.provenance.get("subnetworks_examined", 0) >= budget:
            res.budget_exhausted += 1
    return res


def check_results(results: dict, expected: dict) -> list[str]:
    """Name every network whose achieved value, bound or status differs."""
    problems = []
    for name, want in expected.items():
        got = results.get(name)
        if got is None:
            problems.append(f"{name}: no result (expected {want})")
        elif got != want:
            problems.append(f"{name}: got achieved/bound/status {got}, recorded {want}")
    for name in results:
        if name not in expected:
            problems.append(f"{name}: no recorded result")
    return problems


def load_expected(workload: str) -> dict | None:
    """Recorded [achieved, bound, status] per network; they hold at every seed."""
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(workload)


# ---------------------------------------------------------------------------
# tracing


def install_tracer(tracer) -> None:
    import importlib

    for module, attr, name, hook, generator in WRAPS:
        target = importlib.import_module(f"modcert.{module}")
        tracer.install(target, attr, name, on_result=hook, generator=generator)


def layer_metrics(tracer, passes: list[PassResult], untraced: list[PassResult]) -> dict[str, float]:
    """Per-layer metrics, per traced pass, from the tracer's spans and counters."""
    npass = len(passes)
    own = tracer.self_times()
    spans = tracer.spans
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, s in enumerate(spans):
        self_s[s.name] = self_s.get(s.name, 0.0) + own[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name in LP_LEAVES:
            owner = tracer.owner(i, LP_OWNERS)
            if owner is not None:
                key = f"{s.name}.{owner.split('.')[1]}"
                self_s[key] = self_s.get(key, 0.0) + own[i]

    # spans that have an exact_simplex span somewhere below them
    fallback = set()
    for i, s in enumerate(spans):
        if s.name == "lp.exact_simplex":
            p = s.parent
            while p >= 0 and p not in fallback:
                fallback.add(p)
                p = spans[p].parent

    def recovery(name: str) -> float:
        idx = [i for i, s in enumerate(spans) if s.name == name]
        return sum(i not in fallback for i in idx) / len(idx) if idx else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.endswith(".self_s"):
            metrics[name] = self_s.get(name[:-len(".self_s")], 0.0) / npass
        elif name.endswith(".calls"):
            metrics[name] = calls.get(name[:-len(".calls")], 0) / npass
    attempted = sum(p.attempted for p in passes)
    traced_s = statistics.median(p.certify_s for p in passes)
    metrics.update({
        "lp.combine.recovery_ratio": recovery("lp.combine"),
        "lp.reduce.recovery_ratio": recovery("lp.minimize_totals_exact"),
        "chains.truncated": tracer.counters.get("chains.truncated", 0) / npass,
        "subnets.resolved_ratio": ratio(tracer.counters.get("subnets.resolved", 0),
                                        tracer.counters.get("subnets.partial_brute_force.results", 0)),
        "subnets.budget_exhausted": sum(p.budget_exhausted for p in passes) / npass,
        "pipeline.proved_fraction": ratio(sum(p.proved for p in passes), attempted),
        "pipeline.bound_gap": float(statistics.median(p.bound - p.achieved for p in passes)),
        "pipeline.failed_fraction": ratio(sum(p.failed for p in passes), attempted),
        "trace.certify_s": traced_s,
        "trace.overhead_s": traced_s - statistics.median(p.certify_s for p in untraced),
    })
    return metrics


def stage_table(metrics: dict[str, float]) -> str:
    """Self time per ROADMAP stage, per traced pass, and its share of certify_s."""
    certify_s = metrics["trace.certify_s"]
    lines = [f"{'stage':<40} {'self s/pass':>12} {'share':>7}"]
    accounted = 0.0
    for stage, keys in STAGES:
        per = sum(metrics[f"{key}.self_s"] for key in keys)
        accounted += per
        lines.append(f"{stage:<40} {per:>12.4f} {per / certify_s:>7.1%}")
    lines.append(f"{'sum of stages':<40} {accounted:>12.4f} {accounted / certify_s:>7.1%}")
    lines.append(f"{'traced certify_s':<40} {certify_s:>12.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the benchmark and return the result object that is printed last."""
    import speed
    from spans import Tracer

    import_s = load_modcert()
    workdir = OUT / f"{workload}-s{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    print("env:", json.dumps(environment(), sort_keys=True))

    items, setup_s = set_up(workload, seed, workdir)
    expected = load_expected(workload)
    if expected is None:
        print(f"note: no recorded results for {workload}; outputs are checked by the verifier only")

    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    tracer = Tracer() if trace else None
    matrix = speed.reference_matrix()
    reference_s: list[float] = []
    # whole rounds (reference kernel, an untraced pass, plus a traced one with
    # --trace 1) while another round still fits in --seconds; at least one
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reference_s += speed.sample(matrix, REFERENCE_REPEATS)
        untraced.append(run_pass(items, workdir))
        if trace:
            install_tracer(tracer)
            try:
                traced.append(run_pass(items, workdir, tracer))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break

    everything = untraced + traced
    problems = [msg for p in everything for msg in p.problems]
    reference = expected if expected is not None else everything[0].results
    for p in everything:
        if not p.failed:
            problems += check_results(p.results, reference)
    for msg in dict.fromkeys(problems):
        print(f"problem: {msg}")

    if trace:
        tracer.dump(workdir / "spans.jsonl")
        metrics = layer_metrics(tracer, traced, untraced)
        print(stage_table(metrics))
        units = PER_LAYER
    else:
        achieved = statistics.median(p.achieved for p in untraced)
        raw = {
            "certify_s": statistics.median(p.certify_s for p in untraced),
            "verify_s": statistics.median(p.verify_s for p in untraced),
            "setup_s": import_s + setup_s,
        }
        slowdown = speed.slowdown(reference_s)
        print(f"machine speed: reference kernel median {statistics.median(reference_s):.4f} s over "
              f"{len(reference_s)} runs, {slowdown:.3f} x nominal; unscaled "
              + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
        metrics = {
            **{k: v / slowdown for k, v in raw.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cert_bytes": float(statistics.median(p.cert_bytes for p in untraced)),
            "bound_ratio": float(statistics.median(p.bound for p in untraced) / achieved),
        }
        units = END_TO_END
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(items)} networks per pass; certify s per untraced pass: "
          + " ".join(f"{p.certify_s:.4f}" for p in untraced))
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(p.failed for p in everything),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
