"""Command-line interface.

Subcommands: score, optimize, bound, certify, verify, bench, gen.
Network inputs are edge-list files; corpus names (karate, knoki, ...) are
accepted wherever a file path is expected. Each subcommand takes only the
flags it reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import __version__
from .bench import format_csv, format_table, run_benchmark
from .datasets import CORPUS, load_network
from .document import CertificateDocument, document_to_certificate, frac_str, network_fingerprint
from .edgelist import parse_edge_list
from .graph import GraphError
from .optimizer import OptimizerConfig, optimize
from .pipeline import certify, chain_bound
from .scores import score_matrix, trivial_upper_bound
from .generator import generate_planted
from .verify import verify_certificate


def _load_input(path: str, directed: bool):
    if path in CORPUS and not os.path.exists(path):
        return load_network(path)
    if path == "-":
        return parse_edge_list(sys.stdin.read(), directed=directed)
    with open(path) as fh:
        return parse_edge_list(fh.read(), directed=directed)


FORMATS = ["table", "csv", "json"]


def _add_network(parser):
    parser.add_argument("network")
    parser.add_argument("--directed", action="store_true", help="treat input as directed")


def _exact(v) -> str:
    """A value as 6 decimals followed by its exact fraction."""
    return f"{float(v):.6f} ({frac_str(v)})"


def cmd_score(args) -> int:
    net = _load_input(args.network, args.directed)
    sm = score_matrix(net)
    labels, n = net.node_labels, net.n
    rows = [(labels[a], labels[b], sm.score(a, b)) for a in range(n) for b in range(a + 1, n)]
    if args.format == "json":
        payload = {
            "pairs": {f"{a}|{b}": frac_str(v) for a, b, v in rows},
            "diagonal": {labels[a]: frac_str(sm.score(a, a)) for a in range(n)},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sep = "," if args.format == "csv" else "\t"
        for a, b, v in rows:
            print(f"{a}{sep}{b}{sep}{frac_str(v)} ({float(v):+.6f})" if args.format == "table"
                  else f"{a}{sep}{b}{sep}{frac_str(v)}")
    return 0


def cmd_optimize(args) -> int:
    net = _load_input(args.network, args.directed)
    sm = score_matrix(net)
    part = optimize(sm, OptimizerConfig(seed=args.seed, restarts=args.restarts))
    communities = [[net.node_labels[v] for v in c] for c in part.communities()]
    if args.format == "json":
        print(json.dumps({"modularity": frac_str(part.modularity),
                          "modularity_float": float(part.modularity),
                          "communities": communities}, indent=2))
    else:
        print(f"modularity: {_exact(part.modularity)}")
        for i, c in enumerate(communities):
            print(f"community {i}: {' '.join(c)}")
    return 0


def cmd_bound(args) -> int:
    net = _load_input(args.network, args.directed)
    sm = score_matrix(net)
    trivial = trivial_upper_bound(sm)
    if args.method == "trivial":
        print(f"trivial bound: {_exact(trivial)}")
        return 0
    achieved = optimize(sm, OptimizerConfig(seed=args.seed)).modularity
    result = chain_bound(sm, achieved=achieved, path_budget=args.path_budget)
    print(f"trivial bound: {_exact(trivial)}")
    print(f"achieved: {_exact(achieved)}")
    print(f"greedy chains: {result.chains_applied}, greedy bound {float(result.greedy_bound):.6f}")
    print(f"bound: {_exact(result.bound)}")
    if result.truncated:
        print("path budget exhausted: chain enumeration was cut short, so the bound may be weaker")
    return 0


def cmd_certify(args) -> int:
    net = _load_input(args.network, args.directed)
    doc = certify(
        net,
        method=args.method,
        max_subnet_size=args.max_subnet_size,
        seed=args.seed,
        restarts=args.restarts,
        subnet_budget=args.budget,
        path_budget=args.path_budget,
    )
    text = doc.dumps()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"status: {doc.status}  achieved {_exact(doc.achieved_modularity)}  "
              f"bound {_exact(doc.bound)}  gap {frac_str(doc.gap)}  -> {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_verify(args) -> int:
    net = _load_input(args.network, args.directed)
    try:
        with open(args.certificate) as fh:
            doc = CertificateDocument.loads(fh.read())
        if doc.fingerprint != network_fingerprint(net):
            print("verification failed: fingerprint-mismatch: certificate is for a different network")
            return 1
        cert = document_to_certificate(doc, net)
    except KeyError as exc:
        print(f"cannot parse certificate: missing field {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, TypeError) as exc:
        print(f"cannot parse certificate: {exc}", file=sys.stderr)
        return 2
    ok, why = verify_certificate(cert, score_matrix(net))
    if not ok:
        print(f"verification failed: {why}")
        return 1
    print(f"verification passed: {doc.status}, bound {_exact(doc.bound)}, "
          f"achieved {_exact(doc.achieved_modularity)}, gap {frac_str(doc.gap)}")
    return 0


def cmd_bench(args) -> int:
    notices: list[str] = []
    records = run_benchmark(
        names=args.networks or None,
        method=args.method,
        max_subnet_size=args.max_subnet_size,
        seed=args.seed,
        data_dir=args.data_dir,
        subnet_budget=args.budget,
        notices=notices,
    )
    for note in notices:
        print(f"note: {note}", file=sys.stderr)
    if args.format == "csv":
        print(format_csv(records), end="")
    elif args.format == "json":
        payload = [
            {
                "network": r.name,
                "size": r.size,
                "achieved": frac_str(r.achieved),
                "bound": frac_str(r.bound),
                "ratio_pct": r.ratio,
                "status": r.status,
                "seconds": round(r.seconds, 3),
            }
            for r in records
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(format_table(records))
    if args.out_csv:
        with open(args.out_csv, "w") as fh:
            fh.write(format_csv(records))
    return 0


def cmd_gen(args) -> int:
    net = generate_planted(
        n=args.n,
        communities=args.communities,
        p_in=args.p_in,
        p_out=args.p_out,
        weight_scale=args.weight_scale,
        seed=args.seed,
    )
    lines = [f"# planted partition: n={args.n} communities={args.communities} "
             f"p_in={args.p_in} p_out={args.p_out} seed={args.seed}"]
    seen = set()
    for (a, b), w in sorted(net.edges.items()):
        if (b, a) in seen:
            continue
        seen.add((a, b))
        la, lb = net.node_labels[a], net.node_labels[b]
        lines.append(f"{la} {lb} {w}" if w != 1 else f"{la} {lb}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="modcert",
        description="Community partitions with proven modularity upper bounds.",
    )
    parser.add_argument("--version", action="version", version=f"modcert {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("score", help="print exact pair scores")
    _add_network(p)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_score)

    p = subs.add_parser("optimize", help="search for a high-modularity partition")
    _add_network(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("bound", help="compute an upper bound on modularity")
    _add_network(p)
    p.add_argument("--method", choices=["trivial", "chains"], default="chains")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--path-budget", type=int, default=10_000_000)
    p.set_defaults(func=cmd_bound)

    p = subs.add_parser("certify", help="emit a verified optimality certificate")
    _add_network(p)
    p.add_argument("--method", choices=["chains", "subnets", "both"], default="both")
    p.add_argument("--max-subnet-size", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--budget", type=int, default=None, help="max subnetworks to resolve")
    p.add_argument("--path-budget", type=int, default=10_000_000)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("verify", help="check a certificate against a network")
    _add_network(p)
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("bench", help="run the benchmark corpus")
    p.add_argument("networks", nargs="*", help="corpus names (default: all available)")
    p.add_argument("--method", choices=["chains", "subnets", "both"], default="both")
    p.add_argument("--max-subnet-size", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("gen", help="generate a planted-partition network")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--communities", type=int, required=True)
    p.add_argument("--p-in", type=float, required=True)
    p.add_argument("--p-out", type=float, required=True)
    p.add_argument("--weight-scale", default="1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:  # ValueError: an invalid argument value
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
