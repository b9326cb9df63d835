"""Command-line interface.

Subcommands: score, optimize, bound, certify, verify, bench, gen.
Network inputs are edge-list files; corpus names (karate, knoki, ...) are
accepted wherever a file path is expected. Each subcommand takes only the
flags it reads.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from functools import cache

from . import __version__
from .chains import DEFAULT_PATH_BUDGET
from .datasets import CORPUS, DatasetMissing, load_network
from .document import CertificateDocument, document_to_certificate, frac_str, network_fingerprint
from .edgelist import parse_edge_list
from .graph import GraphError
from .optimizer import optimize
from .pipeline import METHODS, _search_and_chain, certify
from .scores import score_matrix, trivial_upper_bound
from .generator import generate_planted
from .verify import verify_certificate


def _load_input(path: str, directed: bool):
    if path in CORPUS and not os.path.exists(path):
        if directed and not CORPUS[path].directed:
            raise ValueError(f"--directed given, but corpus network {path!r} is undirected")
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
            "pairs": [[a, b, frac_str(v)] for a, b, v in rows],
            "diagonal": {labels[a]: frac_str(sm.score(a, a)) for a in range(n)},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows((a, b, frac_str(v)) for a, b, v in rows)
    else:
        for a, b, v in rows:
            print(f"{a}\t{b}\t{frac_str(v)} ({float(v):+.6f})")
    return 0


def cmd_optimize(args) -> int:
    net = _load_input(args.network, args.directed)
    sm = score_matrix(net)
    part = optimize(sm, seed=args.seed, restarts=args.restarts)
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
    achieved, greedy, tightened, truncated = _search_and_chain(
        sm, seed=args.seed, path_budget=args.path_budget)
    print(f"trivial bound: {_exact(trivial)}")
    print(f"achieved: {_exact(achieved.modularity)}")
    print(f"greedy chains: {len(greedy.components)}, greedy bound {_exact(greedy.bound)}")
    print(f"bound: {_exact(tightened.bound)}")
    if truncated:
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
        same_network = doc.fingerprint == network_fingerprint(net)
        if same_network:
            cert = document_to_certificate(doc, net)
    except KeyError as exc:
        print(f"cannot parse certificate: missing field {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, TypeError) as exc:
        print(f"cannot parse certificate: {exc}", file=sys.stderr)
        return 2
    if not same_network:
        print("verification failed: fingerprint-mismatch: certificate is for a different network")
        return 1
    ok, why = verify_certificate(cert, score_matrix(net))
    if not ok:
        print(f"verification failed: {why}")
        return 1
    print(f"verification passed: {doc.status}, bound {_exact(doc.bound)}, "
          f"achieved {_exact(doc.achieved_modularity)}, gap {frac_str(doc.gap)}")
    return 0


def cmd_bench(args) -> int:
    rows = []
    for name in args.networks or list(CORPUS):
        try:
            net = load_network(name)
        except DatasetMissing as exc:
            print(f"note: skipped {name}: {exc}", file=sys.stderr)
            continue
        t0 = time.perf_counter()
        doc = certify(net, method=args.method, max_subnet_size=args.max_subnet_size,
                      seed=args.seed, subnet_budget=args.budget)
        seconds = time.perf_counter() - t0
        achieved, bound = doc.achieved_modularity, doc.bound
        # achieved >= 0 (restart 0 is one community) and bound >= achieved,
        # so a zero bound equals achieved and the division is safe
        ratio = 100.0 if bound == achieved else round(100.0 * float(achieved) / float(bound), 2)
        rows.append((name, net.n, achieved, bound, ratio, doc.status, seconds))
    keys = ["network", "size", "achieved", "bound", "ratio_pct", "status", "seconds"]
    if args.format == "json":
        print(json.dumps([dict(zip(keys, (name, n, frac_str(a), frac_str(b), r, st, round(s, 3))))
                          for name, n, a, b, r, st, s in rows], indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(keys)
        for name, n, a, b, r, st, s in rows:
            writer.writerow([name, n, frac_str(a), frac_str(b), f"{r:.2f}", st, f"{s:.3f}"])
    else:
        header = (f"{'Network':<12} {'Size':>5} {'Achieved':>12} {'Bound':>12} {'Ratio, %':>9} "
                  f"{'Status':<15} {'Time, s':>8}")
        print(header)
        print("-" * len(header))
        for name, n, a, b, r, st, s in rows:
            print(f"{name:<12} {n:>5} {float(a):>12.6f} {float(b):>12.6f} {r:>9.2f} {st:<15} {s:>8.2f}")
    return 0


def cmd_gen(args) -> int:
    net = generate_planted(
        n=args.n,
        communities=args.communities,
        p_in=args.p_in,
        p_out=args.p_out,
        seed=args.seed,
    )
    lines = [f"# planted partition: n={args.n} communities={args.communities} "
             f"p_in={args.p_in} p_out={args.p_out} seed={args.seed}"]
    # the network stores both orientations of each edge; write it once
    lines += [f"{net.node_labels[a]} {net.node_labels[b]}" for a, b in sorted(net.edges) if a <= b]
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
    p.add_argument("--path-budget", type=int, default=DEFAULT_PATH_BUDGET)
    p.set_defaults(func=cmd_bound)

    p = subs.add_parser("certify", help="emit a verified optimality certificate")
    _add_network(p)
    p.add_argument("--method", choices=list(METHODS), default="both")
    p.add_argument("--max-subnet-size", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--budget", type=int, default=None, help="max subnetworks to resolve")
    p.add_argument("--path-budget", type=int, default=DEFAULT_PATH_BUDGET)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("verify", help="check a certificate against a network")
    _add_network(p)
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("bench", help="run the benchmark corpus")
    p.add_argument("networks", nargs="*", help="corpus names (default: all available)")
    p.add_argument("--method", choices=list(METHODS), default="both")
    p.add_argument("--max-subnet-size", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("gen", help="generate a planted-partition network")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--communities", type=int, required=True)
    p.add_argument("--p-in", type=float, required=True)
    p.add_argument("--p-out", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (`modcert score knoki | head -1`): point stdout
        # at devnull so the flush at exit stays quiet, and exit as a process
        # killed by SIGPIPE does, never as a pass, a violation or bad input
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except GraphError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # a path it cannot read or write; an invalid argument value
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
