"""The benchmark's workloads: which networks are certified, with which options.

Each workload turns the workload seed into a list of `Item`s. The networks
are fixed; the workload seed is certify's `seed`, which drives the
optimizer's random restarts. Every network here is proven optimal by its own
certify call or (karate in `karate-subnets`) by `corpus`, and the optimizer's
deterministic first restart already reaches that optimum on all but knokm
(where 2,000 of 2,000 seeds reach it), so the recorded achieved values,
bounds and statuses hold at every seed.

The planted networks are not drawn from the workload seed: with seed-drawn
networks the exact-simplex fallback struck 0 to 4 of the 40 networks, and
certify time varied by about a quarter between seeds.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

CORPUS_NAMES = ("karate", "knoki", "knokm")
PLANTED_COUNT = 40
PLANTED_SIZES = range(24, 36)  # n cycles over 24..35


@dataclass
class Item:
    name: str  # stable label, used for expected results
    network_arg: str  # what `modcert verify` reads: a corpus name or an edge-list path
    net: object  # the modcert Network that certify receives
    options: dict  # keyword arguments to modcert.certify


def corpus(seed: int, workdir: Path) -> list[Item]:
    """The README's documented command on every bundled network."""
    from modcert.datasets import load_network

    options = {"method": "both", "max_subnet_size": 6, "seed": seed}
    return [Item(name, name, load_network(name), options) for name in CORPUS_NAMES]


def karate_subnets(seed: int, workdir: Path) -> list[Item]:
    """Karate by subnetworks alone, budget-capped so one pass takes seconds."""
    from modcert.datasets import load_network

    options = {"method": "subnets", "max_subnet_size": 4, "subnet_budget": 600, "seed": seed}
    return [Item("karate", "karate", load_network("karate"), options)]


def planted_specs() -> list[tuple[int, int, int]]:
    """(n, communities, generator seed) of each planted network."""
    sizes = list(PLANTED_SIZES)
    out = []
    for i in range(PLANTED_COUNT):
        n = sizes[i % len(sizes)]
        out.append((n, max(2, round(n / 12)), i))
    return out


def planted_batch(seed: int, workdir: Path) -> list[Item]:
    """Criterion-9 planted networks, written by `modcert gen` and parsed back.

    Certifying the parsed network (not the generator's in-memory one) keeps
    node ids in file order, so `modcert verify` on the same file sees the
    network the certificate was made for.
    """
    from modcert import cli
    from modcert.edgelist import parse_edge_list

    items = []
    for i, (n, groups, gseed) in enumerate(planted_specs()):
        path = workdir / f"planted-{i:02d}.edges"
        argv = ["gen", "--n", str(n), "--communities", str(groups), "--p-in", "0.9",
                "--p-out", "0.05", "--seed", str(gseed), "-o", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"modcert gen failed for planted network {i}")
        net = parse_edge_list(path.read_text())
        options = {"method": "both", "max_subnet_size": 4, "subnet_budget": 30000, "seed": seed}
        items.append(Item(f"planted-{i:02d}-n{n}", str(path), net, options))
    return items


WORKLOADS = {
    "corpus": corpus,
    "planted-batch": planted_batch,
    "karate-subnets": karate_subnets,
}

