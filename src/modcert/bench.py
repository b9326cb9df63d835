"""Benchmark harness: achieved vs proven-bound modularity across a corpus."""

from __future__ import annotations

import io
import time
from dataclasses import dataclass
from fractions import Fraction

from .datasets import CORPUS, DatasetMissing, load_network
from .document import frac_str
from .pipeline import certify


@dataclass
class BenchRecord:
    name: str
    size: int
    achieved: Fraction
    bound: Fraction
    status: str
    seconds: float

    @property
    def ratio(self) -> float:
        if self.bound == self.achieved:
            return 100.0
        if self.bound == 0:
            return float("nan")
        return round(100.0 * float(self.achieved) / float(self.bound), 2)


def run_benchmark(
    names: list[str] | None = None,
    method: str = "both",
    max_subnet_size: int = 5,
    seed: int = 0,
    data_dir: str | None = None,
    subnet_budget: int | None = 200_000,
    notices: list[str] | None = None,
) -> list[BenchRecord]:
    """Certify each named corpus network; missing data is skipped with a notice."""
    if names is None:
        names = list(CORPUS)
    records = []
    for name in names:
        try:
            net = load_network(name, data_dir=data_dir)
        except DatasetMissing as exc:
            if notices is not None:
                notices.append(f"skipped {name}: {exc}")
            continue
        t0 = time.perf_counter()
        doc = certify(net, method=method, max_subnet_size=max_subnet_size,
                      seed=seed, subnet_budget=subnet_budget)
        dt = time.perf_counter() - t0
        records.append(
            BenchRecord(
                name=name,
                size=net.n,
                achieved=doc.achieved_modularity,
                bound=doc.bound,
                status=doc.status,
                seconds=dt,
            )
        )
    return records


def format_table(records: list[BenchRecord]) -> str:
    header = f"{'Network':<12} {'Size':>5} {'Achieved':>12} {'Bound':>12} {'Ratio, %':>9} {'Status':<15} {'Time, s':>8}"
    lines = [header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r.name:<12} {r.size:>5} {float(r.achieved):>12.6f} {float(r.bound):>12.6f} "
            f"{r.ratio:>9.2f} {r.status:<15} {r.seconds:>8.2f}"
        )
    return "\n".join(lines)


def format_csv(records: list[BenchRecord]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["network", "size", "achieved", "bound", "ratio_pct", "status", "seconds"])
    for r in records:
        writer.writerow(
            [r.name, r.size, frac_str(r.achieved), frac_str(r.bound), f"{r.ratio:.2f}", r.status,
             f"{r.seconds:.3f}"]
        )
    return buf.getvalue()
