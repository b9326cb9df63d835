"""Machine-speed reference: a fixed exact-rational kernel timed alongside the passes.

On a shared machine the same code runs up to a quarter slower for minutes
at a time. A kernel that shares no code with modcert but does the same kind
of work (Fraction arithmetic on dicts) slows down with it, so dividing the
measured times by the kernel's slowdown removes that drift while a change
to modcert still shows in full.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# median time of one kernel run on the 2-vCPU VM (Xeon, 2.1 GHz) on which the
# benchmark was defined; reported times are scaled to that speed
NOMINAL_S = 0.055
SIZE = 26


def reference_matrix() -> list[dict[int, Fraction]]:
    """A fixed sparse rational matrix with a nonzero diagonal."""
    rng = random.Random(12345)
    return [
        {j: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
         for j in range(SIZE) if j == i or rng.random() < 0.5}
        for i in range(SIZE)
    ]


def kernel(matrix: list[dict[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Gauss-Jordan elimination of a copy of the matrix, exactly."""
    rows = [dict(r) for r in matrix]
    n = len(rows)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i].get(c)), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = {j: v * inv for j, v in rows[c].items()}
        for i in range(n):
            f = rows[i].get(c) if i != c else None
            if not f:
                continue
            r = rows[i]
            for j, v in rows[c].items():
                nv = r.get(j, 0) - f * v
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
    return rows


def sample(matrix, repeats: int) -> list[float]:
    """Wall time of `repeats` kernel runs."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel(matrix)
        out.append(time.perf_counter() - t0)
    return out


def slowdown(samples: list[float]) -> float:
    """How many times slower than nominal the machine ran during the samples."""
    return statistics.median(samples) / NOMINAL_S
