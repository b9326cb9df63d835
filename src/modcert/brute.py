"""Exhaustive set-partition search: the small-n ground-truth oracle.

Enumerates restricted growth strings, so partitions arrive in a canonical
lexicographic order and ties resolve to the smallest encoding for free.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .scores import Partition, ScoreMatrix

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]

DEFAULT_LIMIT = 12


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of range(n) as a restricted growth string."""
    a = [0] * n

    def rec(i: int, mx: int):
        if i == n:
            yield tuple(a)
            return
        for c in range(mx + 2):
            a[i] = c
            yield from rec(i + 1, max(mx, c))

    if n == 0:
        yield ()
    else:
        yield from rec(1, 0)


def brute_force_max(sm: ScoreMatrix, limit: int = DEFAULT_LIMIT) -> tuple[Fraction, Partition]:
    """Exact maximum modularity over all partitions, with one argmax.

    Refuses n > limit (Bell numbers explode). Ties break to the
    lexicographically smallest restricted-growth encoding.
    """
    n = sm.n
    if n > limit:
        raise ValueError(f"brute force limited to n <= {limit}, got n = {n}")
    S = sm.S

    best_val = None
    best_assignment = None
    assignment = [0] * n
    groups: list[list[int]] = []

    def rec(i: int, acc: int):
        nonlocal best_val, best_assignment
        if i == n:
            if best_val is None or acc > best_val:
                best_val = acc
                best_assignment = tuple(assignment)
            return
        row = S[i]
        for gi, g in enumerate(groups):
            delta = 0
            for j in g:
                delta += row[j]
            assignment[i] = gi
            g.append(i)
            rec(i + 1, acc + delta)
            g.pop()
        assignment[i] = len(groups)
        groups.append([i])
        rec(i + 1, acc)
        groups.pop()

    rec(0, 0)
    q = Fraction(best_val + sum(sm.diag), sm.den)
    part = Partition(assignment=Partition.canonical_assignment(best_assignment), modularity=q)
    return q, part
