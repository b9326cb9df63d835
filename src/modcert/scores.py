"""Exact modularity edge scores, partition evaluation and the trivial bound.

The pair score here is the *effective* score s(A,B) = q(A,B) + q(B,A)
with q(A,B) = e(A,B)/T - w_out(A) * w_in(B)/T^2, kept on unordered pairs.
Summing s over intra-community pairs plus the per-node diagonal terms
d(A) = q(A,A) reproduces the ordered double sum exactly, so nothing
downstream ever needs the asymmetric q again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .graph import Network

Pair = tuple[int, int]


def pair_key(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


def chain_loads(nodes: Sequence[int], p: Fraction) -> dict[Pair, Fraction]:
    """A chain's loads: +p on consecutive pairs of nodes, -p on the closing pair."""
    loads = {pair_key(u, v): p for u, v in zip(nodes, nodes[1:])}
    loads[pair_key(nodes[0], nodes[-1])] = -p
    return loads


@dataclass
class ScoreMatrix:
    """Symmetric effective scores s on unordered pairs plus diagonal terms d.

    For matrices produced by `score_matrix` the balance identity
    sum(s) + sum(d) == 0 holds exactly. Tests may construct synthetic
    instances that do not satisfy it; nothing here relies on balance.
    """

    n: int
    s: dict[Pair, Fraction]
    d: tuple[Fraction, ...]
    _scaled: tuple | None = field(default=None, repr=False, compare=False)

    def score(self, a: int, b: int) -> Fraction:
        if a == b:
            return self.d[a]
        return self.s.get(pair_key(a, b), Fraction(0))

    def pairs(self):
        """All stored unordered pairs in sorted order."""
        return sorted(self.s.keys())

    def scaled(self):
        """Common-denominator integer view: (den, S, diag).

        S is a dense n x n symmetric integer matrix with S[a][b] * den == s(a,b);
        diag[a] * den == d(a). Cached; used by enumeration-heavy callers so the
        hot loops run on machine/big integers instead of Fractions.
        """
        if self._scaled is None:
            den = 1
            for v in self.s.values():
                den = math.lcm(den, v.denominator)
            for v in self.d:
                den = math.lcm(den, v.denominator)
            S = [[0] * self.n for _ in range(self.n)]
            for (a, b), v in self.s.items():
                iv = v.numerator * (den // v.denominator)
                S[a][b] = iv
                S[b][a] = iv
            diag = [v.numerator * (den // v.denominator) for v in self.d]
            self._scaled = (den, S, diag)
        return self._scaled


@dataclass
class Partition:
    """Node -> community assignment with its exact modularity cached."""

    assignment: tuple[int, ...]
    num_communities: int
    modularity: Fraction

    @staticmethod
    def canonical_assignment(assignment: Sequence[int]) -> tuple[int, ...]:
        """Relabel community ids by first appearance (restricted growth form)."""
        remap: dict[int, int] = {}
        out = []
        for c in assignment:
            if c not in remap:
                remap[c] = len(remap)
            out.append(remap[c])
        return tuple(out)

    @classmethod
    def from_assignment(cls, sm: ScoreMatrix, assignment: Sequence[int]) -> "Partition":
        canon = cls.canonical_assignment(assignment)
        q = modularity_of_assignment(sm, canon)
        return cls(assignment=canon, num_communities=max(canon) + 1 if canon else 0, modularity=q)

    def communities(self) -> list[list[int]]:
        groups: dict[int, list[int]] = {}
        for node, c in enumerate(self.assignment):
            groups.setdefault(c, []).append(node)
        return [groups[c] for c in sorted(groups)]


def score_matrix(net: Network) -> ScoreMatrix:
    """Exact effective scores for every unordered pair, diagonal included."""
    n = net.n
    T = net.total_weight
    T2 = T * T
    s: dict[Pair, Fraction] = {}
    for a in range(n):
        wa_out, wa_in = net.w_out(a), net.w_in(a)
        for b in range(a + 1, n):
            e_ab = net.weight(a, b)
            e_ba = net.weight(b, a)
            val = (e_ab + e_ba) / T - (wa_out * net.w_in(b) + net.w_out(b) * wa_in) / T2
            s[(a, b)] = val
    d = tuple(
        net.weight(a, a) / T - net.w_out(a) * net.w_in(a) / T2 for a in range(n)
    )
    return ScoreMatrix(n=n, s=s, d=d)


def modularity_of_assignment(sm: ScoreMatrix, assignment: Sequence[int]) -> Fraction:
    if len(assignment) != sm.n:
        raise ValueError(f"partition covers {len(assignment)} nodes, network has {sm.n}")
    den, S, diag = sm.scaled()
    groups: dict[int, list[int]] = {}
    for node, c in enumerate(assignment):
        groups.setdefault(c, []).append(node)
    total = sum(diag)
    for members in groups.values():
        for i, a in enumerate(members):
            row = S[a]
            for b in members[i + 1:]:
                total += row[b]
    return Fraction(total, den)


def modularity(sm: ScoreMatrix, p: Partition) -> Fraction:
    """Exact modularity of a partition under the effective-score convention."""
    return modularity_of_assignment(sm, p.assignment)


def trivial_upper_bound(sm: ScoreMatrix) -> Fraction:
    """Every positive pair score plus all diagonal terms.

    Positive off-diagonal mass is collectible at best, positive diagonals are
    always collected, negative diagonals are unavoidable; hence this dominates
    the modularity of every partition.
    """
    total = sum((v for v in sm.s.values() if v > 0), Fraction(0))
    return total + sum(sm.d, Fraction(0))
