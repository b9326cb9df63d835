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


def chain_loads(nodes: Sequence[int], p: int) -> dict[Pair, int]:
    """A chain's loads: +p on consecutive pairs of nodes, -p on the closing pair."""
    loads = {(u, v) if u < v else (v, u): p for u, v in zip(nodes, nodes[1:])}
    a, b = nodes[0], nodes[-1]
    loads[(a, b) if a < b else (b, a)] = -p
    return loads


@dataclass
class ScoreMatrix:
    """Effective scores on one integer lattice: s(a,b) = S[a][b]/den, d(a) = diag[a]/den.

    S is a dense symmetric n x n integer matrix with a zero diagonal. For
    matrices produced by `score_matrix` den is T^2 of the integer-scaled
    weights and the balance identity sum(S over a < b) + sum(diag) == 0
    holds. Tests may construct synthetic instances that do not satisfy it,
    and neither a copy reduced by `apply` nor a subnetwork's lattice keeps
    it; nothing here relies on balance.
    """

    n: int
    den: int
    S: list[list[int]] = field(repr=False)
    diag: tuple[int, ...]

    def score(self, a: int, b: int) -> Fraction:
        if a == b:
            return Fraction(self.diag[a], self.den)
        return Fraction(self.S[a][b], self.den)

    def copy(self) -> "ScoreMatrix":
        return ScoreMatrix(n=self.n, den=self.den, S=[row[:] for row in self.S], diag=self.diag)

    def positive_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a in range(self.n):
            row = self.S[a]
            for b in range(a + 1, self.n):
                if row[b] > 0:
                    adj[a].append(b)
                    adj[b].append(a)
        return adj

    def positive_masks(self) -> list[int]:
        """Each node's positive neighbours as a bitmask: bit b of entry a is set iff S[a][b] > 0."""
        masks = []
        for row in self.S:
            m = 0
            for b, v in enumerate(row):
                if v > 0:
                    m |= 1 << b
            masks.append(m)
        return masks

    def negative_pairs(self) -> list[Pair]:
        out = []
        for a in range(self.n):
            row = self.S[a]
            for b in range(a + 1, self.n):
                if row[b] < 0:
                    out.append((a, b))
        return out

    def penalty(self, nodes: Sequence[int]) -> int:
        """A chain's penalty in units of 1/den: the smallest magnitude on it.

        0 means the chain is dead: a consecutive pair is not positive or the
        closing pair not negative. Node distinctness is not checked;
        enumeration guarantees it.
        """
        S = self.S
        u = nodes[0]
        p = -S[u][nodes[-1]]
        if p <= 0:
            return 0
        for v in nodes[1:]:
            r = S[u][v]
            if r < p:
                if r <= 0:
                    return 0
                p = r
            u = v
        return p

    def apply(self, nodes: Sequence[int], p: int) -> None:
        """Apply a chain in place: its consecutive pairs lose p, its closing pair gains p.

        p must not exceed penalty(nodes), so that every score keeps its sign.
        """
        S = self.S
        for u, v in zip(nodes, nodes[1:]):
            S[u][v] -= p
            S[v][u] -= p
        a, b = nodes[0], nodes[-1]
        S[a][b] += p
        S[b][a] += p


@dataclass
class Partition:
    """Node -> community assignment with its exact modularity cached."""

    assignment: tuple[int, ...]
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

    def communities(self) -> list[list[int]]:
        groups: dict[int, list[int]] = {}
        for node, c in enumerate(self.assignment):
            groups.setdefault(c, []).append(node)
        return [groups[c] for c in sorted(groups)]


def score_matrix(net: Network) -> ScoreMatrix:
    """Exact effective scores for every unordered pair, diagonal included.

    Weights are scaled by the lcm of their denominators to integers w, with
    total T; then S(a,b) = T(w_ab + w_ba) - (out_a in_b + out_b in_a),
    diag(a) = T w_aa - out_a in_a and den = T^2.
    """
    n = net.n
    scale = math.lcm(*(v.denominator for v in net.edges.values()))
    w = {q: v.numerator * (scale // v.denominator) for q, v in net.edges.items()}
    w_out = [0] * n
    w_in = [0] * n
    for (a, b), v in w.items():
        w_out[a] += v
        w_in[b] += v
    T = sum(w_out)
    S = [[0] * n for _ in range(n)]
    for a in range(n):
        row = S[a]
        for b in range(a + 1, n):
            v = (T * (w.get((a, b), 0) + w.get((b, a), 0))
                 - (w_out[a] * w_in[b] + w_out[b] * w_in[a]))
            row[b] = v
            S[b][a] = v
    diag = tuple(T * w.get((a, a), 0) - w_out[a] * w_in[a] for a in range(n))
    return ScoreMatrix(n=n, den=T * T, S=S, diag=diag)


def modularity_of_assignment(sm: ScoreMatrix, assignment: Sequence[int]) -> Fraction:
    if len(assignment) != sm.n:
        raise ValueError(f"partition covers {len(assignment)} nodes, network has {sm.n}")
    S = sm.S
    groups: dict[int, list[int]] = {}
    for node, c in enumerate(assignment):
        groups.setdefault(c, []).append(node)
    total = sum(sm.diag)
    for members in groups.values():
        for i, a in enumerate(members):
            row = S[a]
            for b in members[i + 1:]:
                total += row[b]
    return Fraction(total, sm.den)


def trivial_upper_bound(sm: ScoreMatrix) -> Fraction:
    """Every positive pair score plus all diagonal terms.

    Positive off-diagonal mass is collectible at best, positive diagonals are
    always collected, negative diagonals are unavoidable; hence this dominates
    the modularity of every partition.
    """
    positive = sum(v for a, row in enumerate(sm.S) for v in row[a + 1:] if v > 0)
    return Fraction(positive + sum(sm.diag), sm.den)
