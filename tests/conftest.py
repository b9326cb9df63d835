"""Shared helpers: seeded random networks and convention-independent oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from modcert.graph import Network, build_network
from modcert.scores import ScoreMatrix

# A 4-cycle whose one improving split, {a, b} | {c, d}, raises modularity
# from 0 by about 1.25e-16: below float resolution next to the scores summed.
C4_NEAR_TIE = "a b\nb c\nc d\nd a 0.999999999999999\n"

WEIGHT_CHOICES = [1, 1, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(5, 4)]


def random_network(seed: int, n: int | None = None, directed: bool = False,
                   p: float = 0.5, rational_weights: bool = True, loops: bool = False) -> Network:
    """Random weighted network with at least one edge, deterministic per seed.

    With loops, each node also carries a self-loop with probability p.
    """
    rng = random.Random(seed)
    if n is None:
        n = rng.randint(3, 8)
    labels = [f"v{i}" for i in range(n)]
    triples = []
    for a in range(n):
        rng_b = range(n) if directed else range(a + 1, n)
        for b in rng_b:
            if a == b:
                continue
            if rng.random() < p:
                w = rng.choice(WEIGHT_CHOICES) if rational_weights else 1
                triples.append((labels[a], labels[b], w))
    present = {lab for t in triples for lab in t[:2]}
    for i, lab in enumerate(labels):
        if lab not in present:
            triples.append((labels[(i + 1) % n], lab, 1))
    if loops:
        for lab in labels:
            if rng.random() < p:
                triples.append((lab, lab, rng.choice(WEIGHT_CHOICES)))
    return build_network(triples, directed=directed)


def _weights(net: Network):
    """e(a, b) as a function, the total T and the out- and in-weights, summed
    from net.edges alone."""
    out = [Fraction(0)] * net.n
    inn = [Fraction(0)] * net.n
    for (a, b), w in net.edges.items():
        out[a] += w
        inn[b] += w
    return (lambda a, b: net.edges.get((a, b), Fraction(0))), sum(out), out, inn


def modularity_ordered(net: Network, assignment) -> Fraction:
    """Ordered-pair modularity straight from the raw scores; shares no code
    with the ScoreMatrix implementation."""
    e, T, out, inn = _weights(net)
    total = Fraction(0)
    for a in range(net.n):
        for b in range(net.n):
            if assignment[a] == assignment[b]:
                q = e(a, b) / T - out[a] * inn[b] / (T * T)
                total += q
    return total


def textbook_scores(net: Network) -> tuple[dict, tuple]:
    """The effective scores straight from their definition, in Fractions:
    s(a,b) = (e_ab + e_ba)/T - (out_a in_b + out_b in_a)/T^2 on pairs a < b and
    d(a) = e_aa/T - out_a in_a/T^2; shares no code with score_matrix."""
    e, T, out, inn = _weights(net)
    s = {}
    for a in range(net.n):
        for b in range(a + 1, net.n):
            s[(a, b)] = (e(a, b) + e(b, a)) / T - (
                out[a] * inn[b] + out[b] * inn[a]) / (T * T)
    d = tuple(e(a, a) / T - out[a] * inn[a] / (T * T) for a in range(net.n))
    return s, d


def lattice(n: int, s: dict) -> ScoreMatrix:
    """A synthetic ScoreMatrix from Fraction scores on pairs a < b (unlisted
    pairs score 0) and zero diagonal terms, on one denominator."""
    den = math.lcm(*(v.denominator for v in s.values()))
    S = [[0] * n for _ in range(n)]
    for (a, b), v in s.items():
        S[a][b] = S[b][a] = int(v * den)
    return ScoreMatrix(n=n, den=den, S=S, diag=(0,) * n)


def random_assignment(rng: random.Random, n: int, groups: int | None = None):
    g = groups or rng.randint(1, n)
    return [rng.randrange(g) for _ in range(n)]


def adjusted_rand_index(a, b) -> float:
    """Plain ARI from the pair-counting contingency table."""
    from collections import Counter
    from math import comb

    ct = Counter(zip(a, b))
    rows = Counter(a)
    cols = Counter(b)
    n = len(a)
    sum_ij = sum(comb(v, 2) for v in ct.values())
    sum_a = sum(comb(v, 2) for v in rows.values())
    sum_b = sum(comb(v, 2) for v in cols.values())
    expected = sum_a * sum_b / comb(n, 2)
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)
