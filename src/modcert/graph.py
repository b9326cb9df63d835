"""Weighted network container with exact rational edge weights.

Every weight is stored as an exact rational: a plain `int` when it is
integral, a `fractions.Fraction` otherwise, so that every quantity derived
from them (edge scores, modularity values, bounds) is exact. Networks are
value objects: construct once, then treat as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Sequence

MAX_DECIMAL_EXPONENT = 4300  # CPython's int <-> str digit limit, sys.int_info.default_max_str_digits
# it caps a decimal weight's exponent and its count of significant digits alike


class GraphError(ValueError):
    """Invalid network input: negative weights, empty networks, bad lines."""


def as_fraction(value) -> Fraction:
    """Convert ints, Fractions, Decimals and decimal strings to an exact Fraction.

    NaN, infinities, exponents past +-MAX_DECIMAL_EXPONENT and more than
    MAX_DECIMAL_EXPONENT significant digits raise GraphError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            decimal = Decimal(value)
        except InvalidOperation:
            try:
                return Fraction(value)  # "3/4" style
            except (ValueError, ZeroDivisionError):
                raise GraphError(f"unparseable weight: {value!r}") from None
    elif isinstance(value, (Decimal, float)):
        # floats are accepted verbatim (every finite float is an exact binary rational)
        decimal = Decimal(value)
    else:
        raise GraphError(f"unsupported weight type: {type(value).__name__}")
    if not decimal.is_finite():
        raise GraphError(f"non-finite weight: {value!r}")
    exponent = decimal.as_tuple().exponent
    if abs(exponent) > MAX_DECIMAL_EXPONENT:
        raise GraphError(f"weight exponent out of range: {value!r}")
    # the digit count without building the digit tuple; converting a long
    # coefficient to an integer takes time quadratic in its length
    if decimal.adjusted() - exponent + 1 > MAX_DECIMAL_EXPONENT:
        raise GraphError(f"weight has too many digits: {value!r}")
    return Fraction(decimal)


@dataclass
class Network:
    """Node-labelled weighted (di)graph.

    `edges` maps ordered dense-id pairs (a, b) to the weight e(a, b), an
    `int` when it is integral and a `Fraction` otherwise (as `build_network`
    stores it). Undirected networks store both orientations of every edge,
    so the total weight T counts each undirected edge twice (self-loops once).
    """

    node_labels: tuple[str, ...]
    edges: dict[tuple[int, int], int | Fraction]
    directed: bool

    def __post_init__(self):
        for (a, b), w in self.edges.items():
            if w < 0:
                raise GraphError(f"negative weight on edge ({a}, {b})")
        # with no negative weight, the total is zero only if every weight is
        if not any(self.edges.values()):
            raise GraphError("network has zero total weight")

    @property
    def n(self) -> int:
        return len(self.node_labels)

    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.node_labels)}


def build_network(edge_list: Iterable[Sequence], directed: bool = False) -> Network:
    """Build a Network from (labelA, labelB, weight) triples.

    Labels are interned to dense ids in first-appearance order; duplicate
    (A, B) entries are summed. Undirected input stores both orientations.
    An integral weight is stored as an `int`, any other as a `Fraction`.
    Raises GraphError on negative weights or zero total weight.
    """
    labels: list[str] = []
    index: dict[str, int] = {}

    def intern(lab) -> int:
        lab = str(lab)
        if lab not in index:
            index[lab] = len(labels)
            labels.append(lab)
        return index[lab]

    sums: dict[tuple[int, int], int | Fraction] = {}
    for lineno, item in enumerate(edge_list, start=1):
        if len(item) == 2:
            la, lb = item
            w = 1
        else:
            la, lb, w = item
            if type(w) is not int:
                w = as_fraction(w)
        if w < 0:
            raise GraphError(f"negative weight in entry {lineno}: {item!r}")
        a, b = intern(la), intern(lb)
        sums[(a, b)] = sums.get((a, b), 0) + w
        if not directed and a != b:
            sums[(b, a)] = sums.get((b, a), 0) + w
    if not sums:
        raise GraphError("no edges given")
    # a weight like "2.0", or fractions that sum to an integer, is stored as an int
    edges = {pair: w.numerator if w.denominator == 1 else w for pair, w in sums.items()}
    return Network(node_labels=tuple(labels), edges=edges, directed=directed)
