import time
from decimal import Decimal
from fractions import Fraction

import pytest

from modcert.datasets import CORPUS, load_network
from modcert.document import network_fingerprint
from modcert.graph import MAX_DECIMAL_EXPONENT, GraphError, as_fraction, build_network
from modcert.edgelist import parse_edge_list
from modcert.generator import generate_planted
from modcert.scores import score_matrix


def test_single_edge_dyad():
    net = build_network([("a", "b", 1)])
    assert net.n == 2
    assert net.edges == {(0, 1): 1, (1, 0): 1}


def test_duplicate_edges_sum():
    net = build_network([("a", "b", 1), ("a", "b", 2)])
    assert net.edges == {(0, 1): 3, (1, 0): 3}


def test_negative_weight_rejected():
    with pytest.raises(GraphError, match="negative weight"):
        build_network([("a", "b", -1)])


def test_zero_total_weight_rejected():
    with pytest.raises(GraphError):
        build_network([("a", "b", 0)])


def test_labels_interned_in_first_appearance_order():
    net = build_network([("x", "y", 1), ("z", "x", 1)])
    assert net.node_labels == ("x", "y", "z")


def test_directed_stores_single_orientation():
    net = build_network([("a", "b", 1)], directed=True)
    assert net.edges == {(0, 1): 1}


def test_self_loop_counted_once():
    net = build_network([("a", "a", 1), ("a", "b", 1)])
    assert net.edges == {(0, 0): 1, (0, 1): 1, (1, 0): 1}


def test_as_fraction_decimal_strings_exact():
    assert as_fraction("0.5") == Fraction(1, 2)
    assert as_fraction("1e-3") == Fraction(1, 1000)
    assert as_fraction("3/4") == Fraction(3, 4)
    with pytest.raises(GraphError):
        as_fraction("x")


@pytest.mark.parametrize("value", [
    "inf", "-inf", "nan", "Infinity", Decimal("Infinity"), Decimal("NaN"),
    float("inf"), float("-inf"), float("nan"),
], ids=repr)
def test_as_fraction_rejects_non_finite(value):
    with pytest.raises(GraphError, match="non-finite weight"):
        as_fraction(value)
    with pytest.raises(GraphError, match="non-finite weight"):
        build_network([("a", "b", value)])


@pytest.mark.parametrize("value", ["1e5000", "1e-5000", "1E+4301", "0.1e-4300", Decimal("1e5000"), "1e999999999"],
                         ids=repr)
def test_as_fraction_rejects_huge_exponents(value):
    # "1e10000000" alone would build a 33-million-bit integer
    start = time.perf_counter()
    with pytest.raises(GraphError, match="exponent out of range"):
        as_fraction(value)
    with pytest.raises(GraphError, match="line 2: bad weight"):
        parse_edge_list(f"a b 1\nb c {value}\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("value", [
    pytest.param("1" + "0" * 4300, id="1e4300-written-out"),
    pytest.param("9" * 4301, id="4301-digit-integer"),
    pytest.param("1." + "0" * 4300, id="4301-digit-decimal"),
    pytest.param("1" + "0" * 10**6, id="1e1000000-written-out"),
])
def test_as_fraction_rejects_too_many_digits(value):
    # converting a million-digit coefficient took 30 s, quadratic in its length
    start = time.perf_counter()
    with pytest.raises(GraphError, match="too many digits"):
        as_fraction(value)
    with pytest.raises(GraphError, match="line 2: bad weight"):
        parse_edge_list(f"a b 1\nb c {value}\n")
    assert time.perf_counter() - start < 1


def test_as_fraction_keeps_exponents_in_range():
    assert MAX_DECIMAL_EXPONENT == 4300
    assert as_fraction("9" * 4300) == 10**4300 - 1
    assert parse_edge_list("a b " + "9" * 4300).edges[(0, 1)] == 10**4300 - 1
    assert as_fraction("0." + "9" * 4300) == 1 - Fraction(1, 10**4300)
    assert as_fraction("1e300") == 10**300
    assert as_fraction("1e-3") == Fraction(1, 1000)
    assert as_fraction("1e4300") == 10**4300
    assert as_fraction("1e-4300") == Fraction(1, 10**4300)
    assert as_fraction(0.1) == Fraction(0.1)
    assert as_fraction(5e-324) == Fraction(5e-324)  # the least float, exponent -1074


def test_parse_edge_list_defaults_and_comments():
    net = parse_edge_list("a b\nb c  # a comment\n\n# full comment\n")
    assert net.n == 3
    assert net.edges == {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1}


def test_parse_edge_list_decimal_weight_exact():
    net = parse_edge_list("a b 0.5")
    assert net.edges[(0, 1)] == Fraction(1, 2)


def test_parse_edge_list_bad_weight_line_number():
    with pytest.raises(GraphError, match="line 1"):
        parse_edge_list("a b x")


def test_parse_edge_list_field_count():
    with pytest.raises(GraphError, match="line 2"):
        parse_edge_list("a b\na b 1 extra")


@pytest.mark.parametrize("net", [
    *(pytest.param(lambda name=name: load_network(name), id=name)
      for name, entry in CORPUS.items() if entry.bundled),
    pytest.param(lambda: generate_planted(30, 3, 0.5, 0.15, seed=0), id="planted"),
])
def test_integral_weights_are_ints(net):
    # type(w) is int, not ==: a Fraction(1) would compare equal
    assert all(type(w) is int for w in net().edges.values())


def test_integral_weight_spellings_agree():
    nets = [parse_edge_list(f"a b\nb c\nc d\nd a\na c {two}\nc c {two}\n")
            for two in ("2", "2.0", "4/2", "20e-1")]
    for net in nets:
        assert type(net.edges[(0, 2)]) is int
        assert net.edges == nets[0].edges
        assert vars(score_matrix(net)) == vars(score_matrix(nets[0]))
        assert network_fingerprint(net) == network_fingerprint(nets[0])


def test_non_integral_weights_stay_exact_fractions():
    net = parse_edge_list("a b 0.1\nb c 2/3\nc a 1/2\na c 0.5\n", directed=True)
    assert net.edges == {(0, 1): Fraction(1, 10), (1, 2): Fraction(2, 3), (2, 0): Fraction(1, 2),
                         (0, 2): Fraction(1, 2)}
    assert all(type(w) is Fraction for w in net.edges.values())
    # 1/2 + 0.5 on one undirected pair sums to an integer, stored as one
    net = parse_edge_list("a b 1/2\nb a 0.5\nb c 1/3\n")
    assert net.edges == {(0, 1): 1, (1, 0): 1, (1, 2): Fraction(1, 3), (2, 1): Fraction(1, 3)}
    assert type(net.edges[(0, 1)]) is int
