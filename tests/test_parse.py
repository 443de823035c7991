"""Input grammar: acceptance, rejection, and positioned errors."""

import pytest
from hypothesis import given, strategies as st

from injcrit.parse import ParseError, parse_polynomial
from injcrit.poly import PolyRing

from conftest import scaled


@pytest.fixture
def ring():
    return PolyRing(["x", "y"])


def test_basic_terms(ring):
    x, y = ring.gens()
    assert parse_polynomial(ring, "3*x^2*y - y^3") == \
        scaled(x ** 2 * y, 3) - y ** 3
    assert parse_polynomial(ring, "x") == x
    assert parse_polynomial(ring, "0").is_zero()
    assert parse_polynomial(ring, "7") == ring.constant(7)


def test_parentheses_and_signs(ring):
    x, y = ring.gens()
    assert parse_polynomial(ring, "(x + y)*(x - y)") == x ** 2 - y ** 2
    assert parse_polynomial(ring, "-x") == -x
    assert parse_polynomial(ring, "--x") == x
    assert parse_polynomial(ring, "x - -y") == x + y


def test_juxtaposition_rejected(ring):
    with pytest.raises(ParseError, match="products"):
        parse_polynomial(ring, "3x")
    with pytest.raises(ParseError, match="products"):
        parse_polynomial(ring, "x y")
    with pytest.raises(ParseError, match="products"):
        parse_polynomial(ring, "2(x + y)")


def test_unknown_variable_positioned(ring):
    with pytest.raises(ParseError) as info:
        parse_polynomial(ring, "x + z^2")
    assert "z" in str(info.value) and "column 4" in str(info.value)


def test_malformed(ring):
    for text in ("x +", "^2", "(x", "x ^ y", "x & y"):
        with pytest.raises(ParseError):
            parse_polynomial(ring, text)


@pytest.mark.parametrize("text,column", [("$", 0), ("x  $y", 3),
                                         ("x + y &", 6), (" x\t@", 3)])
def test_unexpected_character_positioned(ring, text, column):
    """The column is that of the character, not of the blanks before it."""
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse_polynomial(ring, text)
    assert info.value.column == column


def test_coefficients_reduced_mod_p(ring):
    assert parse_polynomial(ring, "32003*x").is_zero()
    assert parse_polynomial(ring, "32004*x") == ring.gens()[0]


@given(st.data())
def test_round_trip_through_str(data):
    ring = PolyRing(["x", "y"])
    terms = {}
    for _ in range(data.draw(st.integers(0, 4))):
        m = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
        terms[m] = data.draw(st.integers(1, 32002))
    f = ring.poly(terms)
    assert parse_polynomial(ring, str(f)) == f
