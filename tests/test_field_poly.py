"""Field axioms, monomial orders, and polynomial arithmetic."""

from math import comb

import pytest
from hypothesis import given, strategies as st

from injcrit.field import DEFAULT_PRIME, PrimeField
from injcrit.poly import (GREVLEX, PolyRing, mono_deg, mono_div,
                          mono_divides, mono_lcm, mono_mul,
                          monomials_of_degree)

F = PrimeField(DEFAULT_PRIME)
elements = st.integers(min_value=0, max_value=DEFAULT_PRIME - 1)


@given(elements, elements, elements)
def test_field_ring_axioms(a, b, c):
    p = F.p
    assert (a + (b + c) % p) % p == ((a + b) % p + c) % p
    assert a * (b * c % p) % p == (a * b % p) * c % p
    assert a * ((b + c) % p) % p == (a * b % p + a * c % p) % p
    assert (a + (-a) % p) % p == 0
    assert a * 1 % p == a


@given(elements.filter(lambda a: a != 0))
def test_field_inverses(a):
    assert a * F.inv(a) % F.p == 1


def test_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(32001)


monos = st.lists(st.integers(min_value=0, max_value=6),
                 min_size=3, max_size=3).map(tuple)


@given(monos, monos)
def test_order_compatible_with_multiplication(a, b):
    c = (1, 2, 0)
    if GREVLEX.key(a) > GREVLEX.key(b):
        assert GREVLEX.key(mono_mul(a, c)) > GREVLEX.key(mono_mul(b, c))


@given(monos, monos)
def test_lcm_and_divisibility(a, b):
    l = mono_lcm(a, b)
    assert mono_divides(a, l) and mono_divides(b, l)
    assert mono_mul(a, mono_div(l, a)) == l
    assert mono_deg(l) <= mono_deg(a) + mono_deg(b)


def ring2():
    return PolyRing(["x", "y"])


def random_poly(ring, data):
    terms = {}
    for _ in range(data.draw(st.integers(0, 4))):
        m = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
        terms[m] = data.draw(st.integers(1, DEFAULT_PRIME - 1))
    return ring.poly(terms)


@given(st.data())
def test_multiplication_matches_naive(data):
    ring = ring2()
    f = random_poly(ring, data)
    g = random_poly(ring, data)
    naive = {}
    for mf, cf in f.terms.items():
        for mg, cg in g.terms.items():
            m = mono_mul(mf, mg)
            naive[m] = (naive.get(m, 0) + cf * cg) % DEFAULT_PRIME
    naive = {m: c for m, c in naive.items() if c}
    assert (f * g).terms == naive


@given(st.data())
def test_ring_axioms_for_polys(data):
    ring = ring2()
    f = random_poly(ring, data)
    g = random_poly(ring, data)
    h = random_poly(ring, data)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == ring.zero()


def test_monomials_of_degree_counts_and_the_empty_ring():
    assert list(monomials_of_degree(0, 0)) == [()]
    assert list(monomials_of_degree(0, 2)) == []
    assert list(monomials_of_degree(1, 3)) == [(3,)]
    for n in range(1, 5):
        for d in range(4):
            monos = list(monomials_of_degree(n, d))
            assert len(set(monos)) == len(monos) == comb(n - 1 + d, d)
            assert all(len(m) == n and mono_deg(m) == d for m in monos)


def test_degree_and_homogeneity():
    ring = ring2()
    x, y = ring.gens()
    assert (x * x + x * y).is_homogeneous()
    assert not (x * x + y).is_homogeneous()
    assert (x ** 3 * y).degree() == 4
    assert ring.zero().degree() is None


def test_string_form_is_deterministic():
    ring = ring2()
    x, y = ring.gens()
    f = (x ** 2 * y).scale(3) - y ** 3
    assert str(f) == str(ring.from_string("3*x^2*y - y^3"))


def test_free_module_degrees():
    ring = ring2()
    F = ring.free_module((0, 1))
    x, y = ring.gens()
    v = F.from_polys([x * y, y])
    assert v.is_homogeneous() and v.degree() == 2
    w = F.from_polys([x, y])
    assert not w.is_homogeneous()
