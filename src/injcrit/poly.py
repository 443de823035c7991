"""Multivariate polynomials over a prime field and elements of graded free modules.

Monomials are exponent tuples, in every signature of the package;
only groebner.GBuilder packs each term into one int inside itself (see
the groebner module docstring).  A polynomial is a dict mapping
monomials to nonzero coefficients; an element of a free module maps
(position, monomial) pairs to nonzero coefficients.  Everything is
immutable by convention: arithmetic always builds fresh dicts.

There is one term order: grevlex on monomials and position over term
(pot) on free-module terms, all that the graded objects here need.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .field import PrimeField

Mono = tuple  # exponent tuple, one entry per variable
Term = tuple  # (position, Mono) inside a free module


# ---------------------------------------------------------------------------
# monomial helpers

def mono_deg(m: Mono) -> int:
    return sum(m)


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True iff a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b: Mono, a: Mono) -> Mono:
    """b / a, assuming divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_coprime(a: Mono, b: Mono) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def monomials_of_degree(n: int, d: int):
    """Every exponent tuple of n variables and total degree d >= 0."""
    if n <= 1:
        if n == 1 or d == 0:
            yield (d,) * n
        return
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - e):
            yield (e,) + rest


# ---------------------------------------------------------------------------
# the term order: grevlex on monomials, position over term on free modules

class MonomialOrder:
    """grevlex, the one monomial order, exposed through a sort key.

    key(m) is a tuple that compares the way the monomials do: bigger
    monomial, bigger key.  grevlex orders by degree first and breaks ties
    on the last nonzero exponent difference (smaller there wins).  It is
    a class with one instance, GREVLEX, rather than a function, because
    bench/tracer.py counts the calls of MonomialOrder.key by rebinding it.
    """

    def key(self, m: Mono):
        return (sum(m),) + tuple(-e for e in reversed(m))


GREVLEX = MonomialOrder()


def term_key(t: Term):
    """Sort key of a free-module term (position, monomial) under pot:
    lower positions dominate, ties by grevlex."""
    return (-t[0], GREVLEX.key(t[1]))


def _add_terms(a: dict, b: dict, p: int) -> dict:
    """The sum mod p of two term dicts (monomial or term -> coefficient):
    the terms of a in their order, then those only b has."""
    out = dict(a)
    for t, c in b.items():
        v = (out.get(t, 0) + c) % p
        if v:
            out[t] = v
        else:
            out.pop(t, None)
    return out


# ---------------------------------------------------------------------------
# polynomial ring

class PolyRing:
    """k[x_1..x_n] over GF(p), its monomials ordered by grevlex."""

    def __init__(self, variables: Iterable[str], p: int = 32003):
        self.field = PrimeField(p)
        self.p = self.field.p
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.n = len(self.variables)
        self._zero_mono = (0,) * self.n

    # -- constructors ------------------------------------------------------
    def poly(self, terms: dict) -> "Poly":
        p = self.p
        clean = {}
        for m, c in terms.items():
            c %= p
            if c:
                clean[tuple(m)] = c
        return Poly(self, clean)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(1)

    def constant(self, c: int) -> "Poly":
        c %= self.p
        return Poly(self, {self._zero_mono: c} if c else {})

    def var(self, i: int) -> "Poly":
        m = [0] * self.n
        m[i] = 1
        return Poly(self, {tuple(m): 1})

    def gens(self) -> list:
        return [self.var(i) for i in range(self.n)]

    def linear_form(self, coeffs: Iterable[int]) -> "Poly":
        terms = {}
        for i, c in enumerate(coeffs):
            c %= self.p
            if c:
                m = [0] * self.n
                m[i] = 1
                terms[tuple(m)] = c
        return Poly(self, terms)

    def from_string(self, text: str) -> "Poly":
        from .parse import parse_polynomial
        return parse_polynomial(self, text)

    def free_module(self, shifts: Iterable[int]) -> "FreeModule":
        return FreeModule(self, tuple(shifts))

    def mono_str(self, m: Mono) -> str:
        parts = []
        for name, e in zip(self.variables, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.p == other.p
                and self.variables == other.variables)

    def __repr__(self):
        return f"GF({self.p})[{','.join(self.variables)}]"


class Poly:
    """A polynomial: dict monomial -> nonzero coefficient in [0, p)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Total degree, or None for the zero polynomial."""
        return max(map(mono_deg, self.terms)) if self.terms else None

    def is_homogeneous(self) -> bool:
        degs = set(map(mono_deg, self.terms))
        return len(degs) <= 1

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.ring, _add_terms(self.terms, other.terms,
                                          self.ring.p))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        p = self.ring.p
        return Poly(self.ring, {m: p - c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.ring.p
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Poly(self.ring, out)

    def __pow__(self, e: int) -> "Poly":
        result = self.ring.one()
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- leading data ------------------------------------------------------
    def lead_mono(self) -> Mono:
        return max(self.terms, key=GREVLEX.key)

    # -- misc --------------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(),
                           key=lambda t: GREVLEX.key(t[0]), reverse=True):
            ms = self.ring.mono_str(m)
            if ms == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(ms)
            else:
                parts.append(f"{c}*{ms}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# graded free modules

class FreeModule:
    """A graded free module over a PolyRing: rank plus generator degrees.

    Generator j sits in degree shifts[j]; an element is homogeneous of
    degree d when its component at position j has polynomial degree
    d - shifts[j].
    """

    def __init__(self, ring: PolyRing, shifts: tuple):
        self.ring = ring
        self.shifts = tuple(shifts)
        self.rank = len(self.shifts)

    def gen(self, j: int) -> "Vec":
        if not 0 <= j < self.rank:
            raise ValueError(f"position {j} out of range")
        return Vec(self, {(j, self.ring._zero_mono): 1})

    def from_polys(self, entries: list) -> "Vec":
        if len(entries) != self.rank:
            raise ValueError("entry count must equal rank")
        terms = {}
        for j, f in enumerate(entries):
            for m, c in f.terms.items():
                terms[(j, m)] = c
        return Vec(self, terms)

    def __eq__(self, other):
        return (isinstance(other, FreeModule) and self.ring == other.ring
                and self.shifts == other.shifts)

    def __repr__(self):
        return f"FreeModule({self.ring}, shifts={self.shifts})"


class Vec:
    """An element of a graded free module: dict (pos, mono) -> coeff."""

    __slots__ = ("module", "terms")

    def __init__(self, module: FreeModule, terms: dict):
        self.module = module
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Degree if homogeneous (accounting for shifts), else raises."""
        if not self.terms:
            return None
        degs = {mono_deg(m) + self.module.shifts[pos]
                for pos, m in self.terms}
        if len(degs) != 1:
            raise ValueError("inhomogeneous free-module element")
        return degs.pop()

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) + self.module.shifts[pos]
                for pos, m in self.terms}
        return len(degs) <= 1

    def __add__(self, other: "Vec") -> "Vec":
        return Vec(self.module, _add_terms(self.terms, other.terms,
                                           self.module.ring.p))

    def poly_mul(self, f: Poly) -> "Vec":
        p = self.module.ring.p
        out = {}
        for m2, c2 in f.terms.items():
            for (pos, m1), c1 in self.terms.items():
                t = (pos, mono_mul(m1, m2))
                v = (out.get(t, 0) + c1 * c2) % p
                if v:
                    out[t] = v
                else:
                    out.pop(t, None)
        return Vec(self.module, out)

    def component(self, j: int) -> Poly:
        return Poly(self.module.ring,
                    {m: c for (pos, m), c in self.terms.items() if pos == j})

    def __eq__(self, other):
        return (isinstance(other, Vec) and self.module == other.module
                and self.terms == other.terms)

    def __str__(self):
        return "(" + ", ".join(str(self.component(j))
                               for j in range(self.module.rank)) + ")"

    def __repr__(self):
        return f"Vec{self}"

