"""Multivariate polynomials over a prime field and elements of graded free modules.

Monomials are plain exponent tuples.  A polynomial is a dict mapping
monomials to nonzero coefficients; an element of a free module maps
(position, monomial) pairs to nonzero coefficients.  Everything is
immutable by convention: arithmetic always builds fresh dicts.
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


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    """A total order on monomials, exposed through a sort key.

    key(m) is a tuple that compares the way the monomials do: bigger
    monomial, bigger key.  grevlex orders by degree first and breaks ties
    on the last nonzero exponent difference (smaller there wins).
    """

    def __init__(self, name: str):
        if name not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {name!r}")
        self.name = name

    def key(self, m: Mono):
        if self.name == "grevlex":
            return (sum(m),) + tuple(-e for e in reversed(m))
        return m  # lex

    def __repr__(self):
        return f"MonomialOrder({self.name!r})"


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


class ModuleOrder:
    """A total order on free-module terms (position, monomial).

    kind "pot" is position-over-term: lower positions dominate, ties by
    the ring order.  kind "schreyer" compares after multiplying by a
    monomial weight attached to each position, with position as the tie
    break; trivial weights give term-over-position.
    """

    def __init__(self, ring_order: MonomialOrder, kind: str = "pot",
                 weights: Optional[list] = None):
        if kind not in ("pot", "schreyer"):
            raise ValueError(f"unknown module order {kind!r}")
        self.ring_order = ring_order
        self.kind = kind
        self.weights = weights

    def key(self, t: Term):
        pos, m = t
        if self.kind == "pot":
            return (-pos, self.ring_order.key(m))
        w = self.weights[pos] if self.weights is not None else None
        mm = mono_mul(m, w) if w is not None else m
        return (self.ring_order.key(mm), -pos)


# ---------------------------------------------------------------------------
# polynomial ring

class PolyRing:
    """k[x_1..x_n] over GF(p) with a fixed global monomial order."""

    def __init__(self, variables: Iterable[str], p: int = 32003,
                 order: MonomialOrder = GREVLEX):
        self.field = PrimeField(p)
        self.p = self.field.p
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.n = len(self.variables)
        self.order = order
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
                and self.variables == other.variables
                and self.order.name == other.order.name)

    def __hash__(self):
        return hash((self.p, self.variables, self.order.name))

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

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {self.ring._zero_mono}

    def constant_coeff(self) -> int:
        return self.terms.get(self.ring._zero_mono, 0)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Poly(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        p = self.ring.p
        return Poly(self.ring, {m: p - c for m, c in self.terms.items()})

    def scale(self, c: int) -> "Poly":
        p = self.ring.p
        c %= p
        if c == 0:
            return Poly(self.ring, {})
        return Poly(self.ring, {m: (c * v) % p for m, v in self.terms.items()})

    def mono_mul(self, mono: Mono, coeff: int = 1) -> "Poly":
        p = self.ring.p
        coeff %= p
        if coeff == 0:
            return Poly(self.ring, {})
        return Poly(self.ring,
                    {mono_mul(m, mono): (c * coeff) % p
                     for m, c in self.terms.items()})

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
        return max(self.terms, key=self.ring.order.key)

    def lead_coeff(self) -> int:
        return self.terms[self.lead_mono()]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.ring.field.inv(self.lead_coeff()))

    # -- misc --------------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: self.ring.order.key(t[0]), reverse=True)

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
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

    def vec(self, terms: dict) -> "Vec":
        p = self.ring.p
        clean = {}
        for (pos, m), c in terms.items():
            if not 0 <= pos < self.rank:
                raise ValueError(f"position {pos} out of range")
            c %= p
            if c:
                clean[(pos, tuple(m))] = c
        return Vec(self, clean)

    def zero(self) -> "Vec":
        return Vec(self, {})

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

    def __hash__(self):
        return hash((self.ring, self.shifts))

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
        p = self.module.ring.p
        out = dict(self.terms)
        for t, c in other.terms.items():
            v = (out.get(t, 0) + c) % p
            if v:
                out[t] = v
            else:
                out.pop(t, None)
        return Vec(self.module, out)

    def __sub__(self, other: "Vec") -> "Vec":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Vec":
        p = self.module.ring.p
        c %= p
        if c == 0:
            return Vec(self.module, {})
        return Vec(self.module,
                   {t: (c * v) % p for t, v in self.terms.items()})

    def mono_mul(self, mono: Mono, coeff: int = 1) -> "Vec":
        p = self.module.ring.p
        coeff %= p
        if coeff == 0:
            return Vec(self.module, {})
        return Vec(self.module,
                   {(pos, mono_mul(m, mono)): (c * coeff) % p
                    for (pos, m), c in self.terms.items()})

    def poly_mul(self, f: Poly) -> "Vec":
        out = self.module.zero()
        for m, c in f.terms.items():
            out = out + self.mono_mul(m, c)
        return out

    def lead(self, morder: ModuleOrder):
        t = max(self.terms, key=morder.key)
        return t, self.terms[t]

    def component(self, j: int) -> Poly:
        return Poly(self.module.ring,
                    {m: c for (pos, m), c in self.terms.items() if pos == j})

    def to_polys(self) -> list:
        entries = [{} for _ in range(self.module.rank)]
        for (pos, m), c in self.terms.items():
            entries[pos][m] = c
        return [Poly(self.module.ring, e) for e in entries]

    def restrict(self, positions, target: FreeModule) -> "Vec":
        """Project onto a block of positions, renumbered from 0."""
        index = {p: i for i, p in enumerate(positions)}
        return Vec(target,
                   {(index[pos], m): c for (pos, m), c in self.terms.items()
                    if pos in index})

    def __eq__(self, other):
        return (isinstance(other, Vec) and self.module == other.module
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.module, frozenset(self.terms.items())))

    def __str__(self):
        return "(" + ", ".join(str(f) for f in self.to_polys()) + ")"

    def __repr__(self):
        return f"Vec{self}"


def poly_multiply(f: Poly, g: Poly) -> Poly:
    """Exact product of two polynomials in the same ring."""
    return f * g
