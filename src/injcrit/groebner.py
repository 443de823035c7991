"""Buchberger's algorithm, normal forms, and syzygies over the polynomial ring.

All computations are homogeneous-only and work on elements of graded free
modules (a polynomial ideal is the rank-1 case).  Quotient rings are
handled upstream by augmenting generator lists with ideal multiples of the
basis vectors.

Every basis is grown in a GBuilder.  MembershipTester is the one place
that seeds a builder from generators (lowest degree first, each reduced
before it is installed) and completes it; buchberger returns that
builder's reduced basis, and the tester itself answers normal-form and
membership queries and takes further elements.

Syzygies come from a single tagged Groebner basis run: each input column
gets a fresh tag position dominated by the ambient positions, so basis
elements supported only on tags are exactly the syzygies of the input.
A tag position takes the degree of its column, so every column must be
nonzero; columns that vanish are the caller's to handle
(modules.syzygies_over does so for columns that vanish modulo an ideal).
"""

from __future__ import annotations

import heapq
from typing import Optional

from .poly import (FreeModule, ModuleOrder, Vec, mono_coprime, mono_deg,
                   mono_div, mono_divides, mono_lcm, mono_mul)


class InhomogeneousInputError(ValueError):
    pass


def _check_homogeneous(vecs):
    for v in vecs:
        if not v.is_homogeneous():
            raise InhomogeneousInputError(f"inhomogeneous generator {v}")


class GBuilder:
    """Incremental Groebner basis of a homogeneous submodule.

    Elements can be added after initial completion; the pair queue is kept
    and re-completed on demand, which makes minimal-generator sieves cheap.
    """

    def __init__(self, module: FreeModule, morder: Optional[ModuleOrder] = None):
        self.module = module
        self.morder = morder or ModuleOrder(module.ring.order, "pot")
        self.basis = []          # monic Vecs
        self._lead = []          # (pos, mono) per basis element
        self._by_pos = {}        # pos -> list of basis indices
        self._pairs = []         # heap of (degree, i, j)

    # -- reduction ---------------------------------------------------------
    def normal_form(self, v: Vec) -> Vec:
        """Fully reduced remainder of v against the current basis."""
        ring = self.module.ring
        p = ring.p
        key = self.morder.key
        work = dict(v.terms)
        rem = {}
        while work:
            t = max(work, key=key)
            c = work[t]
            pos, m = t
            reducer = None
            for i in self._by_pos.get(pos, ()):
                lm = self._lead[i][1]
                if mono_divides(lm, m):
                    reducer = i
                    break
            if reducer is None:
                rem[t] = c
                del work[t]
                continue
            g = self.basis[reducer]
            q = mono_div(m, self._lead[reducer][1])
            for (gp, gm), gc in g.terms.items():
                tt = (gp, mono_mul(gm, q))
                val = (work.get(tt, 0) - c * gc) % p
                if val:
                    work[tt] = val
                else:
                    work.pop(tt, None)
        return Vec(self.module, rem)

    # -- completion --------------------------------------------------------
    def _push_pairs(self, new_index: int):
        pos_new, lm_new = self._lead[new_index]
        shift = self.module.shifts[pos_new]
        for i in self._by_pos.get(pos_new, ()):
            if i == new_index:
                continue
            lm_i = self._lead[i][1]
            if self.module.rank == 1 and mono_coprime(lm_new, lm_i):
                continue  # product criterion, valid in the ideal case
            deg = mono_deg(mono_lcm(lm_new, lm_i)) + shift
            heapq.heappush(self._pairs, (deg, i, new_index))

    def _append(self, v: Vec) -> int:
        """Register v, made monic, as a reducer; push no S-pairs."""
        lead, c = v.lead(self.morder)
        idx = len(self.basis)
        self.basis.append(v.scale(self.module.ring.field.inv(c)))
        self._lead.append(lead)
        self._by_pos.setdefault(lead[0], []).append(idx)
        return idx

    def _install(self, v: Vec):
        self._push_pairs(self._append(v))

    def add(self, v: Vec):
        nf = self.normal_form(v)
        if not nf.is_zero():
            self._install(nf)
        self.complete()

    def complete(self):
        while self._pairs:
            _, i, j = heapq.heappop(self._pairs)
            s = self._spair(i, j)
            nf = self.normal_form(s)
            if not nf.is_zero():
                self._install(nf)

    def _spair(self, i: int, j: int) -> Vec:
        (pos, lm_i), (_, lm_j) = self._lead[i], self._lead[j]
        lcm = mono_lcm(lm_i, lm_j)
        vi = self.basis[i].mono_mul(mono_div(lcm, lm_i))
        vj = self.basis[j].mono_mul(mono_div(lcm, lm_j))
        return vi - vj

    # -- output ------------------------------------------------------------
    def reduced_basis(self) -> list:
        """Reduced, deterministically sorted Groebner basis.

        The tail of each element of the minimal basis (the element minus
        its lead term) is reduced against one builder holding all of
        them, the element itself included.  That element never fires on
        its own tail: it is monic, every term met while reducing the tail
        is smaller than its lead, and a term divisible by the lead at the
        same position is at least the lead in any module term order.  The
        other reducers keep their relative order, so each element comes
        out exactly as if it were reduced against the others alone.
        """
        key = self.morder.key
        # minimalize: drop elements whose lead is divisible by another lead
        tails = GBuilder(self.module, self.morder)
        for i, (pos, lm) in enumerate(self._lead):
            redundant = False
            for j, (pos2, lm2) in enumerate(self._lead):
                if i == j or pos != pos2:
                    continue
                if mono_divides(lm2, lm) and (lm2 != lm or j < i):
                    redundant = True
                    break
            if not redundant:
                tails._append(self.basis[i])
        reduced = []
        for g, lead in zip(tails.basis, tails._lead):
            tail = Vec(self.module, {t: c for t, c in g.terms.items()
                                     if t != lead})
            rest = tails.normal_form(tail).terms
            reduced.append((lead, Vec(self.module, {lead: 1, **rest})))
        reduced.sort(key=lambda e: (_max_degree(e[1]), key(e[0])))
        return [g for _, g in reduced]


def _max_degree(v: Vec) -> int:
    return max(mono_deg(m) + v.module.shifts[pos] for pos, m in v.terms)


class MembershipTester(GBuilder):
    """A builder seeded from generators, lowest degree first, and completed."""

    def __init__(self, gens, module: FreeModule,
                 morder: Optional[ModuleOrder] = None):
        super().__init__(module, morder)
        for g in sorted((g for g in gens if not g.is_zero()),
                        key=_max_degree):
            nf = self.normal_form(g)
            if not nf.is_zero():
                self._install(nf)
        self.complete()

    def contains(self, v: Vec) -> bool:
        return self.normal_form(v).is_zero()


def buchberger(gens, module: FreeModule,
               morder: Optional[ModuleOrder] = None) -> list:
    """Reduced Groebner basis of the submodule generated by gens.

    Graded callers pass homogeneous generators (and get graded bases); the
    routine itself is order-generic, which the lex cross-checks rely on.
    """
    return MembershipTester(gens, module, morder).reduced_basis()


def normal_form(v: Vec, basis, module: Optional[FreeModule] = None,
                morder: Optional[ModuleOrder] = None) -> Vec:
    """Fully reduced remainder of v against an (assumed) Groebner basis."""
    module = module or v.module
    if v.module != module:
        raise ValueError("ambient module mismatch")
    builder = GBuilder(module, morder)
    for g in basis:
        builder._append(g)
    return builder.normal_form(v)


def syzygies(columns, target: FreeModule) -> list:
    """Generators of the kernel of the map target <- F defined by columns.

    F has one generator per column, in the degree of that column, so
    every column must be nonzero.  The syzygies are the elements of a
    tagged Groebner basis supported on the tag positions alone.
    """
    _check_homogeneous(columns)
    if any(c.is_zero() for c in columns):
        raise ValueError("zero column has no degree; filter before calling")
    ring = target.ring
    tags = FreeModule(ring, tuple(c.degree() for c in columns))
    ext = FreeModule(ring, target.shifts + tags.shifts)
    r = target.rank
    tagged = [Vec(ext, {**c.terms, (r + j, ring._zero_mono): 1})
              for j, c in enumerate(columns)]
    return [Vec(tags, {(pos - r, m): c for (pos, m), c in g.terms.items()})
            for g in buchberger(tagged, ext)
            if all(pos >= r for pos, _ in g.terms)]
