"""Buchberger's algorithm, normal forms, and syzygies over the polynomial ring.

All computations are homogeneous-only and work on elements of graded free
modules (a polynomial ideal is the rank-1 case).  The term order is
grevlex with position over term (poly.term_key), the standard order for
graded computations (Bayer and Stillman, Duke Math. J. 54, 1987; Greuel
and Pfister, sec. 2.3, cited below); there is no other.  Quotient rings
are handled upstream by augmenting generator lists with ideal multiples
of the basis vectors.

Every basis is grown in a GBuilder.  MembershipTester is the one place
that seeds a builder from generators (lowest degree first, each reduced
before it is installed), optionally on top of a known Groebner basis
whose pairs need no processing, and completes it.  It refuses an
inhomogeneous generator, so every seeded basis, buchberger's and the
syzygy run's included, is homogeneous.  buchberger returns that
builder's reduced basis, and the tester itself answers normal-form and
membership queries and takes further elements.

Pairs are processed lowest degree first, and two criteria skip pairs
whose S-vector is known to reduce to zero: the product criterion (coprime
leads, rank 1 only) and Buchberger's chain criterion (a third element at
the same position whose lead divides the pair's lcm, with neither of its
pairs with the two still queued).  As the input is homogeneous,
complete(d) processes only the pairs of degree <= d; the basis is then
complete up to degree d, which decides membership of every element of
degree <= d.  The sieve in modules.minimal_generators completes that far,
one candidate degree at a time.  A reduced basis is unique, so neither
the criteria nor the truncation change any result.

Syzygies come from one tagged Groebner basis run, in the "modulo"
construction (Greuel and Pfister, A Singular Introduction to Commutative
Algebra, 2nd ed., 2008, sec. 2.8; Kreuzer and Robbiano, Computational
Commutative Algebra 1, 2000, sec. 3.3).  Only the map's columns are
tagged: column c_j enters as [c_j | e_j], with a fresh tag position e_j in
the degree of the j-th source generator, and each relation n enters
untagged as [n | 0].  These generate the module U of pairs
(phi(a) + n, a).  Under pot the target positions dominate the tags, so by
elimination the basis elements whose lead sits on a tag are supported on
the tags alone and form a Groebner basis of U's part there,
{(0, a) : phi(a) in <relations>}: the preimage of the relations, read on
the source.  A tail reduction of such an element only ever meets reducers
of the same kind, so reduced_basis(from_pos) tail-reduces the tag block
alone and returns the matching part of the full reduced basis.  A zero
column is simply [0 | e_j] and yields its unit syzygy.  Pairs among the
untagged relations yield only untagged elements, so the syzygies among
the relations themselves, which no caller wants, are never formed.
"""

from __future__ import annotations

import heapq
from typing import Optional

from .poly import (FreeModule, Vec, largest_term, mono_coprime, mono_deg,
                   mono_div, mono_divides, mono_lcm, mono_mul, term_key)


class InhomogeneousInputError(ValueError):
    pass


class GBuilder:
    """Incremental Groebner basis of a homogeneous submodule.

    Elements can be installed after completion; the pair queue is kept and
    re-completed on demand, up to a degree if asked, which makes
    minimal-generator sieves cheap.
    """

    def __init__(self, module: FreeModule):
        self.module = module
        self.basis = []          # monic Vecs
        self._lead = []          # (pos, mono) per basis element
        self._by_pos = {}        # pos -> list of basis indices
        self._pairs = []         # heap of (degree, i, j), i < j
        self._queued = set()     # the (i, j) still in the heap

    # -- reduction ---------------------------------------------------------
    def normal_form(self, v: Vec) -> Vec:
        """Fully reduced remainder of v against the current basis."""
        ring = self.module.ring
        p = ring.p
        work = dict(v.terms)
        rem = {}
        while work:
            t = largest_term(work)
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
            self._queued.add((i, new_index))

    def _append(self, v: Vec) -> int:
        """Register v, made monic, as a reducer; push no S-pairs."""
        lead, c = v.lead()
        idx = len(self.basis)
        self.basis.append(v if c == 1 else
                          v.scale(self.module.ring.field.inv(c)))
        self._lead.append(lead)
        self._by_pos.setdefault(lead[0], []).append(idx)
        return idx

    def install(self, v: Vec):
        """Register v, made monic, and queue its S-pairs.

        v must be nonzero; it should be in normal form against the basis.
        """
        self._push_pairs(self._append(v))

    def complete(self, degree: Optional[int] = None):
        """Process the queued pairs, or only those of degree <= degree."""
        pairs = self._pairs
        while pairs and (degree is None or pairs[0][0] <= degree):
            _, i, j = heapq.heappop(pairs)
            self._queued.remove((i, j))
            if self._chain_covers(i, j):
                continue
            s = self._spair(i, j)
            nf = self.normal_form(s)
            if not nf.is_zero():
                self.install(nf)

    def _chain_covers(self, i: int, j: int) -> bool:
        """Buchberger's chain criterion: some k at the same position has a
        lead dividing lcm(i, j), and neither (i, k) nor (j, k) is queued.
        """
        (pos, lm_i), (_, lm_j) = self._lead[i], self._lead[j]
        lcm = mono_lcm(lm_i, lm_j)
        queued = self._queued
        for k in self._by_pos[pos]:
            if (k != i and k != j and mono_divides(self._lead[k][1], lcm)
                    and (min(i, k), max(i, k)) not in queued
                    and (min(j, k), max(j, k)) not in queued):
                return True
        return False

    def _spair(self, i: int, j: int) -> Vec:
        (pos, lm_i), (_, lm_j) = self._lead[i], self._lead[j]
        lcm = mono_lcm(lm_i, lm_j)
        vi = self.basis[i].mono_mul(mono_div(lcm, lm_i))
        vj = self.basis[j].mono_mul(mono_div(lcm, lm_j))
        return vi - vj

    # -- output ------------------------------------------------------------
    def reduced_basis(self, from_pos: int = 0) -> list:
        """Reduced, deterministically sorted Groebner basis.

        Only the elements whose lead sits at a position >= from_pos are
        built and returned.  Under pot such an element, and every reducer
        its tail meets, lives on positions >= from_pos alone, so the
        result is the matching sublist of the full reduced basis.

        The tail of each element of the minimal basis (the element minus
        its lead term) is reduced against one builder holding all of
        them, the element itself included.  That element never fires on
        its own tail: it is monic, every term met while reducing the tail
        is smaller than its lead, and a term divisible by the lead at the
        same position is at least the lead in any module term order.  The
        other reducers keep their relative order, so each element comes
        out exactly as if it were reduced against the others alone.
        """
        # minimalize: drop elements whose lead is divisible by another lead
        tails = GBuilder(self.module)
        for i, (pos, lm) in enumerate(self._lead):
            if pos < from_pos:
                continue
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
        reduced.sort(key=lambda e: (_max_degree(e[1]), term_key(e[0])))
        return [g for _, g in reduced]


def _max_degree(v: Vec) -> int:
    return max(mono_deg(m) + v.module.shifts[pos] for pos, m in v.terms)


class MembershipTester(GBuilder):
    """A builder seeded from generators, lowest degree first, and completed.

    The nonzero generators must be homogeneous, or InhomogeneousInputError
    is raised.  basis, if given, must already be a Groebner basis of the
    submodule it spans; its elements are registered as reducers before
    the generators are reduced, and no pairs among them are queued.
    """

    def __init__(self, gens, module: FreeModule, basis=()):
        super().__init__(module)
        gens = [g for g in gens if not g.is_zero()]
        for g in gens:
            if not g.is_homogeneous():
                raise InhomogeneousInputError(f"inhomogeneous generator {g}")
        for g in basis:
            self._append(g)
        for g in sorted(gens, key=_max_degree):
            nf = self.normal_form(g)
            if not nf.is_zero():
                self.install(nf)
        self.complete()

    def contains(self, v: Vec) -> bool:
        return self.normal_form(v).is_zero()


def buchberger(gens, module: FreeModule) -> list:
    """Reduced Groebner basis of the submodule generated by gens, which
    must be homogeneous."""
    return MembershipTester(gens, module).reduced_basis()


def normal_form(v: Vec, basis) -> Vec:
    """Fully reduced remainder of v against an (assumed) Groebner basis."""
    builder = GBuilder(v.module)
    for g in basis:
        builder._append(g)
    return builder.normal_form(v)


def syzygies(columns, source: FreeModule, target: FreeModule,
             relations=()) -> list:
    """Generators of {a in source : sum a_j * columns_j in <relations>}.

    columns[j], an element of target, is the image of the j-th generator
    of source and has its degree (or is zero); relations are elements of
    target.  The result is the reduced Groebner basis of that preimage
    over S, as elements of source: the tag block of a basis in which only
    the columns carry tags (see the module docstring).
    """
    ring = target.ring
    r = target.rank
    ext = FreeModule(ring, target.shifts + source.shifts)
    gens = [Vec(ext, {**c.terms, (r + j, ring._zero_mono): 1})
            for j, c in enumerate(columns)]
    gens += [Vec(ext, dict(n.terms)) for n in relations]
    return [Vec(source, {(pos - r, m): c for (pos, m), c in g.terms.items()})
            for g in MembershipTester(gens, ext).reduced_basis(from_pos=r)]
