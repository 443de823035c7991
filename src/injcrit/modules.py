"""Presentations of graded rings and modules, free resolutions, and Ext.

A ring is a quotient R = S/I of a polynomial ring S by a homogeneous
ideal; a module is a cokernel presentation over R (generator degrees plus
a homogeneous relation matrix).  Every computation over R is realized
over S by augmenting generator lists with ideal multiples of the ambient
basis vectors, then projecting back.

One routine, minimalize_presentation, presents every subquotient: the
submodule that given vectors generate in the cokernel of given relations,
minimally (the "modulo" construction of Greuel and Pfister, A Singular
Introduction to Commutative Algebra, sec. 2.8).  It gives a module's
minimal model, the module over S that a resolution over S starts from,
and each Ext module, ker/im of the dualized resolution.  Each
Hom(F_i, C), a direct sum of shifted copies of C, enters only as plain
data: a free cover and C's relations copied into it.  Kernels of maps
come from syzygies.  Constructing a GradedModule reduces every relation
mod I, so one is made only for a module read as a module: the one ext
returns and the minimal model a resolution starts from.
GradedModule.is_zero tests every generator against the relations.  Each
presentation has one Groebner basis, its relation tester over S; the
ring's is that of R as a module.
"""

from __future__ import annotations

from typing import Optional

# buchberger is re-exported: bench/tracer.py wraps it under this name too.
from .groebner import MembershipTester, buchberger, syzygies  # noqa: F401
from .poly import (FreeModule, Poly, PolyRing, Vec, mono_deg)


class ZeroModuleError(ValueError):
    """An invariant of the zero module was requested."""


class ResolutionCapError(RuntimeError):
    """A resolution would need more steps than the configured cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"resolution needs {needed} steps but the cap is {cap}")
        self.needed = needed
        self.cap = cap


def _vec_sort_key(v: Vec):
    """Deterministic total order on homogeneous vectors: degree, then terms."""
    return (v.degree() or 0,
            tuple(sorted((pos,) + tuple(m) + (c,)
                         for (pos, m), c in v.terms.items())))


class RingPresentation:
    """S/I: a polynomial ring with a homogeneous ideal and cached GB data.

    res_cap bounds every resolution over R (None: 2n + 4 steps); the
    resolutions over S need none, since they end after n steps.
    """

    def __init__(self, poly_ring: PolyRing, ideal_gens=(),
                 domain_flag: bool = False, res_cap: Optional[int] = None):
        self.poly_ring = poly_ring
        gens = []
        for f in ideal_gens:
            if f.is_zero():
                continue
            if not f.is_homogeneous():
                raise ValueError(f"inhomogeneous ideal generator {f}")
            gens.append(f)
        self.ideal_gens = tuple(gens)
        self.domain_flag = domain_flag
        self.res_cap = 2 * poly_ring.n + 4 if res_cap is None else res_cap
        self._cache = {}

    # -- basic data --------------------------------------------------------
    @property
    def is_ambient(self) -> bool:
        return not self.ideal_gens

    def ambient(self) -> "RingPresentation":
        if "ambient" not in self._cache:
            self._cache["ambient"] = RingPresentation(self.poly_ring, ())
        return self._cache["ambient"]

    @property
    def ideal_gb(self) -> list:
        """Reduced Groebner basis of the ideal, as polynomials.

        Read off the relation tester of R as a module over itself, so
        the ideal is completed once per ring and shared with that module.
        """
        if "ideal_gb" not in self._cache:
            self._cache["ideal_gb"] = [
                v.component(0) for v in self._ideal_tester().reduced_basis()]
        return self._cache["ideal_gb"]

    def _ideal_tester(self) -> MembershipTester:
        return self.as_module().rel_tester

    def _nf_terms(self, terms: dict) -> dict:
        """Normal form mod the ideal of one component, as monomial terms."""
        mt = self._ideal_tester()
        rem = mt.normal_form(Vec(mt.module, {(0, m): c
                                             for m, c in terms.items()}))
        return {m: c for (_, m), c in rem.terms.items()}

    def nf_poly(self, f: Poly) -> Poly:
        """Normal form of a polynomial modulo the ideal."""
        if self.is_ambient:
            return f
        return Poly(f.ring, self._nf_terms(f.terms))

    def nf_vec(self, v: Vec) -> Vec:
        """Normal form of a vector modulo I * F, component by component.

        Only the positions that carry terms are reduced; the result lists
        them in increasing position order, each with its terms in the
        order the reduction emits them.
        """
        if self.is_ambient:
            return v
        blocks = {}
        for (pos, m), c in v.terms.items():
            blocks.setdefault(pos, {})[m] = c
        terms = {}
        for pos in sorted(blocks):
            for m, c in self._nf_terms(blocks[pos]).items():
                terms[(pos, m)] = c
        return Vec(v.module, terms)

    def ideal_columns(self, module: FreeModule) -> list:
        """The vectors g * e_j spanning I * F inside a free module F."""
        cols = []
        for j in range(module.rank):
            for g in self.ideal_gens:
                cols.append(module.gen(j).poly_mul(g))
        return cols

    # -- canonical modules -------------------------------------------------
    def as_module(self) -> "GradedModule":
        if "as_module" not in self._cache:
            self._cache["as_module"] = GradedModule(self, (0,), ())
        return self._cache["as_module"]

    def residue_field(self) -> "GradedModule":
        """k = R/m as a cyclic module."""
        if "residue_field" not in self._cache:
            F = self.poly_ring.free_module((0,))
            rels = [F.from_polys([self.poly_ring.var(i)])
                    for i in range(self.poly_ring.n)]
            self._cache["residue_field"] = GradedModule(self, (0,), rels)
        return self._cache["residue_field"]

    def zero_module(self) -> "GradedModule":
        return GradedModule(self, (), ())

    def cache_key(self):
        return (self.poly_ring.p, self.poly_ring.variables,
                tuple(frozenset(g.terms.items()) for g in self.ideal_gens))

    def __eq__(self, other):
        return (isinstance(other, RingPresentation)
                and self.cache_key() == other.cache_key())

    def __repr__(self):
        if self.is_ambient:
            return repr(self.poly_ring)
        return f"{self.poly_ring}/({', '.join(map(str, self.ideal_gens))})"


class GradedModule:
    """A cokernel presentation of a graded module over a RingPresentation."""

    def __init__(self, ring: RingPresentation, shifts, relations=(),
                 name: Optional[str] = None):
        self.ring = ring
        self.shifts = tuple(shifts)
        self.cover = ring.poly_ring.free_module(self.shifts)
        self.name = name
        rels = []
        for idx, col in enumerate(relations):
            if col.module != self.cover:
                col = Vec(self.cover, dict(col.terms))
            col = ring.nf_vec(col)
            if col.is_zero():
                continue
            if not col.is_homogeneous():
                degs = sorted({mono_deg(m) + self.shifts[pos]
                               for pos, m in col.terms})
                raise ValueError(
                    f"relation column {idx} is inhomogeneous "
                    f"(term degrees {degs})")
            rels.append(col)
        self.relations = tuple(rels)
        self._cache = {}

    # -- membership --------------------------------------------------------
    @property
    def rel_tester(self) -> MembershipTester:
        if "rel_mt" not in self._cache:
            self._cache["rel_mt"] = MembershipTester(
                list(self.relations) + self.ring.ideal_columns(self.cover),
                self.cover)
        return self._cache["rel_mt"]

    def is_zero(self) -> bool:
        return all(self.rel_tester.contains(self.cover.gen(j))
                   for j in range(self.cover.rank))

    # -- derived presentations --------------------------------------------
    def minimal_model(self) -> "GradedModule":
        if "minimal" not in self._cache:
            self._cache["minimal"] = minimalize_presentation(
                self.ring, None, self.cover, self.relations)
        return self._cache["minimal"]

    def cache_key(self):
        return (self.ring.cache_key(), self.shifts,
                tuple(sorted(map(_vec_sort_key, self.relations))))

    def __repr__(self):
        label = self.name or "module"
        return (f"GradedModule({label}: {len(self.shifts)} gens, "
                f"{len(self.relations)} relations over {self.ring})")


# ---------------------------------------------------------------------------
# submodule machinery over a quotient ring

def syzygies_over(ring: RingPresentation, columns, source: FreeModule,
                  target: FreeModule, relations=()) -> list:
    """Generators of {a in source : sum a_j * columns_j in <relations>}
    over R = S/I, with I * target joining the relations.

    The relations and the ideal columns enter the Groebner run untagged
    (see groebner.syzygies); the result is not reduced mod I, which every
    caller does through minimal_generators, directly or in
    minimalize_presentation.  A column that
    vanishes mod I gets its unit syzygy, in its source generator's degree.
    """
    return syzygies(columns, source, target,
                    list(relations) + ring.ideal_columns(target))


def minimal_generators(ring: RingPresentation, vecs, module: FreeModule,
                       base=()) -> list:
    """The vecs, reduced mod I, that minimally generate the image of <vecs>
    in F/(<base> + I*F), F the free module `module`.

    By graded Nakayama, greedily keeping, lowest degree first, the vectors
    not in the span of base, I*F and the ones kept before yields a minimal
    set.  Deciding that for a candidate of degree d needs the tester's
    basis only up to degree d, so the base elements of degree <= d are
    installed only when the sieve reaches d, and the tester is completed
    no further.  The tester starts from ideal_gb * e_j, which under pot is
    already a Groebner basis of I*F; membership does not depend on the
    basis, so neither does the result.
    """
    basis = [module.gen(j).poly_mul(g)
             for j in range(module.rank) for g in ring.ideal_gb]
    mt = MembershipTester((), module, basis=basis)
    pending = sorted((b for b in base if not b.is_zero()), key=_vec_sort_key)
    installed = 0
    kept = []
    for v in sorted((ring.nf_vec(v) for v in vecs), key=_vec_sort_key):
        if v.is_zero():
            continue
        d = v.degree()
        while installed < len(pending) and pending[installed].degree() <= d:
            nf = mt.normal_form(pending[installed])
            installed += 1
            if not nf.is_zero():
                mt.install(nf)
        mt.complete(d)
        nf = mt.normal_form(v)
        if not nf.is_zero():
            kept.append(v)
            mt.install(nf)
    return kept


def kernel_of_cokernel_map(ring: RingPresentation, phi_columns,
                           source: FreeModule, target: FreeModule) -> list:
    """Minimal generators of the kernel of phi: source -> target over R.

    phi_columns[j] is the image in the free module target of the j-th
    generator of the free module source, in that generator's degree.  The
    result is one syzygy run (syzygies_over) sieved by minimal_generators:
    the next map of a free resolution.
    """
    if len(phi_columns) != source.rank:
        raise ValueError("one column required per source generator")
    if not phi_columns:
        return []
    syz = syzygies_over(ring, phi_columns, source, target)
    return minimal_generators(ring, syz, source)


def minimalize_presentation(ring: RingPresentation, gens,
                            cover: FreeModule, base) -> GradedModule:
    """The submodule <gens> of coker(base) over ring, minimally presented;
    gens None stands for the unit vectors of the free module cover, and so
    for coker(base) itself.

    One routine in three steps, the "modulo" construction (Greuel and
    Pfister, sec. 2.8): minimal_generators sieves gens against base and
    I*F, one syzygy run on the kept generators modulo base gives the
    relations, and minimal_generators prunes those.  The kept generators
    are minimal, so no relation has a unit entry.  Neither gens nor base
    need be reduced mod I.  When gens is None and no base element has a
    constant term, every unit vector is kept and the relations are base
    itself, so they are pruned without the syzygy run.
    """
    if gens is None:
        zero = ring.poly_ring._zero_mono
        if all(m != zero for b in base for _, m in b.terms):
            return GradedModule(ring, cover.shifts,
                                minimal_generators(ring, base, cover))
        gens = [cover.gen(j) for j in range(cover.rank)]
    kept = minimal_generators(ring, gens, cover, base)
    if not kept:
        return ring.zero_module()
    sub = ring.poly_ring.free_module(tuple(v.degree() for v in kept))
    syz = syzygies_over(ring, kept, sub, cover, base)
    return GradedModule(ring, sub.shifts, minimal_generators(ring, syz, sub))


# ---------------------------------------------------------------------------
# free resolutions

class FreeResolution:
    """A (truncated) minimal graded free resolution of a module whose
    minimal model is mm, over mm's ring.

    covers[i] is the i-th free module; diffs[i] lists the columns of the
    differential covers[i+1] -> covers[i].  complete means the last
    computed syzygy module was zero, so the resolution ends there.  cap
    bounds the number of maps; None leaves it unbounded.
    """

    def __init__(self, mm: GradedModule, cap: Optional[int]):
        self.ring = mm.ring
        self.covers = [mm.cover]
        self.diffs = []
        self.cap = cap
        self._add_map(list(mm.relations))

    @property
    def num_diffs(self) -> int:
        return len(self.diffs)

    def extend_to(self, steps: int):
        while not self.complete and len(self.diffs) < steps:
            if self.cap is not None and len(self.diffs) >= self.cap:
                raise ResolutionCapError(steps, self.cap)
            self._step()

    def _step(self):
        self._add_map(kernel_of_cokernel_map(
            self.ring, self.diffs[-1], self.covers[-1], self.covers[-2]))

    def _add_map(self, gens: list):
        """The next map, with columns gens; none ends the resolution."""
        self.complete = not gens
        if gens:
            self.diffs.append(gens)
            self.covers.append(self.ring.poly_ring.free_module(
                tuple(g.degree() for g in gens)))


def resolution(M: GradedModule, base: str = "R",
               steps: int = 0) -> FreeResolution:
    """Minimal graded free resolution of M, truncated after `steps` maps.

    base "S" resolves over the ambient polynomial ring, uncapped: by
    Hilbert's syzygy theorem it ends after n maps.  base "R" resolves over
    the quotient, which generally never ends, so it stops at the ring's
    res_cap with a ResolutionCapError.
    """
    if base not in ("R", "S"):
        raise ValueError("base must be 'R' or 'S'")
    key = ("res", base)
    if key not in M._cache:
        if base == "R" or M.ring.is_ambient:
            mm = M.minimal_model()
        else:  # M over the ambient polynomial ring
            mm = minimalize_presentation(
                M.ring.ambient(), None, M.cover,
                list(M.relations) + M.ring.ideal_columns(M.cover))
        M._cache[key] = FreeResolution(
            mm, M.ring.res_cap if base == "R" else None)
    res = M._cache[key]
    res.extend_to(steps)
    return res


# ---------------------------------------------------------------------------
# Hom and Ext

def hom_cover_into(cover: FreeModule, C: GradedModule) -> tuple:
    """Hom(F, C) for free F, a direct sum of shifted copies of C, as the
    pair (free cover, relations): one copy of C's relations per basis
    vector of F, reduced mod I as C's are.

    Generator (j, k) (flattened j * rank_C + k) is the hom sending the
    j-th basis vector of F to the k-th generator of C.
    """
    gC = C.cover.rank
    hom_cover = C.ring.poly_ring.free_module(
        C.shifts[k] - cover.shifts[j]
        for j in range(cover.rank) for k in range(gC))
    rels = []
    for j in range(cover.rank):
        for w in C.relations:
            terms = {(j * gC + k, m): c for (k, m), c in w.terms.items()}
            rels.append(Vec(hom_cover, terms))
    return hom_cover, rels


def induced_hom_map(diff_columns, src_rank: int, hom_dst_cover: FreeModule,
                    gC: int) -> list:
    """Columns of Hom(d, C): Hom(F_i, C) -> Hom(F_{i+1}, C).

    diff_columns are the columns of d: F_{i+1} -> F_i, one per generator
    of F_{i+1}; src_rank is the rank of F_i, hom_dst_cover the cover of
    hom_cover_into(F_{i+1}, C) and gC the number of generators of C.  The
    hom (j, k) goes to sum_l d_jl * (l, k), so one pass over the terms of
    d fills every column.
    """
    terms = [{} for _ in range(src_rank * gC)]
    for l, col in enumerate(diff_columns):
        for (j, m), c in col.terms.items():
            for k in range(gC):
                terms[j * gC + k][(l * gC + k, m)] = c
    return [Vec(hom_dst_cover, t) for t in terms]


def ext(M: GradedModule, C: GradedModule, i: int) -> GradedModule:
    """Ext^i(M, C) over the ring R that M and C share.

    Computed as ker/im of the dualized minimal free resolution of M over
    R, resolved to i + 1 steps under the ring's res_cap, and returned as a
    minimal presentation, so that the zero module has no generators;
    cached on M per (C, i).  Hom(F_i, C) and Hom(F_{i+1}, C) enter only as
    free covers with relations copied from C (hom_cover_into).  The cycles
    are one syzygy run of Hom(d_i, C), taken as it comes; past the end of
    the resolution (F_{i+1} = 0) they are all of Hom(F_i, C).
    minimalize_presentation sieves them against the boundaries,
    im Hom(d_{i-1}, C), plus the relations of Hom(F_i, C), so that no
    cycle that is a boundary is tagged in the relation run on the rest.
    """
    if i < 0:
        raise ValueError("cohomological index must be nonnegative")
    if M.ring != C.ring:
        raise ValueError("modules live over different rings")
    ring = M.ring
    key = ("ext", C.cache_key(), i)
    if key in M._cache:
        return M._cache[key]
    res = resolution(M, "R", steps=i + 1)
    if i > res.num_diffs:  # F_i = 0
        E = ring.zero_module()
    else:
        gC = C.cover.rank
        hom_i, rels_i = hom_cover_into(res.covers[i], C)
        cycles = None  # F_{i+1} = 0: all of Hom(F_i, C)
        if i < res.num_diffs:
            hom_ip1, rels_ip1 = hom_cover_into(res.covers[i + 1], C)
            delta = induced_hom_map(res.diffs[i], res.covers[i].rank,
                                    hom_ip1, gC)
            cycles = syzygies_over(ring, delta, hom_i, hom_ip1, rels_ip1)
        boundaries = []
        if i >= 1:
            boundaries = induced_hom_map(res.diffs[i - 1],
                                         res.covers[i - 1].rank, hom_i, gC)
        E = minimalize_presentation(ring, cycles, hom_i,
                                    boundaries + rels_i)
    M._cache[key] = E
    return E


# ---------------------------------------------------------------------------
# quotients

def quotient_by_sequence(M: GradedModule, xs) -> GradedModule:
    """M/(xs)M: append x * generator columns to the relations."""
    rels = list(M.relations)
    for x in xs:
        if not x.is_homogeneous():
            raise ValueError(f"inhomogeneous element {x}")
        for j in range(M.cover.rank):
            rels.append(M.cover.gen(j).poly_mul(x))
    return GradedModule(M.ring, M.shifts, rels)
