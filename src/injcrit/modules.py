"""Presentations of graded rings and modules, free resolutions, and Ext.

A ring is a quotient R = S/I of a polynomial ring S by a homogeneous
ideal; a module is a cokernel presentation over R (generator degrees plus
a homogeneous relation matrix).  Every computation over R is realized
over S by augmenting generator lists with ideal multiples of the ambient
basis vectors, then projecting back.

Ext modules are built as subquotients ker/im of the dualized resolution:
each Hom(F_i, C) is itself a cokernel (a direct sum of shifted copies of
C), kernels of cokernel maps come from syzygies, and the resulting
presentation is re-minimalized so that zero-detection is just "no
generators survive".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .groebner import MembershipTester, buchberger, syzygies
from .poly import (FreeModule, Poly, PolyRing, Vec, mono_deg)


class ZeroModuleError(ValueError):
    """An invariant of the zero module was requested."""


class IllDefinedMapError(ValueError):
    """A matrix does not induce a map between the given cokernels."""


class ResolutionCapError(RuntimeError):
    """A resolution would need more steps than the configured cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"resolution needs {needed} steps but the cap is {cap}")
        self.needed = needed
        self.cap = cap


def default_res_cap(ring: "RingPresentation") -> int:
    return 2 * ring.poly_ring.n + 4


def _vec_sort_key(v: Vec):
    """Deterministic total order on homogeneous vectors: degree, then terms."""
    return (v.degree() or 0,
            tuple(sorted((pos,) + tuple(m) + (c,)
                         for (pos, m), c in v.terms.items())))


class RingPresentation:
    """S/I: a polynomial ring with a homogeneous ideal and cached GB data."""

    def __init__(self, poly_ring: PolyRing, ideal_gens=(),
                 domain_flag: bool = False):
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
        self._cache = {}

    # -- basic data --------------------------------------------------------
    @property
    def is_ambient(self) -> bool:
        return not self.ideal_gens

    def ambient(self) -> "RingPresentation":
        if self.is_ambient:
            return self
        if "ambient" not in self._cache:
            self._cache["ambient"] = RingPresentation(self.poly_ring, ())
        return self._cache["ambient"]

    @property
    def ideal_gb(self) -> list:
        """Reduced Groebner basis of the ideal, as polynomials."""
        if "ideal_gb" not in self._cache:
            F = self.poly_ring.free_module((0,))
            gb = buchberger([F.from_polys([g]) for g in self.ideal_gens], F)
            self._cache["ideal_gb"] = [v.component(0) for v in gb]
        return self._cache["ideal_gb"]

    def _ideal_tester(self) -> MembershipTester:
        if "ideal_mt" not in self._cache:
            F = self.poly_ring.free_module((0,))
            self._cache["ideal_mt"] = MembershipTester(
                [F.from_polys([g]) for g in self.ideal_gens], F)
        return self._cache["ideal_mt"]

    def nf_poly(self, f: Poly) -> Poly:
        """Normal form of a polynomial modulo the ideal."""
        if self.is_ambient:
            return f
        mt = self._ideal_tester()
        return mt.normal_form(mt.module.from_polys([f])).component(0)

    def nf_vec(self, v: Vec) -> Vec:
        if self.is_ambient:
            return v
        return v.module.from_polys([self.nf_poly(f) for f in v.to_polys()])

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

    def __hash__(self):
        return hash(self.cache_key())

    def __repr__(self):
        if self.is_ambient:
            return repr(self.poly_ring)
        return f"{self.poly_ring}/({', '.join(map(str, self.ideal_gens))})"


class GradedModule:
    """A cokernel presentation of a graded module over a RingPresentation."""

    def __init__(self, ring: RingPresentation, shifts, relations=(),
                 name: Optional[str] = None, validate: bool = True):
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
            if validate and not col.is_homogeneous():
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

    def nf(self, v: Vec) -> Vec:
        return self.rel_tester.normal_form(v)

    def contains(self, v: Vec) -> bool:
        """True iff v (in the free cover) maps to zero in the module."""
        return self.nf(v).is_zero()

    def is_zero(self) -> bool:
        return all(self.contains(self.cover.gen(j))
                   for j in range(self.cover.rank))

    # -- derived presentations --------------------------------------------
    def over_ambient(self) -> "GradedModule":
        """The same module presented over the ambient polynomial ring."""
        if self.ring.is_ambient:
            return self
        if "over_ambient" not in self._cache:
            rels = list(self.relations) + self.ring.ideal_columns(self.cover)
            self._cache["over_ambient"] = GradedModule(
                self.ring.ambient(), self.shifts, rels, name=self.name)
        return self._cache["over_ambient"]

    def minimal_model(self) -> "GradedModule":
        if "minimal" not in self._cache:
            self._cache["minimal"] = minimalize_presentation(self)
        return self._cache["minimal"]

    def cache_key(self):
        rel_keys = sorted(
            tuple(sorted((pos,) + tuple(m) + (c,)
                         for (pos, m), c in col.terms.items()))
            for col in self.relations)
        return (self.ring.cache_key(), self.shifts, tuple(rel_keys))

    def __repr__(self):
        label = self.name or "module"
        return (f"GradedModule({label}: {len(self.shifts)} gens, "
                f"{len(self.relations)} relations over {self.ring})")


def build_module(ring: RingPresentation, shifts, relation_columns,
                 name: Optional[str] = None) -> GradedModule:
    """Validated cokernel presentation; relations taken mod the ring ideal."""
    return GradedModule(ring, shifts, relation_columns, name=name)


# ---------------------------------------------------------------------------
# submodule machinery over a quotient ring

def apply_columns(columns, v: Vec) -> Vec:
    """Image of v under the map whose j-th generator goes to columns[j]."""
    target = columns[0].module if columns else None
    if target is None:
        raise ValueError("empty column list has no target")
    out = target.zero()
    for (pos, m), c in v.terms.items():
        out = out + columns[pos].mono_mul(m, c)
    return out


def syzygies_over(ring: RingPresentation, columns, target: FreeModule,
                  column_degrees=None) -> list:
    """Generators of the kernel of target^m <- R^n over R = S/I.

    Computes syzygies over S of the block [columns | I * basis vectors],
    projects onto the column coordinates, and reduces mod I.  This is the
    one place that handles columns vanishing mod I (groebner.syzygies
    refuses zero columns): each gets its unit syzygy, in the degree that
    column_degrees supplies, or 0.
    """
    cols = [ring.nf_vec(c) for c in columns]
    keep = [j for j, c in enumerate(cols) if not c.is_zero()]
    coldegs = []
    for j, c in enumerate(cols):
        if not c.is_zero():
            coldegs.append(c.degree())
        elif column_degrees is not None:
            coldegs.append(column_degrees[j])
        else:
            coldegs.append(0)
    tags = FreeModule(ring.poly_ring, tuple(coldegs))
    out = [tags.gen(j) for j, c in enumerate(cols) if c.is_zero()]
    live = [cols[j] for j in keep]
    if live:
        icols = ring.ideal_columns(target)
        raw = syzygies(live + icols, target)
        for s in raw:
            terms = {}
            for (pos, m), c in s.terms.items():
                if pos < len(live):
                    terms[(keep[pos], m)] = c
            v = ring.nf_vec(Vec(tags, terms))
            if not v.is_zero():
                out.append(v)
    return sorted(out, key=_vec_sort_key)


def minimal_generators(ring: RingPresentation, vecs,
                       module: FreeModule) -> list:
    """A minimal homogeneous generating set of the submodule <vecs> + I*F.

    By graded Nakayama, greedily keeping generators that are not in the
    span of lower-or-equal-degree kept ones yields a minimal set.
    """
    mt = MembershipTester(ring.ideal_columns(module), module)
    kept = []
    for v in sorted((ring.nf_vec(v) for v in vecs), key=_vec_sort_key):
        nf = mt.normal_form(v)
        if not nf.is_zero():
            kept.append(v)
            mt.add(nf)
    return kept


def kernel_of_cokernel_map(phi_columns, source: GradedModule,
                           target: GradedModule, validate: bool = True) -> list:
    """Generators of {e in source cover : phi(e) in im(target relations)}.

    phi_columns[j] is the image in the target free cover of the j-th
    source cover generator.  The result generates the full preimage of the
    kernel of coker(source) -> coker(target), including source relations.
    """
    ring = source.ring
    if len(phi_columns) != source.cover.rank:
        raise IllDefinedMapError("one column required per source generator")
    if validate and phi_columns:
        for rel in source.relations:
            img = apply_columns(phi_columns, rel)
            if not target.contains(img):
                raise IllDefinedMapError(
                    "matrix does not map source relations into target relations")
    if not phi_columns:
        return []
    block = list(phi_columns) + list(target.relations)
    degs = list(source.cover.shifts) + [r.degree() for r in target.relations]
    syz = syzygies_over(ring, block, target.cover, column_degrees=degs)
    nphi = len(phi_columns)
    out = []
    seen = set()
    for s in syz:
        terms = {(pos, m): c for (pos, m), c in s.terms.items() if pos < nphi}
        v = Vec(source.cover, terms)
        if not v.is_zero():
            key = frozenset(v.terms.items())
            if key not in seen:
                seen.add(key)
                out.append(v)
    return minimal_generators(ring, out, source.cover)


def minimalize_presentation(M: GradedModule) -> GradedModule:
    """Split off unit entries and prune the relations to a minimal set.

    The result presents the same module with a minimal generating set and
    minimal relations (all relation entries in the irrelevant ideal).
    """
    ring = M.ring
    shifts = list(M.shifts)
    cols = [list(c.to_polys()) for c in M.relations]
    changed = True
    while changed:
        changed = False
        for l, col in enumerate(cols):
            for j, entry in enumerate(col):
                const = entry.constant_coeff()
                if const:
                    uinv = ring.poly_ring.field.inv(const)
                    for l2 in range(len(cols)):
                        if l2 == l:
                            continue
                        c2 = cols[l2][j]
                        if not c2.is_zero():
                            factor = c2.scale(uinv)
                            cols[l2] = [
                                ring.nf_poly(a - factor * b)
                                for a, b in zip(cols[l2], cols[l])]
                    del cols[l]
                    del shifts[j]
                    for col2 in cols:
                        del col2[j]
                    changed = True
                    break
            if changed:
                break
    cover = ring.poly_ring.free_module(tuple(shifts))
    rels = [cover.from_polys(col) for col in cols]
    rels = [r for r in rels if not r.is_zero()]
    rels = minimal_generators(ring, rels, cover)
    return GradedModule(ring, shifts, rels, name=M.name)


# ---------------------------------------------------------------------------
# free resolutions

@dataclass
class FreeResolution:
    """A (truncated) minimal graded free resolution.

    covers[i] is the i-th free module; diffs[i] lists the columns of the
    differential covers[i+1] -> covers[i].  complete means the last
    computed syzygy module was zero, so the resolution ends there.
    """

    ring: RingPresentation
    covers: list
    diffs: list = field(default_factory=list)
    complete: bool = False

    @property
    def num_diffs(self) -> int:
        return len(self.diffs)

    @property
    def length(self) -> int:
        """Projective dimension when complete."""
        if not self.complete:
            raise ValueError("resolution is truncated; length unknown")
        return len(self.diffs)

    def betti_numbers(self) -> list:
        return [c.rank for c in self.covers]

    def cover(self, i: int) -> FreeModule:
        return self.covers[i]

    def extend_to(self, steps: int, cap: Optional[int] = None):
        cap = cap if cap is not None else default_res_cap(self.ring)
        while not self.complete and len(self.diffs) < steps:
            if len(self.diffs) >= cap:
                raise ResolutionCapError(steps, cap)
            self._step()

    def _step(self):
        ring = self.ring
        if not self.diffs:
            raise RuntimeError("resolution was not seeded")
        last = self.diffs[-1]
        syz = syzygies_over(ring, last, self.covers[-2])
        gens = minimal_generators(ring, syz, self.covers[-1])
        if not gens:
            self.complete = True
            return
        self.diffs.append([Vec(self.covers[-1], dict(g.terms)) for g in gens])
        self.covers.append(ring.poly_ring.free_module(
            tuple(g.degree() for g in gens)))


def resolution(M: GradedModule, base: str = "R", steps: int = 0,
               cap: Optional[int] = None) -> FreeResolution:
    """Minimal graded free resolution of M, truncated after `steps` maps.

    base "S" resolves over the ambient polynomial ring (always finite);
    base "R" resolves over the quotient, which generally never ends, so
    the truncation bound is essential.
    """
    if base not in ("R", "S"):
        raise ValueError("base must be 'R' or 'S'")
    work = M if base == "R" else M.over_ambient()
    key = ("res", base)
    if key not in M._cache:
        mm = work.minimal_model()
        ring = work.ring
        covers = [mm.cover]
        diffs = []
        complete = not mm.relations
        if mm.relations:
            diffs.append(list(mm.relations))
            covers.append(ring.poly_ring.free_module(
                tuple(r.degree() for r in mm.relations)))
        M._cache[key] = FreeResolution(ring, covers, diffs, complete)
    res = M._cache[key]
    res.extend_to(steps, cap)
    return res


# ---------------------------------------------------------------------------
# Hom and Ext

def hom_cover_into(cover: FreeModule, C: GradedModule) -> GradedModule:
    """Hom(F, C) for free F, presented as a direct sum of shifted copies of C.

    Generator (j, k) (flattened j * rank_C + k) is the hom sending the
    j-th basis vector of F to the k-th generator of C.
    """
    ring = C.ring
    gC = C.cover.rank
    shifts = tuple(C.shifts[k] - cover.shifts[j]
                   for j in range(cover.rank) for k in range(gC))
    hom_cover = ring.poly_ring.free_module(shifts)
    rels = []
    for j in range(cover.rank):
        for w in C.relations:
            terms = {(j * gC + k, m): c for (k, m), c in w.terms.items()}
            rels.append(Vec(hom_cover, terms))
    return GradedModule(ring, shifts, rels)


def induced_hom_map(diff_columns, src_cover: FreeModule,
                    dst_cover: FreeModule, C: GradedModule) -> list:
    """Columns of Hom(d, C): Hom(F_i, C) -> Hom(F_{i+1}, C).

    diff_columns are the columns of d: F_{i+1} -> F_i (elements of
    src_cover = F_i's cover, one per generator of dst_cover = F_{i+1}).
    """
    gC = C.cover.rank
    hom_dst = hom_cover_into(dst_cover, C).cover
    cols = []
    for j in range(src_cover.rank):
        for k in range(gC):
            terms = {}
            for l, col in enumerate(diff_columns):
                for (row, m), c in col.terms.items():
                    if row == j:
                        terms[(l * gC + k, m)] = c
            cols.append(Vec(hom_dst, terms))
    return cols


def ext(M: GradedModule, C: GradedModule, i: int, base: str = "R",
        cap: Optional[int] = None) -> GradedModule:
    """Ext^i(M, C) over R (or over the ambient ring with base='S').

    Presented as ker/im of the dualized minimal free resolution of M,
    re-minimalized so that the zero module has no generators.
    """
    if i < 0:
        raise ValueError("cohomological index must be nonnegative")
    if base == "S":
        M, C = M.over_ambient(), C.over_ambient()
    if M.ring != C.ring:
        raise ValueError("modules live over different rings")
    ring = M.ring
    key = ("ext", C.cache_key(), i, base)
    if key in M._cache:
        return M._cache[key]
    res = resolution(M, "R", steps=i + 1, cap=cap)
    if res.complete and i > res.num_diffs:
        E = ring.zero_module()
        M._cache[key] = E
        return E
    F_i = res.cover(i)
    hom_i = hom_cover_into(F_i, C)
    # kernel of delta^i
    if i < res.num_diffs:
        F_ip1 = res.cover(i + 1)
        delta = induced_hom_map(res.diffs[i], F_i, F_ip1, C)
        hom_ip1 = hom_cover_into(F_ip1, C)
        kernel = kernel_of_cokernel_map(delta, hom_i, hom_ip1, validate=False)
    else:
        kernel = [hom_i.cover.gen(j) for j in range(hom_i.cover.rank)]
        kernel = minimal_generators(ring, kernel, hom_i.cover)
    if not kernel:
        E = ring.zero_module()
        M._cache[key] = E
        return E
    # image of delta^{i-1}
    psi = []
    if i >= 1:
        psi = induced_hom_map(res.diffs[i - 1], res.cover(i - 1), F_i, C)
    # relations of the subquotient: coefficients c with K c in <psi> + <P>
    block = list(kernel) + psi + list(hom_i.relations)
    syz = syzygies_over(ring, block, hom_i.cover)
    nk = len(kernel)
    rel_cols = []
    gen_degs = tuple(v.degree() for v in kernel)
    sub_cover = ring.poly_ring.free_module(gen_degs)
    for s in syz:
        terms = {(pos, m): c for (pos, m), c in s.terms.items() if pos < nk}
        v = Vec(sub_cover, terms)
        if not v.is_zero():
            rel_cols.append(v)
    E = GradedModule(ring, gen_degs, rel_cols).minimal_model()
    M._cache[key] = E
    return E


def hom_module(M: GradedModule, C: GradedModule) -> GradedModule:
    """Hom(M, C) from the raw presentation of M, via a single kernel.

    Independent of the minimal-resolution route used by ext(M, C, 0):
    a hom is an assignment on the raw generators of M killing the raw
    relations.
    """
    ring = M.ring
    hom0 = hom_cover_into(M.cover, C)
    if not M.relations:
        return hom0.minimal_model()
    rel_cover = ring.poly_ring.free_module(
        tuple(r.degree() for r in M.relations))
    delta = induced_hom_map(list(M.relations), M.cover, rel_cover, C)
    hom1 = hom_cover_into(rel_cover, C)
    kernel = kernel_of_cokernel_map(delta, hom0, hom1, validate=False)
    if not kernel:
        return ring.zero_module()
    block = list(kernel) + list(hom0.relations)
    syz = syzygies_over(ring, block, hom0.cover)
    nk = len(kernel)
    gen_degs = tuple(v.degree() for v in kernel)
    sub_cover = ring.poly_ring.free_module(gen_degs)
    rel_cols = []
    for s in syz:
        terms = {(pos, m): c for (pos, m), c in s.terms.items() if pos < nk}
        v = Vec(sub_cover, terms)
        if not v.is_zero():
            rel_cols.append(v)
    return GradedModule(ring, gen_degs, rel_cols).minimal_model()


# ---------------------------------------------------------------------------
# quotients and sums

def quotient_by_sequence(M: GradedModule, xs) -> GradedModule:
    """M/(xs)M: append x * generator columns to the relations."""
    rels = list(M.relations)
    for x in xs:
        if not x.is_homogeneous():
            raise ValueError(f"inhomogeneous element {x}")
        for j in range(M.cover.rank):
            rels.append(M.cover.gen(j).poly_mul(x))
    return GradedModule(M.ring, M.shifts, rels, name=M.name)


def direct_sum(A: GradedModule, B: GradedModule) -> GradedModule:
    if A.ring != B.ring:
        raise ValueError("modules over different rings")
    shifts = A.shifts + B.shifts
    cover = A.ring.poly_ring.free_module(shifts)
    rels = [Vec(cover, dict(r.terms)) for r in A.relations]
    off = A.cover.rank
    for r in B.relations:
        rels.append(Vec(cover, {(pos + off, m): c
                                for (pos, m), c in r.terms.items()}))
    return GradedModule(A.ring, shifts, rels)
