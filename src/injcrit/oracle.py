"""Independent cross-check engine for artinian (finite length) situations.

Everything here works degree by degree with dense linear algebra over
GF(p): graded pieces of the ring and of module cokernels are realized as
coordinate spaces with explicit variable-multiplication matrices, and
lengths, socles, minimal resolutions, Ext dimensions, and Matlis duals
are read off with row reduction only.  No Groebner bases, normal forms,
or Hilbert numerators are used, so agreement with the symbolic engine is
evidence rather than repetition.

Truncation is never silent: whenever a result depends on the module (or
the ring) vanishing beyond the inspected degree window, the vanishing is
certified first, and a TruncationError is raised when it cannot be.
"""

from __future__ import annotations

import numpy as np

from .linalg import SpanTracker, nullspace, rref
from .modules import GradedModule, RingPresentation
from .poly import GREVLEX, Vec, mono_deg, mono_mul

DEFAULT_DEGREE_BOUND = 24


class TruncationError(RuntimeError):
    """The degree window was too small to certify the requested value."""

    def __init__(self, reason: str, bound: int):
        super().__init__(f"{reason} (degree bound {bound})")
        self.reason = reason
        self.bound = bound


def _monomials_of_degree(n: int, d: int):
    if n == 0:
        if d == 0:
            yield ()
        return
    if n == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in _monomials_of_degree(n - 1, d - e):
            yield (e,) + rest


class RingTable:
    """Graded pieces of R = S/I as explicit coordinate spaces.

    For each degree d, a deterministic list of standard monomials (a
    basis of R_d) plus a projection matrix expressing every degree-d
    monomial of S in that basis.  Built lazily, one degree at a time,
    from row reduction of the coefficient rows of monomial multiples of
    the ideal generators.
    """

    def __init__(self, ring: RingPresentation):
        self.ring = ring
        self.p = ring.poly_ring.p
        self.n = ring.poly_ring.n
        self._monos = []        # degree -> ordered monomial list of S_d
        self._mono_index = []   # degree -> {mono: column}
        self._basis = []        # degree -> standard monomial list
        self._proj = []         # degree -> (len(monos), len(basis)) matrix

    def _ensure(self, d: int):
        while len(self._basis) <= d:
            self._build(len(self._basis))

    def _build(self, d: int):
        p = self.p
        monos = sorted(_monomials_of_degree(self.n, d),
                       key=GREVLEX.key, reverse=True)
        index = {m: c for c, m in enumerate(monos)}
        rows = []
        for g in self.ring.ideal_gens:
            e = g.degree()
            if e is None or e > d:
                continue
            for u in _monomials_of_degree(self.n, d - e):
                row = np.zeros(len(monos), dtype=np.int64)
                for m, c in g.terms.items():
                    row[index[mono_mul(u, m)]] = c
                rows.append(row)
        if rows:
            R, pivots = rref(np.array(rows, dtype=np.int64), p)
        else:
            R, pivots = np.zeros((0, len(monos)), dtype=np.int64), []
        pivot_set = set(pivots)
        free = [c for c in range(len(monos)) if c not in pivot_set]
        basis = [monos[c] for c in free]
        proj = np.zeros((len(monos), len(free)), dtype=np.int64)
        for k, c in enumerate(free):
            proj[c, k] = 1
        for i, c in enumerate(pivots):
            proj[c] = (-R[i, [f for f in free]]) % p if free else 0
        self._monos.append(monos)
        self._mono_index.append(index)
        self._basis.append(basis)
        self._proj.append(proj)

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        self._ensure(d)
        return len(self._basis[d])

    def basis(self, d: int) -> list:
        self._ensure(d)
        return self._basis[d]

    def mono_coords(self, m) -> np.ndarray:
        d = mono_deg(m)
        self._ensure(d)
        return self._proj[d][self._mono_index[d][m]]

    def top_degree(self, bound: int) -> int:
        """Largest d with R_d nonzero, certified artinian within bound."""
        top = 0
        for d in range(1, bound + 1):
            if self.dim(d) == 0:
                return top
            top = d
        raise TruncationError("ring is not visibly artinian", bound)


def ring_table(ring: RingPresentation) -> RingTable:
    if "oracle_rt" not in ring._cache:
        ring._cache["oracle_rt"] = RingTable(ring)
    return ring._cache["oracle_rt"]


class _ActionTable:
    """Shared monomial-action plumbing for graded coordinate tables."""

    p: int
    nvars: int

    def dims(self, d: int) -> int:
        raise NotImplementedError

    def act(self, i: int, d: int) -> np.ndarray:
        raise NotImplementedError

    def apply_mono(self, vec: np.ndarray, m, d: int) -> np.ndarray:
        cur, deg = vec, d
        for i, e in enumerate(m):
            for _ in range(e):
                cur = self.act(i, deg) @ cur % self.p
                deg += 1
        return cur

    def support_top(self, floor: int, bound: int) -> int:
        """Largest degree with a nonzero piece, certified within bound.

        floor must be at least the largest generator degree: above it a
        vanishing piece forces all higher pieces to vanish.
        """
        top, d = floor - 1, floor
        lo = getattr(self, "min_degree", 0)
        for d0 in range(lo, floor):
            if self.dims(d0):
                top = max(top, d0)
        d = floor
        while d <= bound:
            if self.dims(d) == 0:
                return top
            top = d
            d += 1
        raise TruncationError("module piece does not vanish", bound)


class ModuleTable(_ActionTable):
    """Graded pieces of a cokernel presentation, with variable actions.

    The degree-d piece is the cover coordinate space (one block of ring
    basis elements per generator) modulo the row space of all standard
    monomial multiples of the relation columns.
    """

    def __init__(self, M: GradedModule):
        self.module = M
        self.rt = ring_table(M.ring)
        self.p = self.rt.p
        self.nvars = self.rt.n
        self.shifts = M.shifts
        self.min_degree = min(self.shifts) if self.shifts else 0
        self.rels = [(r.degree(), r) for r in M.relations]
        self._piece = {}     # d -> (offsets, rref rows, pivots, free idx)
        self._act = {}

    def _cover_layout(self, d: int):
        offsets, total = [], 0
        for a in self.shifts:
            offsets.append(total)
            total += self.rt.dim(d - a)
        return offsets, total

    def _ensure(self, d: int):
        if d in self._piece:
            return
        p = self.p
        offsets, total = self._cover_layout(d)
        rows = []
        for bl, rel in self.rels:
            for b in self.rt.basis(d - bl) if d - bl >= 0 else ():
                row = np.zeros(total, dtype=np.int64)
                for (pos, m), c in rel.terms.items():
                    coords = self.rt.mono_coords(mono_mul(b, m))
                    off = offsets[pos]
                    row[off:off + coords.shape[0]] = (
                        row[off:off + coords.shape[0]] + c * coords) % p
                rows.append(row)
        if rows:
            R, pivots = rref(np.array(rows, dtype=np.int64), p)
        else:
            R, pivots = np.zeros((0, total), dtype=np.int64), []
        pivot_set = set(pivots)
        free = [c for c in range(total) if c not in pivot_set]
        self._piece[d] = (offsets, R, list(pivots), free)

    def dims(self, d: int) -> int:
        if d < self.min_degree:
            return 0
        self._ensure(d)
        return len(self._piece[d][3])

    def cover_basis(self, d: int) -> list:
        """(generator, ring basis monomial) pairs indexing cover coords."""
        self._ensure(d)
        out = []
        for j, a in enumerate(self.shifts):
            for b in self.rt.basis(d - a) if d - a >= 0 else ():
                out.append((j, b))
        return out

    def to_quotient(self, covervec: np.ndarray, d: int) -> np.ndarray:
        self._ensure(d)
        _, R, pivots, free = self._piece[d]
        v = covervec % self.p
        for i, c in enumerate(pivots):
            if v[c]:
                v = (v - int(v[c]) * R[i]) % self.p
        return v[free]

    def act(self, i: int, d: int) -> np.ndarray:
        key = (i, d)
        if key in self._act:
            return self._act[key]
        self._ensure(d)
        self._ensure(d + 1)
        offsets_hi, total_hi = self._cover_layout(d + 1)
        unit = tuple(1 if j == i else 0 for j in range(self.nvars))
        cols = []
        _, _, _, free = self._piece[d]
        basis = self.cover_basis(d)
        for idx in free:
            j, b = basis[idx]
            cover = np.zeros(total_hi, dtype=np.int64)
            coords = self.rt.mono_coords(mono_mul(b, unit))
            off = offsets_hi[j]
            cover[off:off + coords.shape[0]] = coords
            cols.append(self.to_quotient(cover, d + 1))
        if cols:
            mat = np.stack(cols, axis=1)
        else:
            mat = np.zeros((self.dims(d + 1), 0), dtype=np.int64)
        self._act[key] = mat
        return mat

    def certified_top(self, bound: int) -> int:
        floor = max(self.shifts) if self.shifts else 0
        return self.support_top(floor, bound)


class FreeTable(_ActionTable):
    """A free module over R with prescribed generator degrees."""

    def __init__(self, rt: RingTable, gen_degrees):
        self.rt = rt
        self.p = rt.p
        self.nvars = rt.n
        self.gen_degrees = list(gen_degrees)
        self.min_degree = min(self.gen_degrees) if self.gen_degrees else 0
        self._act = {}

    def dims(self, d: int) -> int:
        return sum(self.rt.dim(d - a) for a in self.gen_degrees)

    def basis(self, d: int) -> list:
        out = []
        for g, a in enumerate(self.gen_degrees):
            for b in self.rt.basis(d - a) if d - a >= 0 else ():
                out.append((g, b))
        return out

    def _offsets(self, d: int) -> list:
        offsets, total = [], 0
        for a in self.gen_degrees:
            offsets.append(total)
            total += self.rt.dim(d - a)
        return offsets

    def act(self, i: int, d: int) -> np.ndarray:
        key = (i, d)
        if key in self._act:
            return self._act[key]
        offsets_hi = self._offsets(d + 1)
        hi = self.dims(d + 1)
        cols = []
        for g, b in self.basis(d):
            col = np.zeros(hi, dtype=np.int64)
            unit = tuple(1 if j == i else 0 for j in range(self.nvars))
            coords = self.rt.mono_coords(mono_mul(b, unit))
            off = offsets_hi[g]
            col[off:off + coords.shape[0]] = coords
            cols.append(col)
        mat = (np.stack(cols, axis=1) if cols
               else np.zeros((hi, 0), dtype=np.int64))
        self._act[key] = mat
        return mat


class OracleMap:
    """A degreewise matrix F -> T defined by images of the generators."""

    def __init__(self, source: FreeTable, target: _ActionTable, images):
        self.source = source
        self.target = target
        self.images = images  # per generator: target coords at its degree
        self._mats = {}

    def matrix(self, d: int) -> np.ndarray:
        if d in self._mats:
            return self._mats[d]
        cols = []
        for g, b in self.source.basis(d):
            a = self.source.gen_degrees[g]
            cols.append(self.target.apply_mono(self.images[g], b, a))
        mat = (np.stack(cols, axis=1) if cols
               else np.zeros((self.target.dims(d), 0), dtype=np.int64))
        self._mats[d] = mat
        return mat


def _minimal_generators_degreewise(table: _ActionTable, lo: int, top: int,
                                   candidates):
    """(degree, vector) minimal generators, by graded Nakayama.

    candidates(d) yields spanning vectors of the degree-d space of
    interest (the whole piece, or a kernel); vectors already in the span
    of one degree lower, pushed up by the variables, are discarded.
    """
    p = table.p
    gens = []
    prev = None  # spanning columns of the previous degree, as a matrix
    for d in range(lo, top + 1):
        dim = table.dims(d)
        tracker = SpanTracker(dim, p)
        if prev is not None and prev.shape[1]:
            for i in range(table.nvars):
                pushed = table.act(i, d - 1) @ prev % p
                for c in range(pushed.shape[1]):
                    tracker.add(pushed[:, c])
        here = []
        for v in candidates(d):
            if tracker.add(v):
                gens.append((d, v))
            here.append(v)
        prev = (np.stack(here, axis=1) if here
                else np.zeros((dim, 0), dtype=np.int64))
    return gens


class OracleResolution:
    """A truncated minimal free resolution computed degree by degree.

    maps[0] covers the module; maps[i] for i >= 1 maps F_i onto the
    kernel of maps[i-1].  complete means the next kernel was zero.
    """

    def __init__(self, mtable: ModuleTable, steps: int, bound: int):
        self.mtable = mtable
        rt = mtable.rt
        ring_top = rt.top_degree(bound)
        top = mtable.certified_top(bound)
        lo = mtable.min_degree
        self.frees = []
        self.maps = []
        self.complete = False

        def module_candidates(d):
            dim = mtable.dims(d)
            for k in range(dim):
                e = np.zeros(dim, dtype=np.int64)
                e[k] = 1
                yield e

        gens = _minimal_generators_degreewise(mtable, lo, top,
                                              module_candidates)
        self._append(rt, mtable, gens)
        while not self.complete and len(self.maps) < steps:
            self._extend(rt, ring_top, bound)

    def _append(self, rt, target, gens):
        if not gens:
            self.complete = True
            if not self.frees:
                self.frees.append(FreeTable(rt, []))
                self.maps.append(OracleMap(self.frees[0], target, []))
            return
        F = FreeTable(rt, [d for d, _ in gens])
        self.frees.append(F)
        self.maps.append(OracleMap(F, target, [v for _, v in gens]))

    def _extend(self, rt, ring_top, bound):
        phi = self.maps[-1]
        F = self.frees[-1]
        if not F.gen_degrees:
            self.complete = True
            return
        lo = min(F.gen_degrees)
        top = max(F.gen_degrees) + ring_top
        if top > bound + ring_top:
            raise TruncationError("resolution generators exceed window",
                                  bound)
        kernels = {d: nullspace(phi.matrix(d), rt.p)
                   for d in range(lo, top + 1)}

        def kernel_candidates(d):
            Z = kernels[d]
            for c in range(Z.shape[1]):
                yield Z[:, c]

        gens = _minimal_generators_degreewise(F, lo, top, kernel_candidates)
        self._append(rt, F, gens)

    def betti_numbers(self) -> list:
        return [len(F.gen_degrees) for F in self.frees]


# ---------------------------------------------------------------------------
# headline oracle values

def oracle_hilbert(M: GradedModule, bound: int = DEFAULT_DEGREE_BOUND) -> dict:
    """Graded dimensions {degree: dim} of a finite-length module."""
    mt = ModuleTable(M)
    top = mt.certified_top(bound)
    out = {}
    for d in range(mt.min_degree, top + 1):
        v = mt.dims(d)
        if v:
            out[d] = v
    return out


def oracle_length(M: GradedModule, bound: int = DEFAULT_DEGREE_BOUND) -> int:
    return sum(oracle_hilbert(M, bound).values())


def oracle_socle_dimension(M: GradedModule,
                           bound: int = DEFAULT_DEGREE_BOUND) -> int:
    """dim_k of the common kernel of all variable actions."""
    mt = ModuleTable(M)
    top = mt.certified_top(bound)
    total = 0
    for d in range(mt.min_degree, top + 1):
        dim = mt.dims(d)
        if dim == 0:
            continue
        stack = np.vstack([mt.act(i, d) for i in range(mt.nvars)])
        total += nullspace(stack, mt.p).shape[1]
    return total


def oracle_ext_dims(M: GradedModule, C: GradedModule, i_max: int,
                    bound: int = DEFAULT_DEGREE_BOUND) -> list:
    """[{degree: dim}] for Ext^0..Ext^i_max of finite-length M, C over R.

    Hom(F_i, C) pieces are coordinate spaces indexed by (generator of
    F_i, basis of C in the shifted degree); the Ext dimension in each
    degree is ker minus im of the explicit coboundary matrices.
    """
    if M.ring != C.ring:
        raise ValueError("modules live over different rings")
    mt, ct = ModuleTable(M), ModuleTable(C)
    rt = mt.rt
    p = rt.p
    res = OracleResolution(mt, i_max + 2, bound)
    ctop = ct.certified_top(bound)
    clo = ct.min_degree

    def gen_degrees(i):
        if i < len(res.frees):
            return res.frees[i].gen_degrees
        return []

    def images(i):
        # columns of d_i : F_i -> F_{i-1}, as coordinate vectors
        if i < len(res.maps):
            return res.maps[i].images
        return []

    def hom_layout(gd, t):
        offsets, total = [], 0
        for a in gd:
            offsets.append(total)
            total += ct.dims(a + t)
        return offsets, total

    def delta_matrix(i, t):
        # Hom(F_i, C)_t -> Hom(F_{i+1}, C)_t induced by d_{i+1}
        gd_i, gd_n = gen_degrees(i), gen_degrees(i + 1)
        off_i, dim_i = hom_layout(gd_i, t)
        off_n, dim_n = hom_layout(gd_n, t)
        mat = np.zeros((dim_n, dim_i), dtype=np.int64)
        if dim_i == 0 or dim_n == 0:
            return mat
        img = images(i + 1)
        F_i = res.frees[i]
        for l, a_l in enumerate(gd_n):
            basis_l = F_i.basis(a_l)
            vec_l = img[l]
            for idx, (g, b) in enumerate(basis_l):
                coeff = int(vec_l[idx])
                if coeff == 0:
                    continue
                a_g = gd_i[g]
                nc = ct.dims(a_g + t)
                for w in range(nc):
                    unit = np.zeros(nc, dtype=np.int64)
                    unit[w] = 1
                    moved = ct.apply_mono(unit, b, a_g + t)
                    col = off_i[g] + w
                    row0 = off_n[l]
                    mat[row0:row0 + moved.shape[0], col] = (
                        mat[row0:row0 + moved.shape[0], col]
                        + coeff * moved) % p
        return mat

    out = []
    for i in range(i_max + 1):
        gd = gen_degrees(i)
        dims = {}
        if gd:
            t_lo = clo - max(gd)
            t_hi = ctop - min(gd)
            for t in range(t_lo, t_hi + 1):
                _, dim_i = hom_layout(gd, t)
                if dim_i == 0:
                    continue
                d_out = delta_matrix(i, t)
                rank_out = len(rref(d_out, p)[1]) if d_out.size else 0
                rank_in = 0
                if i >= 1:
                    d_in = delta_matrix(i - 1, t)
                    rank_in = len(rref(d_in, p)[1]) if d_in.size else 0
                val = dim_i - rank_out - rank_in
                if val:
                    dims[t] = val
        out.append(dims)
    return out


# ---------------------------------------------------------------------------
# Matlis duality

class DualTable(_ActionTable):
    """Graded dual of a finite-length module table: transposed actions."""

    def __init__(self, mt: ModuleTable, bound: int):
        self.mt = mt
        self.p = mt.p
        self.nvars = mt.nvars
        self.top = mt.certified_top(bound)
        self.lo = mt.min_degree
        self.min_degree = -self.top

    def dims(self, d: int) -> int:
        if -d < self.lo or -d > self.top:
            return 0
        return self.mt.dims(-d)

    def act(self, i: int, d: int) -> np.ndarray:
        if self.dims(d + 1) == 0 or self.dims(d) == 0:
            return np.zeros((self.dims(d + 1), self.dims(d)), dtype=np.int64)
        return self.mt.act(i, -d - 1).T.copy()


def present_truncated(table: _ActionTable, rt: RingTable, ring,
                      lo: int, top: int, bound: int,
                      name=None) -> GradedModule:
    """A cokernel presentation of an exactly known finite graded table.

    Finds minimal generators degree by degree, covers by a free module,
    and reads relations off the kernel of the covering map.
    """
    p = rt.p
    ring_top = rt.top_degree(bound)

    def piece_candidates(d):
        dim = table.dims(d)
        for k in range(dim):
            e = np.zeros(dim, dtype=np.int64)
            e[k] = 1
            yield e

    gens = _minimal_generators_degreewise(table, lo, top, piece_candidates)
    if not gens:
        return GradedModule(ring, (), (), name=name)
    F = FreeTable(rt, [d for d, _ in gens])
    phi = OracleMap(F, table, [v for _, v in gens])
    klo = min(F.gen_degrees)
    ktop = max(F.gen_degrees) + ring_top
    kernels = {d: nullspace(phi.matrix(d), p) for d in range(klo, ktop + 1)}

    def kernel_candidates(d):
        Z = kernels[d]
        for c in range(Z.shape[1]):
            yield Z[:, c]

    rel_gens = _minimal_generators_degreewise(F, klo, ktop, kernel_candidates)
    shifts = tuple(F.gen_degrees)
    cover = ring.poly_ring.free_module(shifts)
    rels = []
    for d, z in rel_gens:
        terms = {}
        for idx, (g, b) in enumerate(F.basis(d)):
            c = int(z[idx])
            if c:
                terms[(g, b)] = c
        rels.append(Vec(cover, terms))
    return GradedModule(ring, shifts, rels, name=name)


def matlis_dual(M: GradedModule,
                bound: int = DEFAULT_DEGREE_BOUND) -> GradedModule:
    """The graded Matlis dual Hom_k(M, k) of a finite-length module.

    Presented back as a cokernel over the same ring, so the symbolic
    engine can consume it (degrees are negated; x acts as the transpose
    of its action on M).
    """
    mt = ModuleTable(M)
    dual = DualTable(mt, bound)
    name = f"{M.name}^v" if M.name else None
    return present_truncated(dual, mt.rt, M.ring, dual.min_degree,
                             -dual.lo, bound, name=name)
