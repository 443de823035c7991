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
from .poly import GREVLEX, Vec, mono_deg, mono_mul, monomials_of_degree

DEFAULT_DEGREE_BOUND = 24


class TruncationError(RuntimeError):
    """The degree window was too small to certify the requested value."""

    def __init__(self, reason: str, bound: int):
        super().__init__(f"{reason} (degree bound {bound})")
        self.reason = reason
        self.bound = bound


def _columns(cols, rows: int) -> np.ndarray:
    """The matrix with the given columns; rows sets its height when empty."""
    return (np.stack(cols, axis=1) if cols
            else np.zeros((rows, 0), dtype=np.int64))


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
        monos = sorted(monomials_of_degree(self.n, d),
                       key=GREVLEX.key, reverse=True)
        index = {m: c for c, m in enumerate(monos)}
        rows = []
        for g in self.ring.ideal_gens:
            e = g.degree()
            if e is None or e > d:
                continue
            for u in monomials_of_degree(self.n, d - e):
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
    """Shared monomial-action plumbing for graded coordinate tables.

    act(i, d), the matrix of x_i from degree d to degree d + 1, is built
    once from the columns _act_columns(i, d) and kept in self._act.
    """

    p: int
    nvars: int

    def dims(self, d: int) -> int:
        raise NotImplementedError

    def _act_columns(self, i: int, d: int) -> list:
        raise NotImplementedError

    def act(self, i: int, d: int) -> np.ndarray:
        key = (i, d)
        if key not in self._act:
            self._act[key] = _columns(self._act_columns(i, d),
                                      self.dims(d + 1))
        return self._act[key]

    def _unit(self, i: int) -> tuple:
        """The exponent tuple of x_i."""
        return tuple(1 if j == i else 0 for j in range(self.nvars))

    def apply_mono(self, vec: np.ndarray, m, d: int) -> np.ndarray:
        cur, deg = vec, d
        for i, e in enumerate(m):
            for _ in range(e):
                cur = self.act(i, deg) @ cur % self.p
                deg += 1
        return cur


class FreeTable(_ActionTable):
    """A free module over R with prescribed generator degrees.

    Its degree-d coordinates run through the generators in order, one
    block of ring basis monomials of degree d - gen_degrees[g] each.
    """

    def __init__(self, rt: RingTable, gen_degrees):
        self.rt = rt
        self.p = rt.p
        self.nvars = rt.n
        self.gen_degrees = list(gen_degrees)
        self.min_degree = min(self.gen_degrees) if self.gen_degrees else 0
        self._layout = {}
        self._act = {}

    def layout(self, d: int):
        """(offsets, total): where each generator's block starts in
        degree d, and the dimension of the degree-d piece."""
        if d not in self._layout:
            offsets, total = [], 0
            for a in self.gen_degrees:
                offsets.append(total)
                total += self.rt.dim(d - a)
            self._layout[d] = (offsets, total)
        return self._layout[d]

    def dims(self, d: int) -> int:
        return self.layout(d)[1]

    def basis(self, d: int) -> list:
        """(generator, ring basis monomial) pairs indexing the coordinates."""
        out = []
        for g, a in enumerate(self.gen_degrees):
            for b in self.rt.basis(d - a) if d - a >= 0 else ():
                out.append((g, b))
        return out

    def coords(self, g: int, m) -> np.ndarray:
        """Coordinates of m * e_g, for any monomial m of S."""
        offsets, total = self.layout(mono_deg(m) + self.gen_degrees[g])
        vec = np.zeros(total, dtype=np.int64)
        ring_coords = self.rt.mono_coords(m)
        vec[offsets[g]:offsets[g] + ring_coords.shape[0]] = ring_coords
        return vec

    def _act_columns(self, i: int, d: int) -> list:
        unit = self._unit(i)
        return [self.coords(g, mono_mul(b, unit)) for g, b in self.basis(d)]


class ModuleTable(_ActionTable):
    """Graded pieces of a cokernel presentation, with variable actions.

    The degree-d piece is that of the free cover (a FreeTable with the
    generator degrees of M) modulo the row space of all standard
    monomial multiples of the relation columns.
    """

    def __init__(self, M: GradedModule):
        self.module = M
        self.rt = ring_table(M.ring)
        self.p = self.rt.p
        self.nvars = self.rt.n
        self.shifts = M.shifts
        self.cover = FreeTable(self.rt, self.shifts)
        self.min_degree = self.cover.min_degree
        self.rels = [(r.degree(), r) for r in M.relations]
        self._piece = {}     # d -> (rref rows, pivots, free idx)
        self._act = {}

    def _ensure(self, d: int):
        if d in self._piece:
            return
        p, cover, total = self.p, self.cover, self.cover.dims(d)
        rows = []
        for bl, rel in self.rels:
            for b in self.rt.basis(d - bl) if d - bl >= 0 else ():
                row = np.zeros(total, dtype=np.int64)
                for (pos, m), c in rel.terms.items():
                    row = (row + c * cover.coords(pos, mono_mul(b, m))) % p
                rows.append(row)
        if rows:
            R, pivots = rref(np.array(rows, dtype=np.int64), p)
        else:
            R, pivots = np.zeros((0, total), dtype=np.int64), []
        pivot_set = set(pivots)
        free = [c for c in range(total) if c not in pivot_set]
        self._piece[d] = (R, list(pivots), free)

    def dims(self, d: int) -> int:
        if d < self.min_degree:
            return 0
        self._ensure(d)
        return len(self._piece[d][2])

    def to_quotient(self, covervec: np.ndarray, d: int) -> np.ndarray:
        self._ensure(d)
        R, pivots, free = self._piece[d]
        v = covervec % self.p
        for i, c in enumerate(pivots):
            if v[c]:
                v = (v - int(v[c]) * R[i]) % self.p
        return v[free]

    def _act_columns(self, i: int, d: int) -> list:
        """x_i on each free coordinate of degree d, through the cover."""
        self._ensure(d)
        unit = self._unit(i)
        basis = self.cover.basis(d)
        cols = []
        for idx in self._piece[d][2]:
            g, b = basis[idx]
            cols.append(self.to_quotient(
                self.cover.coords(g, mono_mul(b, unit)), d + 1))
        return cols

    def certified_top(self, bound: int) -> int:
        """A degree at or above the largest one with a nonzero piece,
        certified within bound: above the largest generator degree, a
        vanishing piece forces all higher pieces to vanish."""
        top = max(self.shifts, default=0) - 1
        while top < bound:
            if self.dims(top + 1) == 0:
                return top
            top += 1
        raise TruncationError("module piece does not vanish", bound)


class OracleMap:
    """A degreewise matrix F -> T defined by images of the generators."""

    def __init__(self, source: FreeTable, target: _ActionTable, images):
        self.source = source
        self.target = target
        self.images = images  # per generator: target coords at its degree
        self._mats = {}

    def matrix(self, d: int) -> np.ndarray:
        if d not in self._mats:
            self._mats[d] = _columns(
                [self.target.apply_mono(self.images[g], b,
                                        self.source.gen_degrees[g])
                 for g, b in self.source.basis(d)],
                self.target.dims(d))
        return self._mats[d]


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
        tracker = SpanTracker(p)
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
        prev = _columns(here, table.dims(d))
    return gens


def _piece_generators(table: _ActionTable, lo: int, top: int) -> list:
    """Minimal generators of a table known to live in degrees lo..top,
    sieved from the unit vectors of each piece."""
    return _minimal_generators_degreewise(
        table, lo, top, lambda d: np.eye(table.dims(d), dtype=np.int64))


def _covering_map(rt: RingTable, target: _ActionTable, gens) -> OracleMap:
    """The map onto target from a free module with one generator per
    (degree, vector) pair of gens, sent to that vector."""
    return OracleMap(FreeTable(rt, [d for d, _ in gens]), target,
                     [v for _, v in gens])


def _kernel_generators(phi: OracleMap, ring_top: int) -> list:
    """Minimal generators of the kernel of phi.  The free source vanishes
    above its largest generator degree plus ring_top, the top degree of
    the ring, and so does the kernel.

    Every kernel is computed before the sieve caches any action matrix,
    so that row-reduction temporaries do not fragment the heap between
    long-lived matrices; computing them lazily raised the peak RSS.
    """
    F = phi.source
    if not F.gen_degrees:
        return []
    lo, top = min(F.gen_degrees), max(F.gen_degrees) + ring_top
    kernels = {d: nullspace(phi.matrix(d), F.p) for d in range(lo, top + 1)}
    return _minimal_generators_degreewise(F, lo, top, lambda d: kernels[d].T)


class OracleResolution:
    """A truncated minimal free resolution computed degree by degree.

    maps[0] covers the module; maps[i] for i >= 1 maps F_i onto the
    kernel of maps[i-1].  complete means the next kernel was zero.
    """

    def __init__(self, mtable: ModuleTable, steps: int, bound: int):
        rt = mtable.rt
        ring_top = rt.top_degree(bound)
        top = mtable.certified_top(bound)
        phi = _covering_map(rt, mtable, _piece_generators(
            mtable, mtable.min_degree, top))
        self.maps = [phi]
        self.complete = not phi.images
        while not self.complete and len(self.maps) < steps:
            if max(phi.source.gen_degrees) > bound:
                raise TruncationError("resolution generators exceed window",
                                      bound)
            gens = _kernel_generators(phi, ring_top)
            self.complete = not gens
            if gens:
                phi = _covering_map(rt, phi.source, gens)
                self.maps.append(phi)

    def betti_numbers(self) -> list:
        return [len(phi.images) for phi in self.maps]


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
        if i < len(res.maps):
            return res.maps[i].source.gen_degrees
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
        F_i = res.maps[i].source
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
    ring_top = rt.top_degree(bound)
    phi = _covering_map(rt, table, _piece_generators(table, lo, top))
    F = phi.source
    cover = ring.poly_ring.free_module(F.gen_degrees)
    rels = [Vec(cover, {(g, b): int(c)
                        for (g, b), c in zip(F.basis(d), z) if c})
            for d, z in _kernel_generators(phi, ring_top)]
    return GradedModule(ring, cover.shifts, rels, name=name)


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
