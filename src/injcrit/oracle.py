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

from .linalg import complement, matmul, nullspace, rref
from .modules import GradedModule, RingPresentation
from .poly import GREVLEX, Vec, mono_deg, mono_mul

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


def _split(m) -> tuple:
    """(j, m / x_j) for x_j the first variable of the monomial m."""
    j = next(j for j, e in enumerate(m) if e)
    return j, m[:j] + (m[j] - 1,) + m[j + 1:]


class RingTable:
    """Graded pieces of R = S/I as explicit coordinate spaces.

    For each degree d, a deterministic list of standard monomials (a
    basis of R_d), the action of each variable from R_{d-1}, and the
    coordinates of monomials of S_d in that basis.  Built lazily, one
    degree at a time, each piece from the piece below: R_d is
    V (x) R_{d-1}, V the span of the variables, modulo the commutators
    x_i (x) x_j b - x_j (x) x_i b for b in the basis of R_{d-2} and the
    degree-d generators, each monomial m lifted to x_j (x) m / x_j, x_j
    the first variable of m.

    A column x_j (x) b stands for the monomial x_j b, and the pairs with
    one monomial share its column: the commutators with x_i b and x_j b
    both standard say exactly that, so only the others are row reduced.
    With the columns largest first in grevlex, the free columns are the
    standard monomials in grevlex order, the row of column x_j b is the
    image of b under x_j, and a monomial outside the columns has
    coordinates x_j times those of m / x_j, computed when first asked
    for.  R_0 is the field modulo the constant generators, and a piece
    above a zero piece is zero, with no row reduction.
    """

    def __init__(self, ring: RingPresentation):
        self.ring = ring
        self.p = ring.poly_ring.p
        self.n = ring.poly_ring.n
        self._basis = []        # degree -> standard monomial list
        self._coords = []       # degree -> {monomial: coordinates}
        self._act = {}          # (variable, degree) -> action matrix

    def _ensure(self, d: int):
        while len(self._basis) <= d:
            self._build(len(self._basis))

    def _build(self, d: int):
        n, p = self.n, self.p
        gens = [g for g in self.ring.ideal_gens if g.degree() == d]
        if d == 0:
            one = (0,) * n
            free, Q = complement(np.array(
                [[g.terms[one]] for g in gens],
                dtype=np.int64).reshape(len(gens), 1), p)
            self._basis.append([one] if free else [])
            self._coords.append({one: Q[0]})
            return
        below = self._basis[d - 1]
        if not below:
            self._basis.append([])
            self._coords.append({})
            for j in range(n):
                self._act[j, d - 1] = np.zeros((0, 0), dtype=np.int64)
            return
        units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        products = [[mono_mul(b, u) for b in below] for u in units]
        cols = sorted(set().union(*products), key=GREVLEX.key, reverse=True)
        column = {m: c for c, m in enumerate(cols)}
        place = [np.array([column[m] for m in row], dtype=np.int64)
                 for row in products]
        lifts = np.zeros((len(gens), len(cols)), dtype=np.int64)
        for row, g in zip(lifts, gens):
            for m, c in g.terms.items():
                j, rest = _split(m)
                row[place[j]] = (row[place[j]]
                                 + c * self.mono_coords(rest)) % p
        blocks = [lifts]
        if d >= 2:
            std = set(below)
            standard = [np.array([mono_mul(b, u) in std
                                  for b in self._basis[d - 2]], dtype=bool)
                        for u in units]
            for i in range(n):
                for j in range(i + 1, n):
                    sel = np.flatnonzero(~(standard[i] & standard[j]))
                    block = np.zeros((sel.size, len(cols)), dtype=np.int64)
                    block[:, place[i]] = self.act(j, d - 2)[:, sel].T
                    block[:, place[j]] = (block[:, place[j]]
                                          - self.act(i, d - 2)[:, sel].T) % p
                    blocks.append(block)
        free, Q = complement(np.vstack(blocks), p)
        self._basis.append([cols[c] for c in free])
        self._coords.append(dict(zip(cols, Q)))
        for j in range(n):
            self._act[j, d - 1] = Q[place[j]].T.copy()

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
        coords = self._coords[d]
        if m not in coords:
            j, rest = _split(m)
            coords[m] = matmul(self.act(j, d - 1), self.mono_coords(rest),
                               self.p)
        return coords[m]

    def act(self, i: int, e: int) -> np.ndarray:
        """x_i from R_e to R_{e+1}, one column per basis monomial, as the
        build of R_{e+1} leaves it."""
        if e < 0:
            return np.zeros((self.dim(e + 1), 0), dtype=np.int64)
        self._ensure(e + 1)
        return self._act[i, e]

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
    """A graded coordinate table with variable actions.

    Subclasses define dims(d) and act(i, d), the matrix of x_i from degree
    d to degree d + 1.  FreeTable and ModuleTable build each action once
    and keep it in self._act; DualTable transposes its module's on every
    call.
    """

    p: int
    nvars: int

    def apply_mono(self, vec: np.ndarray, m, d: int) -> np.ndarray:
        cur, deg = vec, d
        for i, e in enumerate(m):
            for _ in range(e):
                cur = matmul(self.act(i, deg), cur, self.p)
                deg += 1
        return cur


class FreeTable(_ActionTable):
    """A free module over R with prescribed generator degrees.

    Its degree-d coordinates run through the generators in order, one
    block of ring basis monomials of degree d - gen_degrees[g] each, so
    x_i acts block-diagonally, by the ring's own action on each block.
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

    def act(self, i: int, d: int) -> np.ndarray:
        """x_i from degree d: the ring's block rt.act(i, d - a) at the
        offsets of each generator of degree a."""
        if (i, d) not in self._act:
            (src, cols), (dst, rows) = self.layout(d), self.layout(d + 1)
            mat = np.zeros((rows, cols), dtype=np.int64)
            for g, a in enumerate(self.gen_degrees):
                block = self.rt.act(i, d - a)
                mat[dst[g]:dst[g] + block.shape[0],
                    src[g]:src[g] + block.shape[1]] = block
            self._act[i, d] = mat
        return self._act[i, d]


class ModuleTable(_ActionTable):
    """Graded pieces of a cokernel presentation, with variable actions.

    The degree-d piece is that of the free cover (a FreeTable with the
    generator degrees of M) modulo the row space of all standard
    monomial multiples of the relation columns, with coordinates the
    free columns of that row space, as linalg.complement returns them.
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
        self._piece = {}     # d -> (free, Q) of the relation rows
        self._act = {}

    def _ensure(self, d: int):
        if d not in self._piece:
            p, cover, total = self.p, self.cover, self.cover.dims(d)
            rows = []
            for bl, rel in self.rels:
                for b in self.rt.basis(d - bl) if d - bl >= 0 else ():
                    row = np.zeros(total, dtype=np.int64)
                    for (pos, m), c in rel.terms.items():
                        row = (row + c * cover.coords(pos, mono_mul(b, m))) % p
                    rows.append(row)
            self._piece[d] = complement(
                np.array(rows, dtype=np.int64).reshape(len(rows), total), p)
        return self._piece[d]

    def dims(self, d: int) -> int:
        if d < self.min_degree:
            return 0
        return len(self._ensure(d)[0])

    def act(self, i: int, d: int) -> np.ndarray:
        """x_i on the cover, restricted to the free coordinates of
        degree d and projected onto the quotient of degree d + 1."""
        if (i, d) not in self._act:
            free = self._ensure(d)[0]
            Q = self._ensure(d + 1)[1]
            self._act[i, d] = matmul(Q.T, self.cover.act(i, d)[:, free],
                                     self.p)
        return self._act[i, d]

    def certified_top(self, bound: int) -> int:
        """A degree at or above the largest one with a nonzero piece,
        certified within bound: above the largest generator degree, a
        vanishing piece forces all higher pieces to vanish.  The scan
        stops before it needs a ring piece of degree above bound: the
        piece of degree d reads R_{d-a} for each generator degree a."""
        top = max(self.shifts, default=0) - 1
        while top < min(bound, bound + min(self.shifts, default=0)):
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

    def matrix(self, d: int) -> np.ndarray:
        return _columns(
            [self.target.apply_mono(self.images[g], b,
                                    self.source.gen_degrees[g])
             for g, b in self.source.basis(d)],
            self.target.dims(d))


def _reduce(rows: np.ndarray, E: np.ndarray, pivots: list, p: int):
    """(free, residual): the columns that are not pivots of E, a reduced
    echelon matrix with the given pivots, and rows modulo the row space
    of E on those columns.  On the pivot columns the residual vanishes."""
    taken = set(pivots)
    free = [c for c in range(E.shape[1]) if c not in taken]
    if not pivots:
        return free, rows
    residual = rows[:, free]
    residual -= matmul(rows[:, pivots], E[:, free], p)
    residual %= p
    return free, residual


def _fold(E: np.ndarray, pivots: list, rows: np.ndarray, p: int):
    """rref(np.vstack([E, rows]), p), given E = rref(E, p) and its pivots.

    Only the residual of rows modulo E is row reduced, on the columns
    that are not pivots of E.  Its pivots are the new ones; E is cleared
    on them, and the rows of both are placed in pivot order.
    """
    if not pivots:
        return rref(rows, p)
    free, residual = _reduce(rows, E, pivots, p)
    N, found = rref(residual, p)
    if not found:
        return E, pivots
    new = [free[j] for j in found]
    merged = sorted(pivots + new)
    at_old = np.searchsorted(merged, pivots)[:, None]
    out = np.zeros((len(merged), E.shape[1]), dtype=np.int64)
    out[at_old, pivots] = E[:, pivots]
    out[at_old, free] = (E[:, free] - matmul(E[:, new], N, p)) % p
    out[np.searchsorted(merged, new)[:, None], free] = N
    return out, merged


def _minimal_generators_degreewise(table: _ActionTable, lo: int, top: int,
                                   candidates):
    """(degree, vector) minimal generators, by graded Nakayama.

    candidates(d) is a matrix whose rows span the degree-d space of
    interest (the whole piece, or a kernel).  A candidate is kept iff it
    is independent of the span of one degree lower, pushed up by the
    variables, plus the candidates before it: the greedy choice.

    The pushed span is kept as E in reduced echelon form, and each
    variable's pushed rows are folded in by _fold, so only their
    residual modulo E, on the columns that are not pivots of E, is row
    reduced.  The candidates are then reduced modulo E with one product:
    candidate j is kept iff its residual is independent of the residuals
    before it, that is iff column j of the transposed residuals is a
    pivot column.  A degree without candidates, or whose pushed span
    fills the piece, keeps none and needs no reduction.
    """
    p = table.p
    gens = []
    prev = None  # the previous degree's candidates, as columns
    for d in range(lo, top + 1):
        cands = candidates(d)
        dim = cands.shape[1]
        E, pivots = np.zeros((0, dim), dtype=np.int64), []
        if prev is not None and prev.shape[1] and cands.shape[0]:
            for i in range(table.nvars):
                if len(pivots) == dim:
                    break
                pushed = matmul(table.act(i, d - 1), prev, p)
                E, pivots = _fold(E, pivots, pushed.T, p)
        if len(pivots) < dim and cands.shape[0]:
            residual = _reduce(cands, E, pivots, p)[1]
            gens.extend((d, cands[c]) for c in rref(residual.T, p)[1])
        prev = cands.T
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

    F_0 covers the module, F_{-1}, and each F_i for i >= 1 covers the
    kernel of F_{i-1} -> F_{i-2}.  Only what the Hom complex of
    oracle_ext_dims reads is kept: degrees[i], the generator degrees of
    F_i, and images[i], the coordinate vector each generator of F_i maps
    to in F_{i-1}.  complete means the next kernel was zero.  The tables
    and matrices the build used are not kept.
    """

    def __init__(self, mtable: ModuleTable, steps: int, bound: int):
        rt = mtable.rt
        ring_top = rt.top_degree(bound)
        top = mtable.certified_top(bound)
        phi = _covering_map(rt, mtable, _piece_generators(
            mtable, mtable.min_degree, top))
        self.degrees = [phi.source.gen_degrees]
        self.images = [phi.images]
        self.complete = not phi.images
        while not self.complete and len(self.images) < steps:
            if max(phi.source.gen_degrees) > bound:
                raise TruncationError("resolution generators exceed window",
                                      bound)
            gens = _kernel_generators(phi, ring_top)
            self.complete = not gens
            if gens:
                phi = _covering_map(rt, phi.source, gens)
                self.degrees.append(phi.source.gen_degrees)
                self.images.append(phi.images)


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


def _runs(degrees) -> list:
    """(degree, start, stop) for each run of equal consecutive degrees."""
    runs = []
    for g, a in enumerate(degrees):
        if runs and runs[-1][0] == a:
            runs[-1][2] = g + 1
        else:
            runs.append([a, g, g + 1])
    return runs


def _monomial_actions(ct: ModuleTable, s: int, e: int) -> np.ndarray:
    """x^b from C_s to C_{s+e}, for b the basis monomials of R_e, one
    flattened matrix per row: a dim R_e x (dim C_{s+e} dim C_s) matrix."""
    eye = np.eye(ct.dims(s), dtype=np.int64)
    return np.stack([ct.apply_mono(eye, b, s).ravel()
                     for b in ct.rt.basis(e)])


def _coboundary(ct: ModuleTable, src: list, dst: list, images: list,
                t: int, actions: dict) -> np.ndarray:
    """Hom(F, C)_t -> Hom(G, C)_t, phi -> phi . d, for d : G -> F sending
    generator l of G to the F-coordinates images[l]; src and dst are
    the generator degrees of F and G.  Coordinates of Hom(F, C)_t run
    through the generators of F, a block of C_{a+t} for each, a its
    degree.

    Generators of one degree are a run.  The block of a run of G in
    degree a' against a run of F in degree a is one product: the image
    coefficients on the basis monomials of R_e, e = a' - a, an
    (n_l n_g) x dim R_e matrix, times the actions of those monomials on
    C_{a+t}, a dim R_e x (r c) matrix kept in actions under (a + t, e),
    with r = dim C_{a'+t} and c = dim C_{a+t}.
    """
    p = ct.p
    dims = [ct.dims(a + t) for a in src]
    rows = sum(ct.dims(a + t) for a in dst)
    mat = np.zeros((rows, sum(dims)), dtype=np.int64)
    if not mat.size:
        return mat
    F = FreeTable(ct.rt, src)
    top = 0
    for a_l, l0, l1 in _runs(dst):
        r, n_l = ct.dims(a_l + t), l1 - l0
        offsets = F.layout(a_l)[0]
        run = np.stack(images[l0:l1]) if r else None
        left = 0
        for a_g, g0, g1 in _runs(src):
            c, n_g, e = dims[g0], g1 - g0, a_l - a_g
            width = ct.rt.dim(e)
            if r and c and width:
                if (a_g + t, e) not in actions:
                    actions[a_g + t, e] = _monomial_actions(ct, a_g + t, e)
                coeffs = run[:, offsets[g0]:offsets[g0] + n_g * width]
                block = matmul(coeffs.reshape(n_l * n_g, width),
                               actions[a_g + t, e], p)
                mat[top:top + n_l * r, left:left + n_g * c] = block.reshape(
                    n_l, n_g, r, c).transpose(0, 2, 1, 3).reshape(
                        n_l * r, n_g * c)
            left += n_g * c
        top += n_l * r
    return mat


def oracle_ext_dims(M: GradedModule, C: GradedModule, i_max: int,
                    bound: int = DEFAULT_DEGREE_BOUND) -> list:
    """[{degree: dim}] for Ext^0..Ext^i_max of finite-length M, C over R.

    Hom(F_i, C) pieces are coordinate spaces indexed by (generator of
    F_i, basis of C in the shifted degree); the Ext dimension in each
    degree is ker minus im of the coboundary matrices _coboundary
    builds, each rank taken once.

    The OracleResolution of M is kept on M._cache under
    ("oracle_res", i_max + 2, bound), as ring_table keeps its table on
    the ring, so Ext(M, k) and Ext(M, R) resolve M once.  A
    TruncationError is raised again on every call; nothing is cached
    for it.  The stacked monomial actions on C that the coboundaries
    share are kept in a dict freed when the call returns.
    """
    if M.ring != C.ring:
        raise ValueError("modules live over different rings")
    key = ("oracle_res", i_max + 2, bound)
    if key not in M._cache:
        M._cache[key] = OracleResolution(ModuleTable(M), i_max + 2, bound)
    res = M._cache[key]
    ct = ModuleTable(C)
    ctop = ct.certified_top(bound)
    clo = ct.min_degree
    actions, ranks = {}, {}

    def level(i):
        # the generator degrees of F_i and the images of its generators
        if i < len(res.degrees):
            return res.degrees[i], res.images[i]
        return [], []

    def rank(i, t):
        # rank of the coboundary Hom(F_i, C)_t -> Hom(F_{i+1}, C)_t,
        # which steps i and i + 1 both need, taken on the orientation
        # with fewer rows: rref stops once every row holds a pivot
        if (i, t) not in ranks:
            mat = _coboundary(ct, level(i)[0], *level(i + 1), t, actions)
            if mat.shape[0] > mat.shape[1]:
                mat = mat.T.copy()
            ranks[i, t] = len(rref(mat, ct.p)[1]) if mat.size else 0
        return ranks[i, t]

    out = []
    for i in range(i_max + 1):
        gd = level(i)[0]
        dims = {}
        if gd:
            for t in range(clo - max(gd), ctop - min(gd) + 1):
                dim_i = sum(ct.dims(a + t) for a in gd)
                if dim_i == 0:
                    continue
                val = dim_i - rank(i, t) - (rank(i - 1, t) if i else 0)
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
