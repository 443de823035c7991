"""Numerical invariants of graded modules.

Hilbert series come from the lead-term module of a Groebner basis of the
relations (computed over the ambient polynomial ring), with the usual
inclusion-exclusion recursion on monomial ideals.  Depth uses the
Auslander-Buchsbaum formula over the ambient ring; type is the length of
Ext^depth(k, M) over the quotient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb
from typing import Optional

from .groebner import buchberger
from .modules import (GradedModule, RingPresentation, ZeroModuleError,
                      direct_sum, ext, kernel_of_cokernel_map,
                      quotient_by_sequence, resolution)
from .poly import (ModuleOrder, Poly, Vec, mono_deg, mono_div,
                   mono_divides, mono_lcm, monomials_of_degree)


class UndecidedError(RuntimeError):
    """A computation hit a configured cap; the answer is undecided."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# integer polynomials in t as sparse dicts

def _ip_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _ip_sub(a: dict, b: dict) -> dict:
    return _ip_add(a, {e: -c for e, c in b.items()})

def _ip_shift(a: dict, k: int) -> dict:
    return {e + k: c for e, c in a.items()}


def _ip_eval_one(a: dict) -> int:
    return sum(a.values())


# ---------------------------------------------------------------------------
# Hilbert series

@dataclass
class HilbertSeries:
    """numerator(t) / (1 - t)^nvars, with exact integer coefficients."""

    numerator: dict
    nvars: int

    def reduced(self) -> tuple:
        """(q, d) with the series equal to q(t)/(1-t)^d and q(1) != 0."""
        num = dict(self.numerator)
        d = self.nvars
        while num and _ip_eval_one(num) == 0 and d >= 0:
            # divide by (1 - t): q_e = sum_{e' <= e} num_{e'}
            lo, hi = min(num), max(num)
            q, acc = {}, 0
            for e in range(lo, hi + 1):
                acc += num.get(e, 0)
                if acc:
                    q[e] = acc
            num = q
            d -= 1
        return num, d

    @property
    def dimension(self) -> int:
        """Krull dimension; -1 for the zero module by convention."""
        if not self.numerator:
            return -1
        return self.reduced()[1]

    @property
    def multiplicity(self) -> int:
        q, _ = self.reduced()
        if not q:
            raise ZeroModuleError("multiplicity of the zero module")
        return _ip_eval_one(q)

    @property
    def finite_length(self) -> bool:
        return not self.numerator or self.reduced()[1] <= 0

    @property
    def length(self) -> Optional[int]:
        """Total length, or None when infinite."""
        if not self.numerator:
            return 0
        q, d = self.reduced()
        return _ip_eval_one(q) if d <= 0 else None

    def coefficients(self, D: int) -> dict:
        """Graded dimensions for all degrees <= D, as {degree: dim}."""
        if not self.numerator:
            return {}
        lo = min(self.numerator)
        out = {}
        n = self.nvars
        for d in range(lo, D + 1):
            total = 0
            for e, c in self.numerator.items():
                k = d - e
                if k >= 0:
                    total += c * comb(n - 1 + k, k) if n > 0 else c * (k == 0)
            if total:
                out[d] = total
        return out


def _minimalize_monos(gens) -> frozenset:
    gens = set(gens)
    out = []
    for m in gens:
        if not any(o != m and mono_divides(o, m) for o in gens):
            out.append(m)
    return frozenset(out)


_MONO_NUM_CACHE: dict = {}


def _mono_ideal_numerator(gens: frozenset) -> dict:
    """Hilbert numerator of S/(monomial ideal), by the colon recursion."""
    gens = _minimalize_monos(gens)
    if not gens:
        return {0: 1}
    if any(mono_deg(m) == 0 for m in gens):
        return {}
    key = gens
    hit = _MONO_NUM_CACHE.get(key)
    if hit is not None:
        return hit
    pivot = max(gens, key=lambda m: (mono_deg(m), m))
    rest = frozenset(g for g in gens if g != pivot)
    colon = frozenset(mono_div(mono_lcm(g, pivot), pivot) for g in rest)
    out = _ip_sub(_mono_ideal_numerator(rest),
                  _ip_shift(_mono_ideal_numerator(colon), mono_deg(pivot)))
    _MONO_NUM_CACHE[key] = out
    return out


def hilbert_series(M: GradedModule) -> HilbertSeries:
    """Exact Hilbert series of M over its ring."""
    if "hilbert" in M._cache:
        return M._cache["hilbert"]
    work = M.over_ambient()
    gb = buchberger(list(work.relations), work.cover)
    morder = ModuleOrder(work.cover.ring.order, "pot")
    by_pos = {}
    for g in gb:
        (pos, m), _ = g.lead(morder)
        by_pos.setdefault(pos, []).append(m)
    num: dict = {}
    for j, a in enumerate(work.shifts):
        nj = _mono_ideal_numerator(frozenset(by_pos.get(j, ())))
        num = _ip_add(num, _ip_shift(nj, a))
    hs = HilbertSeries(num, work.cover.ring.n)
    M._cache["hilbert"] = hs
    return hs


# ---------------------------------------------------------------------------
# scalar invariants

def dimension(M: GradedModule) -> int:
    return hilbert_series(M).dimension


def multiplicity(M: GradedModule) -> int:
    return hilbert_series(M).multiplicity


def length(M: GradedModule) -> Optional[int]:
    return hilbert_series(M).length


def projective_dimension_ambient(M: GradedModule) -> int:
    """Length of the minimal free resolution over the polynomial ring,
    which ends after at most n steps (Hilbert's syzygy theorem)."""
    if M.is_zero():
        raise ZeroModuleError("pd of the zero module")
    return resolution(M, "S", steps=M.ring.poly_ring.n + 2).length


def depth(M: GradedModule) -> int:
    """n - pd over the ambient ring (Auslander-Buchsbaum)."""
    return M.ring.poly_ring.n - projective_dimension_ambient(M)


def type_of(M: GradedModule, cap: Optional[int] = None) -> int:
    """dim_k Ext^t(k, M) at t = depth M, over the quotient ring."""
    if M.is_zero():
        raise ZeroModuleError("type of the zero module")
    t = depth(M)
    k = M.ring.residue_field()
    E = ext(k, M, t, cap=cap)
    l = length(E)
    if l is None:
        raise RuntimeError("Ext^depth(k, M) has infinite length")  # pragma: no cover
    return l


def socle_generators(M: GradedModule) -> list:
    """Free-cover generators of {m : all variables kill m}."""
    ring = M.ring
    n = ring.poly_ring.n
    g = M.cover.rank
    shifted = GradedModule(ring, tuple(a + 1 for a in M.shifts),
                           [Vec(ring.poly_ring.free_module(
                               tuple(a + 1 for a in M.shifts)),
                               dict(r.terms)) for r in M.relations])
    stacked = direct_sum_copies(M, n)
    cols = []
    for j in range(g):
        terms = {}
        for i in range(n):
            mono = [0] * n
            mono[i] = 1
            terms[(i * g + j, tuple(mono))] = 1
        cols.append(Vec(stacked.cover, terms))
    return kernel_of_cokernel_map(cols, shifted, stacked, validate=False)


def direct_sum_copies(M: GradedModule, copies: int) -> GradedModule:
    acc = None
    for _ in range(copies):
        acc = M if acc is None else direct_sum(acc, M)
    return acc if acc is not None else M.ring.zero_module()


def socle_dimension(M: GradedModule) -> int:
    """dim_k of the socle of a finite-length module."""
    lM = length(M)
    if lM is None:
        raise ValueError("socle dimension requires finite length")
    if lM == 0:
        return 0
    K = socle_generators(M)
    # the socle is the image of <K> in M: its length is l(M) - l(M / <K>)
    images = [Vec(M.cover, dict(k.terms)) for k in K]
    quotient = GradedModule(M.ring, M.shifts,
                            list(M.relations) + images)
    return lM - length(quotient)


def is_cohen_macaulay(M: GradedModule) -> bool:
    if M.is_zero():
        raise ZeroModuleError("CM property of the zero module")
    return depth(M) == dimension(M)


# ---------------------------------------------------------------------------
# rank over (flagged) domains

def domain_necessary_check(ring: RingPresentation, degree_bound: int = 3) -> bool:
    """Cheap necessary condition: no product of two nonzero standard
    monomials of degree <= bound vanishes mod the ideal."""
    polyring = ring.poly_ring
    leads = [g.lead_mono() for g in ring.ideal_gb]
    monos = [m for d in range(1, degree_bound + 1)
             for m in monomials_of_degree(polyring.n, d)
             if not any(mono_divides(l, m) for l in leads)]
    for i, a in enumerate(monos):
        for b in monos[i:]:
            prod = Poly(polyring, {tuple(x + y for x, y in zip(a, b)): 1})
            if ring.nf_poly(prod).is_zero():
                return False
    return True


def rank(M: GradedModule, minor_cap: int = 3000) -> Optional[int]:
    """Generic rank of M when the ring is a flagged domain, else None.

    Computed as (generators) - (largest minor of the relation matrix not
    in the ideal), testing minors by ideal membership.
    """
    ring = M.ring
    if not ring.domain_flag or not domain_necessary_check(ring):
        return None
    mm = M.minimal_model()
    g = mm.cover.rank
    rows = range(g)
    matrix = [[col.component(j) for col in mm.relations] for j in rows]
    ncols = len(mm.relations)
    r_max = min(g, ncols)
    from itertools import combinations
    for size in range(r_max, 0, -1):
        count = comb(g, size) * comb(ncols, size)
        if count > minor_cap:
            raise UndecidedError(
                f"{count} minors of size {size} exceed the cap {minor_cap}")
        for rsel in combinations(range(g), size):
            for csel in combinations(range(ncols), size):
                det = _det([[matrix[i][j] for j in csel] for i in rsel])
                if not ring.nf_poly(det).is_zero():
                    return g - size
    return g


def _det(m) -> Poly:
    size = len(m)
    if size == 1:
        return m[0][0]
    ring = m[0][0].ring
    out = ring.zero()
    for j in range(size):
        if m[0][j].is_zero():
            continue
        minor = [[row[c] for c in range(size) if c != j] for row in m[1:]]
        term = m[0][j] * _det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


# ---------------------------------------------------------------------------
# regular sequences / systems of parameters

@dataclass
class RegularSequenceCertificate:
    """A verified homogeneous linear system of parameters for a module."""

    elements: list
    module_name: Optional[str]
    seed: int
    regular_flags: list = field(default_factory=list)
    reduction_flag: bool = False
    tries: int = 1

    @property
    def verified(self) -> bool:
        return all(self.regular_flags) and self.reduction_flag


def is_regular_element(M: GradedModule, x: Poly) -> bool:
    """True iff multiplication by x on coker(M) has zero kernel."""
    ring = M.ring
    shifted_cover = ring.poly_ring.free_module(
        tuple(a + (x.degree() or 0) for a in M.shifts))
    shifted = GradedModule(ring, shifted_cover.shifts,
                           [Vec(shifted_cover, dict(r.terms))
                            for r in M.relations])
    cols = [M.cover.gen(j).poly_mul(x) for j in range(M.cover.rank)]
    K = kernel_of_cokernel_map(cols, shifted, M, validate=False)
    return all(shifted.contains(k) for k in K)


def find_regular_sop(M: GradedModule, seed: int = 1,
                     max_tries: int = 50) -> RegularSequenceCertificate:
    """Random degree-1 forms, each verified regular on the successive
    quotient, jointly cutting M to finite length."""
    if M.is_zero():
        raise ZeroModuleError("sop search on the zero module")
    ring = M.ring
    s = dimension(M)
    rng = random.Random(seed)
    if s == 0:
        return RegularSequenceCertificate([], M.name, seed, [], True)
    n = ring.poly_ring.n
    p = ring.poly_ring.p
    for attempt in range(1, max_tries + 1):
        elements, flags = [], []
        N = M
        ok = True
        for _ in range(s):
            coeffs = [rng.randrange(p) for _ in range(n)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(n)] = 1
            x = ring.poly_ring.linear_form(coeffs)
            if not is_regular_element(N, x):
                ok = False
                break
            elements.append(x)
            flags.append(True)
            N = quotient_by_sequence(N, [x])
        if not ok:
            continue
        reduction = hilbert_series(N).finite_length and dimension(M) == s
        if reduction:
            return RegularSequenceCertificate(elements, M.name, seed, flags,
                                              True, attempt)
    raise UndecidedError(
        f"no regular system of parameters found in {max_tries} tries "
        f"(enlarge the prime or check the CM hypothesis)")


# ---------------------------------------------------------------------------
# report

@dataclass
class InvariantReport:
    module: str
    dim: int
    depth: int
    multiplicity: Optional[int]
    length: Optional[int]
    type: Optional[int]
    is_cm: Optional[bool]
    rank: Optional[int] = None

    def to_dict(self) -> dict:
        out = {"module": self.module, "dim": self.dim, "depth": self.depth,
               "e": self.multiplicity, "type": self.type, "is_cm": self.is_cm}
        out["length"] = self.length if self.length is not None else "infinite"
        if self.rank is not None:
            out["rank"] = self.rank
        return out


def invariant_report(name: str, M: GradedModule,
                     with_rank: bool = False,
                     cap: Optional[int] = None) -> InvariantReport:
    if M.is_zero():
        return InvariantReport(name, -1, 0, None, 0, None, None)
    rk = None
    if with_rank:
        try:
            rk = rank(M)
        except UndecidedError:
            rk = None
    return InvariantReport(
        name, dimension(M), depth(M), multiplicity(M), length(M),
        type_of(M, cap=cap), is_cohen_macaulay(M), rk)
