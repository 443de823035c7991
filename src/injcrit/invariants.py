"""Numerical invariants of graded modules.

Hilbert series come from the lead-term module of the relation tester (a
Groebner basis over the ambient ring), with the usual inclusion-exclusion
recursion on monomial ideals.  Depth uses the Auslander-Buchsbaum formula
over the ambient ring S, and type is read off the same minimal
S-resolution: at t = depth M and p = pd_S M, Ext^t(k, M) is Tor^S_p(k, M)
by the self-duality of the Koszul complex (Bruns-Herzog, Lemma 1.2.4 and
Section 1.6), so type M is the Betti number beta^S_p(M).  The socle of a
nonzero finite-length M is beta^S_n(M), its type at depth 0.  Regularity
of x of degree e on M is the identity HS(M/xM) = (1 - t^e) HS(M), read
off the quotient M/xM that its callers go on to use.
"""

from __future__ import annotations

import random
from math import comb
from typing import Optional

# buchberger is re-exported: bench/tracer.py wraps it under this name too.
from .groebner import buchberger  # noqa: F401
from .modules import (GradedModule, RingPresentation, ZeroModuleError,
                      induced_hom_map, quotient_by_sequence, resolution)
from .poly import (Poly, mono_deg, mono_div, mono_divides, mono_lcm,
                   monomials_of_degree)


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

class HilbertSeries:
    """numerator(t) / (1 - t)^nvars, with exact integer coefficients.

    The series is reduced once, when it is made, to q(t) / (1 - t)^d with
    q(1) != 0: d is the Krull dimension and q(1) the multiplicity.
    dimension (-1 for the zero module, by convention) and length (None
    when infinite) are read off it then.
    """

    def __init__(self, numerator: dict, nvars: int):
        self.numerator = numerator
        self.nvars = nvars
        q, d = numerator, nvars
        while q and _ip_eval_one(q) == 0 and d >= 0:
            # divide by (1 - t): q_e = sum_{e' <= e} num_{e'}
            num, q, acc = q, {}, 0
            for e in range(min(num), max(num) + 1):
                acc += num.get(e, 0)
                if acc:
                    q[e] = acc
            d -= 1
        self._e = _ip_eval_one(q)
        self.dimension = d if q else -1
        self.length = self._e if d <= 0 or not q else None

    @property
    def multiplicity(self) -> int:
        if not self.numerator:
            raise ZeroModuleError("multiplicity of the zero module")
        return self._e

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
    """Exact Hilbert series of M over its ring, from the leads of
    M.rel_tester: the lead module does not depend on the basis."""
    if "hilbert" in M._cache:
        return M._cache["hilbert"]
    by_pos = {}
    for pos, m in M.rel_tester._lead:
        by_pos.setdefault(pos, []).append(m)
    num: dict = {}
    for j, a in enumerate(M.shifts):
        nj = _mono_ideal_numerator(frozenset(by_pos.get(j, ())))
        num = _ip_add(num, _ip_shift(nj, a))
    hs = HilbertSeries(num, M.ring.poly_ring.n)
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
    return resolution(M, "S", steps=M.ring.poly_ring.n + 2).num_diffs


def depth(M: GradedModule) -> int:
    """n - pd over the ambient ring (Auslander-Buchsbaum)."""
    return M.ring.poly_ring.n - projective_dimension_ambient(M)


def type_of(M: GradedModule) -> int:
    """dim_k Ext^t(k, M) at t = depth M, read as beta^S_p(M) at p = pd_S M:
    the rank of the last module of the uncapped minimal S-resolution that
    depth builds (Bruns-Herzog, Lemma 1.2.4 and Section 1.6)."""
    if M.is_zero():
        raise ZeroModuleError("type of the zero module")
    res = resolution(M, "S", steps=M.ring.poly_ring.n + 2)
    return res.covers[res.num_diffs].rank


def canonical_module(ring: RingPresentation) -> GradedModule:
    """omega_R = Ext^c_S(R, S)(-n) at c = pd_S R, the canonical module of
    a Cohen-Macaulay R (Bruns-Herzog, Sections 3.3 and 3.6): the cokernel
    of Hom(d_c, S), the dual of the last map of the uncapped minimal
    S-resolution of R that depth builds, whose columns induced_hom_map
    gives as it does for every Ext; its generators, dual to the last
    module's S(-b_j), lie in degrees n - b_j (for R = S, S(-n)).  Cached
    on the ring."""
    if "omega" not in ring._cache:
        n = ring.poly_ring.n
        res = resolution(ring.as_module(), "S", steps=n + 2)
        c = res.num_diffs
        shifts = tuple(n - b for b in res.covers[c].shifts)
        cover = ring.poly_ring.free_module(shifts)
        rels = (induced_hom_map(res.diffs[c - 1], res.covers[c - 1].rank,
                                cover, 1) if c else [])
        ring._cache["omega"] = GradedModule(ring, shifts, rels)
    return ring._cache["omega"]


def socle_dimension(M: GradedModule) -> int:
    """dim_k of the socle of a finite-length module: a nonzero M has depth
    0, so Soc M = Ext^0(k, M) has dimension type M = beta^S_n(M)."""
    l = length(M)
    if l is None:
        raise ValueError("socle dimension requires finite length")
    return type_of(M) if l else 0


def is_cohen_macaulay(M: GradedModule) -> bool:
    if M.is_zero():
        raise ZeroModuleError("CM property of the zero module")
    return depth(M) == dimension(M)


# ---------------------------------------------------------------------------
# rank over (flagged) domains

# the degree bound of the standard monomials that domain_necessary_check
# multiplies, and the most minors rank tests
DOMAIN_CHECK_DEGREE = 3
MINOR_CAP = 3000


def domain_necessary_check(ring: RingPresentation) -> bool:
    """Cheap necessary condition: no product of two nonzero standard
    monomials of degree <= DOMAIN_CHECK_DEGREE vanishes mod the ideal;
    cached on the ring."""
    if "domain_check" in ring._cache:
        return ring._cache["domain_check"]
    polyring = ring.poly_ring
    leads = [g.lead_mono() for g in ring.ideal_gb]
    monos = [m for d in range(1, DOMAIN_CHECK_DEGREE + 1)
             for m in monomials_of_degree(polyring.n, d)
             if not any(mono_divides(l, m) for l in leads)]
    products = (Poly(polyring, {tuple(x + y for x, y in zip(a, b)): 1})
                for i, a in enumerate(monos) for b in monos[i:])
    ok = not any(ring.nf_poly(f).is_zero() for f in products)
    ring._cache["domain_check"] = ok
    return ok


def rank(M: GradedModule) -> Optional[int]:
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
        if count > MINOR_CAP:
            raise UndecidedError(
                f"{count} minors of size {size} exceed the cap {MINOR_CAP}")
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

SOP_TRIES = 50  # random linear systems find_regular_sop tries


def regular_cut(M: GradedModule, x: Poly) -> tuple:
    """(M/xM, whether x is regular on M): 0 -> (0:_M x)(-e) -> M(-e) -> M
    -> M/xM -> 0 is exact for e = deg x (Bruns-Herzog, Ch. 4), so x is
    regular iff HS(M/xM) = (1 - t^e) HS(M); a zero or constant x has e = 0."""
    N = quotient_by_sequence(M, [x])
    num = hilbert_series(M).numerator
    cut = _ip_sub(num, _ip_shift(num, x.degree() or 0))
    return N, hilbert_series(N).numerator == cut


def find_regular_sop(M: GradedModule, seed: int = 1) -> list:
    """A homogeneous linear system of parameters for M: dim M random
    degree-1 forms, each verified regular on the quotient by the forms
    before it ([] when dim M = 0).  Each regular linear cut multiplies
    the Hilbert series by 1 - t and so lowers the dimension by one: the
    dim M forms cut M to finite length without a further check."""
    if M.is_zero():
        raise ZeroModuleError("sop search on the zero module")
    ring = M.ring
    s = dimension(M)
    rng = random.Random(seed)
    if s == 0:
        return []
    n = ring.poly_ring.n
    p = ring.poly_ring.p
    for _ in range(SOP_TRIES):
        elements = []
        N = M
        for _ in range(s):
            coeffs = [rng.randrange(p) for _ in range(n)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(n)] = 1
            x = ring.poly_ring.linear_form(coeffs)
            N, regular = regular_cut(N, x)
            if not regular:
                break
            elements.append(x)
        else:
            return elements
    raise UndecidedError(
        f"no regular system of parameters found in {SOP_TRIES} tries "
        f"(enlarge the prime or check the CM hypothesis)")


# ---------------------------------------------------------------------------
# report

def invariant_report(name: str, M: GradedModule) -> dict:
    if M.is_zero():
        return {"module": name, "dim": -1, "depth": 0, "e": None,
                "type": None, "is_cm": None, "length": 0}
    try:
        rk = rank(M)
    except UndecidedError:
        rk = None
    out = {"module": name, "dim": dimension(M), "depth": depth(M),
           "e": multiplicity(M), "length": length(M),
           "type": type_of(M), "is_cm": is_cohen_macaulay(M)}
    if out["length"] is None:
        out["length"] = "infinite"
    if rk is not None:
        out["rank"] = rk
    return out
