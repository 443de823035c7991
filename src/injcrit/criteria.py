"""Mechanized checkers for the finite-injective-dimension criteria.

Each checker takes concrete graded inputs, tests the hypotheses of one
criterion (identified by an opaque id such as "T2.4" in the report
format), and, when all hypotheses pass, asserts the conclusion and
re-verifies it by an independent finite computation.  Hypothesis
failures, violated preconditions such as C = 0 included, yield
"not_applicable" verdicts; capped computations yield "undecided"; a
verified-hypotheses instance whose conclusion check fails is flagged
"engine_bug", since the mathematics leaves no third option.

The finiteness of injective dimension is always certified through a
single Bass number: for C maximal Cohen-Macaulay over a Cohen-Macaulay
ring of dimension d, the injective dimension is finite exactly when
mu^{d+1}(C) = dim_k Ext^{d+1}(k, C) vanishes.  No injective resolution is
ever built.  bass_number reads that number by one of two routes.  For C
maximal Cohen-Macaulay over a Cohen-Macaulay R, Hom(-, omega) dualizes a
minimal free resolution of C^+ = Hom(C, omega) into a minimal
omega-resolution of C, so mu^{d+i}(C) = beta_i(C^+) (Bruns-Herzog,
Section 3.3; Sharp 1972): mu^{d+1}(C) is the number of minimal relations
of Hom(C, omega), which needs only the presentation of C.  Every other
Bass number is the length of Ext^j(k, C), computed directly.
"""

from __future__ import annotations

from math import prod
from typing import Optional

from .groebner import MonomialLimitError
from .invariants import (UndecidedError, canonical_module, depth, dimension,
                         hilbert_series, is_cohen_macaulay, length,
                         multiplicity, rank, regular_cut, type_of)
from .modules import (GradedModule, ResolutionCapError, ext,
                      quotient_by_sequence)

_FINITE_INJDIM = "C has finite injective dimension"
_MCM_FINITE_INJDIM = ("R is Cohen-Macaulay and C is maximal Cohen-Macaulay "
                      "with finite injective dimension")


class Hypothesis:
    def __init__(self, name: str, status: str, values: Optional[dict] = None):
        self.name = name
        self.status = status            # "pass" | "fail" | "undecided"
        self.values = {} if values is None else values

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "values": self.values}


class CriterionReport:
    """One checker's report on one criterion.

    A checker makes it first, from the id and the conclusion, and runs
    each capped computation through get, which keeps the reason in
    undecided; report, failed or unresolved then set the inputs and the
    hypotheses.  Later steps, the verification included, extend that one
    list, so a cap met late leaves the report undecided.
    """

    def __init__(self, criterion: str, conclusion: str):
        self.criterion = criterion
        self.conclusion = conclusion
        self.inputs = {}
        self.hypotheses = []
        self.verification = {"status": "skipped", "method": "none"}
        self.undecided = []

    def get(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), or None, keeping the reason, if capped."""
        try:
            return fn(*args, **kwargs)
        except CAPPED as e:
            self.undecided.append(str(e))
            return None

    def report(self, inputs: dict, hyps: list) -> CriterionReport:
        """The full report, with the reasons kept so far."""
        self.inputs = inputs
        self.hypotheses = hyps
        return self

    def failed(self, inputs: dict, name: str, conclusion: Optional[str] = None,
               **values) -> CriterionReport:
        """A failed precondition: one failing hypothesis, no reasons."""
        self.undecided.clear()
        if conclusion:
            self.conclusion = conclusion
        return self.report(inputs, [Hypothesis(name, "fail", values)])

    def unresolved(self, inputs: dict, *reasons) -> CriterionReport:
        """The report of a checker stopped by a capped input computation,
        with reasons added to those kept so far."""
        self.conclusion = ""
        self.undecided.extend(reasons)
        return self.report(inputs, [])

    @property
    def asserted(self) -> bool:
        return (not self.undecided
                and all(h.status == "pass" for h in self.hypotheses))

    @property
    def verdict(self) -> str:
        if self.undecided or any(h.status == "undecided"
                                 for h in self.hypotheses):
            return "undecided"
        if not all(h.status == "pass" for h in self.hypotheses):
            return "not_applicable"
        if self.verification["status"] == "fail":
            return "engine_bug"
        return "pass"

    def to_dict(self) -> dict:
        return {"criterion": self.criterion,
                "inputs": self.inputs,
                "hypotheses": [h.to_dict() for h in self.hypotheses],
                "conclusion": self.conclusion,
                "asserted": self.asserted,
                "verification": self.verification,
                "undecided": list(self.undecided),
                "verdict": self.verdict}


# the errors of a computation that hit a cap or a limit: each makes the
# check it belongs to "undecided", with the error as the reason
CAPPED = (UndecidedError, ResolutionCapError, MonomialLimitError)


# ---------------------------------------------------------------------------
# shared pieces of the checkers

def _status(ok: Optional[bool]) -> str:
    """Tri-state status: None is undecided."""
    if ok is None:
        return "undecided"
    return "pass" if ok else "fail"


def _verdict_status(report: CriterionReport) -> str:
    """The verdict of a report as the status of a hypothesis resting on it."""
    return _status(None if report.verdict == "undecided"
                   else report.verdict == "pass")


def _product(*factors) -> Optional[int]:
    return None if None in factors else prod(factors)


def _mult_or_zero(E: Optional[GradedModule]) -> Optional[int]:
    if E is None:
        return None
    return 0 if E.is_zero() else multiplicity(E)


def _at_most(name: str, lhs: Optional[int], rhs: Optional[int]) -> Hypothesis:
    """lhs <= rhs, undecided while either side is unknown."""
    return Hypothesis(name, _status(None if None in (lhs, rhs)
                                    else lhs <= rhs),
                      {"lhs": lhs, "rhs": rhs})


def _length(E: Optional[GradedModule]) -> Optional[int]:
    return None if E is None else length(E)


def _vanishing(name: str, l: Optional[int], key: str) -> Hypothesis:
    """A module of length l is zero, recording l under key."""
    return Hypothesis(name, _status(None if l is None else l == 0), {key: l})


# the name of T2.4's vanishing window, which L2.2 also requires
_WINDOW = "Ext^i(M,C) = 0 for r-s+1 <= i <= r+1"


def _vanishing_window(chk: CriterionReport, M: GradedModule, C: GradedModule,
                      lo: int, hi: int, name: str = _WINDOW) -> Hypothesis:
    """Ext^i(M,C) = 0 for lo <= i <= hi, recording the window {i: length
    or dimension marker}; undecided if any computation was capped."""
    window = {}
    for i in range(lo, hi + 1):
        E = chk.get(ext, M, C, i)
        if E is None:
            return Hypothesis(name, "undecided", {})
        window[i] = 0 if E.is_zero() else (length(E) or -1)
    return Hypothesis(name, _status(all(v == 0 for v in window.values())),
                      {"window": window})


def _main_conditions(chk: CriterionReport, M: GradedModule, C: GradedModule,
                     t: Optional[int], lo: int, hi: int,
                     bound: str = "r(C) e(M) <= e(Ext^{r-s}(M,C))",
                     window: str = _WINDOW) -> list:
    """The main theorem's two conditions on M against C of type t, named
    bound and window: t e(M) <= e(Ext^lo(M,C)), and Ext^i(M,C) = 0 for
    lo < i <= hi.  The theorem takes lo = r - s and hi = r + 1; its
    corollaries take lo = 0, with C = R or with M = C."""
    eM = chk.get(multiplicity, M)
    E = chk.get(ext, M, C, lo)
    return [_at_most(bound, _product(t, eM), _mult_or_zero(E)),
            _vanishing_window(chk, M, C, lo + 1, hi, window)]


def _cohen_macaulay(chk: CriterionReport, X: GradedModule,
                    label: str) -> Hypothesis:
    return Hypothesis(f"{label} Cohen-Macaulay",
                      _status(chk.get(is_cohen_macaulay, X)), {})


def _mcm_preamble(chk: CriterionReport, R: GradedModule, d: Optional[int],
                  X: GradedModule, label: str, **extra) -> list:
    """R Cohen-Macaulay and X maximal Cohen-Macaulay, dim X = depth X =
    dim R = d; extra goes into the values of the second hypothesis."""
    hyps = [_cohen_macaulay(chk, R, "R")]
    dX = chk.get(dimension, X)
    depX = chk.get(depth, X)
    mcm = None if None in (dX, depX, d) else dX == depX == d
    hyps.append(Hypothesis(f"{label} maximal Cohen-Macaulay", _status(mcm),
                           {"dim": dX, "depth": depX, **extra}))
    return hyps


def _certify_by_bass(report: CriterionReport, C: GradedModule, method: str,
                     ok: Optional[bool] = True, **values) -> CriterionReport:
    """Verify an asserted finite injective dimension of C through its Bass
    number, together with a further check ok (None: undecided).  A report
    that is not asserted comes back unchanged."""
    if not report.asserted:
        return report
    bass = verify_finite_injdim_bass(C)
    if bass.verdict == "undecided" or ok is None:
        report.undecided += bass.undecided + ["bass check"]
        return report
    report.verification = {"status": _status(ok and bass.verdict == "pass"),
                           "method": method, **values,
                           "bass": bass.to_dict()}
    return report


# ---------------------------------------------------------------------------
# multiplicity = length of the parameter quotient

def check_lemma_mult_length(M: GradedModule, xs: list,
                            seed: int) -> CriterionReport:
    """e(M) equals the length of M cut by the linear parameter system
    xs, as find_regular_sop(M, seed) verifies it (criterion id L2.1)."""
    chk = CriterionReport("L2.1", "e(M) = l(M / xM)")
    hyps = [Hypothesis("certificate verified", "pass",
                       {"elements": [str(x) for x in xs], "seed": seed}),
            _cohen_macaulay(chk, M, "M")]
    e = chk.get(multiplicity, M)
    l = chk.get(length, quotient_by_sequence(M, xs))
    report = chk.report({"M": M.name or "M", "sequence_length": len(xs)},
                        hyps)
    report.verification = {"status": "skipped",
                           "method": "two-sided computation"}
    if e is not None and l is not None:
        report.verification.update(status=_status(e == l), e=e,
                                   length_of_quotient=l)
    return report


# ---------------------------------------------------------------------------
# regular-sequence transfer for Ext modules

def check_regseq_transfer(M: GradedModule, C: GradedModule,
                          xs: list) -> CriterionReport:
    """Transfer of the regular sequence xs on M to Ext^{r-s}(M, C), with
    the base-change isomorphism and the vanishing one step further
    (criterion id L2.2)."""
    chk = CriterionReport("L2.2", "the sequence transfers to Ext^{r-s}(M,C), "
                 "base-changes Ext^r, and Ext^{r+1}(M/xM, C) = 0")
    r = chk.get(depth, C)
    s = chk.get(dimension, M)
    inputs = {"M": M.name or "M", "C": C.name or "C", "r": r, "s": s,
              "sequence": [str(x) for x in xs]}
    if r is None or s is None:
        return chk.unresolved(inputs)
    if s > r:
        return chk.failed(inputs, "s <= r",
                          "transfer of the sequence to the Ext module",
                          r=r, s=s)
    hyps = [_cohen_macaulay(chk, M, "M"),
            Hypothesis("sequence length = dim M",
                       _status(len(xs) == s), {"length": len(xs), "s": s}),
            _vanishing_window(chk, M, C, r - s + 1, r + 1)]
    report = chk.report(inputs, hyps)
    if not report.asserted:
        return report
    E = chk.get(ext, M, C, r - s)
    if E is None:
        return report
    checks = {}
    if s == 0:
        checks["ext_nonzero"] = not E.is_zero()
        ok = checks["ext_nonzero"]
    else:
        # (i) successive regularity on the Ext module
        flags = []
        N = E
        for x in xs:
            N, regular = regular_cut(N, x)
            flags.append(regular)
        checks["regular_on_ext"] = flags
        # (ii) Ext^r(M/xM, C) matches Ext^{r-s}(M,C) / x, up to the
        # grading shift contributed by the connecting maps (one per
        # element, by its degree)
        MX = quotient_by_sequence(M, xs)
        ER = chk.get(ext, MX, C, r)
        if ER is None:
            return report
        delta = sum(x.degree() for x in xs)
        # both series are exact, so their numerators compare in full
        hilbert_match = (hilbert_series(ER).numerator
                         == {e - delta: c for e, c
                             in hilbert_series(N).numerator.items()})
        ga = sorted(ER.shifts)
        gb = sorted(a - delta for a in N.minimal_model().shifts)
        iso_ok = hilbert_match and ga == gb
        checks["base_change_iso"] = iso_ok
        checks["iso_report"] = {"hilbert_match": hilbert_match,
                                "generator_match": ga == gb,
                                "shift": -delta}
        # (iii) vanishing one step further
        E1 = chk.get(ext, MX, C, r + 1)
        if E1 is None:
            return report
        checks["next_ext_zero"] = E1.is_zero()
        ok = all(flags) and iso_ok and checks["next_ext_zero"]
    # (i) still tests the kernel of each x, which regular_cut reads off a
    # Hilbert series; the golden output pins the method string
    report.verification = {"status": _status(ok),
                           "method": "kernel tests + Hilbert comparison",
                           **checks}
    return report


# ---------------------------------------------------------------------------
# finite-length criterion for the Bass number

def check_finite_length_criterion(M: GradedModule,
                                  C: GradedModule) -> CriterionReport:
    """Length inequality plus one Ext vanishing forces the next Bass
    number of C to vanish (criterion id L2.3).  The verification reads
    mu^{r+1}(C) off the hypothesis's Ext^{r+1}(k, C) when M is k, and
    otherwise through bass_number: off Hom(C, omega) when C is maximal
    Cohen-Macaulay over a Cohen-Macaulay R and r = dim R, as Ext^{r+1}(k,
    C) otherwise."""
    chk = CriterionReport("L2.3", "Ext^{r+1}(k, C) = 0")
    lM = length(M)
    if not lM:
        return chk.failed({"M": M.name or "M", "C": C.name or "C",
                           "length_M": lM},
                          "0 < l(M) < infinity", length_M=lM)
    r = chk.get(depth, C)
    t = chk.get(type_of, C)
    inputs = {"M": M.name or "M", "C": C.name or "C", "r": r,
              "type_C": t, "length_M": lM}
    if r is None or t is None:
        return chk.unresolved(inputs)
    at_r = _length(chk.get(ext, M, C, r))
    above = _length(chk.get(ext, M, C, r + 1))
    hyps = [_at_most("r(C) l(M) <= l(Ext^r(M,C))", t * lM, at_r),
            _vanishing("Ext^{r+1}(M,C) = 0", above, "length")]
    report = chk.report(inputs, hyps)
    if not report.asserted:
        return report
    # for M = k the hypothesis has built Ext^{r+1}(k, C), whose length is
    # the Bass number itself
    bass = (above if M is C.ring.residue_field()
            else chk.get(bass_number, C, r + 1))
    if bass is None:
        return report
    # bench/golden pins this method string; it names the route taken
    # when M is k or when bass_number reads Ext^{r+1}(k, C)
    report.verification = {"status": _status(bass == 0),
                           "method": "direct Bass-number computation",
                           "bass_length": bass}
    return report


# ---------------------------------------------------------------------------
# Bass-number finiteness certificate

def bass_number(C: GradedModule, j: int) -> int:
    """mu^j(C) = dim_k Ext^j(k, C).  At j = dim R + 1, for C maximal
    Cohen-Macaulay over a Cohen-Macaulay R, it is beta_1(Hom(C, omega)),
    the number of minimal relations of Hom(C, omega), which needs no
    resolution step over R beyond the presentation of C; every other
    Bass number is the length of Ext^j(k, C)."""
    ring = C.ring
    R = ring.as_module()
    d = dimension(R)
    if (j == d + 1 and dimension(C) == d and depth(C) == d
            and is_cohen_macaulay(R)):
        return len(ext(C, canonical_module(ring), 0).relations)
    return length(ext(ring.residue_field(), C, j))


def verify_finite_injdim_bass(C: GradedModule) -> CriterionReport:
    """Finite injective dimension via vanishing of the Bass number
    mu^{dim R + 1}(C), read by bass_number: off Hom(C, omega) when the
    hypotheses hold, as Ext^{dim R + 1}(k, C) otherwise (criterion id
    Bass)."""
    chk = CriterionReport("Bass", _FINITE_INJDIM)
    R = C.ring.as_module()
    d = chk.get(dimension, R)
    inputs = {"C": C.name or "C", "dim_R": d}
    if d is None:
        return chk.unresolved(inputs)
    hyps = _mcm_preamble(chk, R, d, C, "C", dim_R=d)
    hyps.append(_vanishing("Ext^{dim R + 1}(k, C) = 0",
                           chk.get(bass_number, C, d + 1), "bass_length"))
    report = chk.report(inputs, hyps)
    if report.asserted:
        report.verification = {"status": "pass",
                               "method": "bass number vanishing"}
    return report


# ---------------------------------------------------------------------------
# the main theorem

def check_main_theorem(C: GradedModule, M: GradedModule) -> CriterionReport:
    """Multiplicity inequality plus a finite Ext vanishing window imply
    R Cohen-Macaulay and C maximal Cohen-Macaulay of finite injective
    dimension (criterion id T2.4)."""
    chk = CriterionReport("T2.4", _MCM_FINITE_INJDIM)
    if C.is_zero():
        return chk.failed({"C": C.name or "C", "M": M.name or "M"},
                          "C nonzero")
    r = chk.get(depth, C)
    s = chk.get(dimension, M)
    t = chk.get(type_of, C)
    inputs = {"C": C.name or "C", "M": M.name or "M",
              "r": r, "s": s, "type_C": t}
    if r is not None and s is not None and s > r:
        # the index window Ext^{r-s}..Ext^{r+1} is meaningless
        return chk.failed(inputs, "dim M <= depth C", r=r, s=s)
    if r is None or s is None or t is None:
        return chk.unresolved(inputs)
    hyps = [_cohen_macaulay(chk, M, "M"),
            *_main_conditions(chk, M, C, t, r - s, r + 1)]
    return _certify_by_bass(chk.report(inputs, hyps), C,
                            "depth/dim equalities + bass number")


def check_moreover_clause(C: GradedModule, M_verified: GradedModule,
                          others) -> CriterionReport:
    """Once the main criterion holds, every Cohen-Macaulay module of the
    same dimension satisfies both conditions, with the multiplicity
    inequality sharpened to an equality (criterion id T2.4-moreover)."""
    base = check_main_theorem(C, M_verified)
    chk = CriterionReport("T2.4-moreover",
                 "every Cohen-Macaulay module of dimension s satisfies both "
                 "conditions, with equality in the multiplicity bound")
    if C.is_zero():
        r = s = t = None
    else:
        r = chk.get(depth, C)
        s = chk.get(dimension, M_verified)
        t = chk.get(type_of, C)
    inputs = {"C": C.name or "C", "M": M_verified.name or "M",
              "r": r, "s": s, "modules": [N.name or f"N{i}"
                                          for i, N in enumerate(others)]}
    report = chk.report(inputs, [
        Hypothesis("main criterion verified for M", _verdict_status(base),
                   {"verdict": base.verdict})])
    if not report.asserted or r is None or s is None or t is None:
        return report
    per_module = []
    for i, N in enumerate(others):
        entry = {"module": N.name or f"N{i}"}
        per_module.append(entry)
        # a zero N has dimension -1, never s, and no CM property
        if chk.get(dimension, N) != s or not chk.get(is_cohen_macaulay, N):
            entry["skipped"] = f"not CM of dimension {s}"
            continue
        bound, window = _main_conditions(chk, N, C, t, r - s, r + 1)
        if "undecided" in (bound.status, window.status):
            entry["undecided"] = True
            continue
        entry.update(bound.values)
        entry["equality"] = entry["lhs"] == entry["rhs"]
        entry["window_zero"] = window.status == "pass"
    # a decided module that breaks a condition fails the clause; short of
    # that, an undecided module leaves it undecided
    ok = all(e["equality"] and e["window_zero"]
             for e in per_module if "equality" in e)
    if ok and any("undecided" in e for e in per_module):
        ok = None
    report.verification = {"status": _status(ok),
                           "method": "per-module equality + window",
                           "modules": per_module}
    return report


def check_claim_multiplicity(C: GradedModule,
                             M: GradedModule) -> CriterionReport:
    """Multiplicity is preserved by dualizing into C, scaled by the type
    of C: r(C) e(M) = e(Hom(M, C)) for M maximal Cohen-Macaulay over a
    Cohen-Macaulay ring (criterion id Claim)."""
    chk = CriterionReport("Claim", "r(C) e(M) = e(Hom(M, C))")
    R = C.ring.as_module()
    d = chk.get(dimension, R)
    t = chk.get(type_of, C)
    inputs = {"C": C.name or "C", "M": M.name or "M", "dim_R": d,
              "type_C": t}
    hyps = _mcm_preamble(chk, R, d, M, "M")
    bass = verify_finite_injdim_bass(C)
    hyps.append(Hypothesis("C maximal Cohen-Macaulay with finite "
                           "injective dimension", _verdict_status(bass), {}))
    report = chk.report(inputs, hyps)
    if not report.asserted or t is None:
        return report
    eM = chk.get(multiplicity, M)
    eH = _mult_or_zero(chk.get(ext, M, C, 0))
    if eM is None or eH is None:
        return report
    report.verification = {"status": _status(t * eM == eH),
                           "method": "two-sided multiplicity",
                           "lhs": t * eM, "rhs": eH}
    return report


# ---------------------------------------------------------------------------
# corollaries

def check_gorenstein_criterion(M: GradedModule) -> CriterionReport:
    """Gorensteinness of R from a Cohen-Macaulay witness module: the main
    theorem's conditions with C = R (criterion id C2.6)."""
    chk = CriterionReport("C2.6", "R is Gorenstein")
    R = M.ring.as_module()
    r = chk.get(depth, R)
    tR = chk.get(type_of, R)
    inputs = {"M": M.name or "M", "depth_R": r, "type_R": tR}
    if r is None:
        return chk.unresolved(inputs)
    hyps = [_cohen_macaulay(chk, M, "M")]
    s = chk.get(dimension, M)
    hyps.append(Hypothesis("dim M = depth R",
                           _status(None if s is None else s == r),
                           {"dim_M": s, "depth_R": r}))
    hyps += _main_conditions(chk, M, R, tR, 0, r + 1,
                             "r(R) e(M) <= e(Hom(M,R))",
                             "Ext^i(M,R) = 0 for 1 <= i <= depth R + 1")
    report = chk.report(inputs, hyps)
    if not report.asserted:
        return report
    rcm = chk.get(is_cohen_macaulay, R)
    if rcm is None:
        return report
    report.verification = {"status": _status(rcm and tR == 1),
                           "method": "type(R) = 1 and R Cohen-Macaulay",
                           "type_R": tR, "R_cm": rcm}
    return report


def check_mcm_inequality(C: GradedModule) -> CriterionReport:
    """Finite injective dimension of a maximal Cohen-Macaulay module from
    the inequality r(C) e(R) <= e(C) (criterion id C2.7)."""
    chk = CriterionReport("C2.7", _FINITE_INJDIM)
    R = C.ring.as_module()
    d = chk.get(dimension, R)
    t = chk.get(type_of, C)
    inputs = {"C": C.name or "C", "dim_R": d, "type_C": t}
    hyps = _mcm_preamble(chk, R, d, C, "C")
    eR = chk.get(multiplicity, R)
    eC = chk.get(multiplicity, C)
    hyps.append(_at_most("r(C) e(R) <= e(C)", _product(t, eR), eC))
    return _certify_by_bass(chk.report(inputs, hyps), C,
                            "bass number vanishing")


def check_rank_criterion(C: GradedModule) -> CriterionReport:
    """Finite injective dimension from type bounded by rank over a
    flagged domain, with the exact identity e(C) = e(R) rank(C) as a
    cross-check (criterion id C2.8)."""
    chk = CriterionReport("C2.8", _FINITE_INJDIM)
    ring = C.ring
    R = ring.as_module()
    d = chk.get(dimension, R)
    t = chk.get(type_of, C)
    inputs = {"C": C.name or "C", "dim_R": d, "type_C": t,
              "domain_flag": ring.domain_flag}
    hyps = _mcm_preamble(chk, R, d, C, "C")
    rk = chk.get(rank, C)
    # a missing rank is undecided only once some computation was capped
    hyps.append(Hypothesis("C has a rank (flagged domain)",
                           _status(None if rk is None and chk.undecided
                                   else rk is not None),
                           {"rank": rk}))
    hyps.append(Hypothesis("r(C) <= rank(C)",
                           _status(None if None in (t, rk) and chk.undecided
                                   else None not in (t, rk) and t <= rk),
                           {"type": t, "rank": rk}))
    report = chk.report(inputs, hyps)
    if not report.asserted:
        return report
    eR = chk.get(multiplicity, R)
    eC = chk.get(multiplicity, C)
    eR_rank = _product(eR, rk)
    return _certify_by_bass(report, C, "multiplicity identity + bass number",
                            None if None in (eR, eC) else eC == eR_rank,
                            e_C=eC, e_R_times_rank=eR_rank)


def check_self_ext_criterion(C: GradedModule) -> CriterionReport:
    """The case M = C: self-Ext vanishing plus an endomorphism-ring
    multiplicity bound, the main theorem's conditions with M = C
    (criterion id C2.9)."""
    chk = CriterionReport("C2.9", _MCM_FINITE_INJDIM)
    n = chk.get(dimension, C)
    t = chk.get(type_of, C)
    inputs = {"C": C.name or "C", "n": n, "type_C": t}
    if n is None:
        return chk.unresolved(inputs)
    hyps = [_cohen_macaulay(chk, C, "C"),
            *_main_conditions(chk, C, C, t, 0, n + 1,
                              "r(C) e(C) <= e(End(C))",
                              "Ext^i(C,C) = 0 for 1 <= i <= n+1")]
    return _certify_by_bass(chk.report(inputs, hyps), C,
                            "bass number vanishing")
