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
Ext^{d+1}(k, C) vanishes.  No injective resolution is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Optional

from .invariants import (RegularSequenceCertificate, UndecidedError,
                         depth, dimension, hilbert_series, is_cohen_macaulay,
                         is_regular_element, length, multiplicity, rank,
                         type_of)
from .modules import (GradedModule, ResolutionCapError, ext,
                      quotient_by_sequence)

_FINITE_INJDIM = "C has finite injective dimension"
_MCM_FINITE_INJDIM = ("R is Cohen-Macaulay and C is maximal Cohen-Macaulay "
                      "with finite injective dimension")


@dataclass
class Hypothesis:
    name: str
    status: str            # "pass" | "fail" | "undecided"
    values: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "values": self.values}


@dataclass
class CriterionReport:
    criterion: str
    inputs: dict
    hypotheses: list
    conclusion: str
    verification: dict = field(default_factory=lambda: {"status": "skipped",
                                                        "method": "none"})
    undecided: list = field(default_factory=list)

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


_CAPPED = (UndecidedError, ResolutionCapError)


class _Run:
    """Collects undecided reasons from capped computations."""

    def __init__(self):
        self.undecided = []

    def get(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _CAPPED as e:
            self.undecided.append(str(e))
            return None


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


def _ext_window(M: GradedModule, C: GradedModule, lo: int, hi: int,
                run: _Run, cap=None) -> Optional[dict]:
    """{i: length-or-dimension marker} of Ext^i(M,C) over lo..hi; None if
    any computation was capped."""
    out = {}
    for i in range(lo, hi + 1):
        E = run.get(ext, M, C, i, "R", cap)
        if E is None:
            return None
        out[i] = 0 if E.is_zero() else (length(E) or -1)
    return out


def _name(M: GradedModule, default: str) -> str:
    return M.name or default


def _at_most(name: str, lhs: Optional[int], rhs: Optional[int]) -> Hypothesis:
    """lhs <= rhs, undecided while either side is unknown."""
    return Hypothesis(name, _status(None if None in (lhs, rhs)
                                    else lhs <= rhs),
                      {"lhs": lhs, "rhs": rhs})


def _vanishing(name: str, E: Optional[GradedModule], key: str) -> Hypothesis:
    """E = 0, recording the length of E under key."""
    return Hypothesis(name, _status(None if E is None else E.is_zero()),
                      {key: None if E is None else length(E)})


def _vanishing_window(name: str, window: Optional[dict]) -> Hypothesis:
    """Every Ext module of a window from _ext_window vanishes."""
    if window is None:
        return Hypothesis(name, "undecided", {})
    return Hypothesis(name, _status(all(v == 0 for v in window.values())),
                      {"window": window})


def _cohen_macaulay(run: _Run, X: GradedModule, label: str) -> Hypothesis:
    return Hypothesis(f"{label} Cohen-Macaulay",
                      _status(run.get(is_cohen_macaulay, X)), {})


def _mcm_preamble(run: _Run, R: GradedModule, d: Optional[int],
                  X: GradedModule, label: str, **extra) -> list:
    """R Cohen-Macaulay and X maximal Cohen-Macaulay, dim X = depth X =
    dim R = d; extra goes into the values of the second hypothesis."""
    hyps = [_cohen_macaulay(run, R, "R")]
    dX = run.get(dimension, X)
    depX = run.get(depth, X)
    mcm = None if None in (dX, depX, d) else dX == depX == d
    hyps.append(Hypothesis(f"{label} maximal Cohen-Macaulay", _status(mcm),
                           {"dim": dX, "depth": depX, **extra}))
    return hyps


def _unresolved(cid: str, inputs: dict, run: _Run) -> CriterionReport:
    """The report of a checker stopped by a capped input computation."""
    return CriterionReport(cid, inputs, [], "", undecided=run.undecided)


def _certify_by_bass(report: CriterionReport, C: GradedModule, cap,
                     method: str, ok: Optional[bool] = True,
                     **values) -> CriterionReport:
    """Verify an asserted finite injective dimension of C through its Bass
    number, together with a further check ok (None: undecided)."""
    bass = verify_finite_injdim_bass(C, cap=cap)
    if bass.verdict == "undecided" or ok is None:
        report.undecided = report.undecided + bass.undecided + ["bass check"]
        return report
    report.verification = {"status": _status(ok and bass.verdict == "pass"),
                           "method": method, **values,
                           "bass": bass.to_dict()}
    return report


# ---------------------------------------------------------------------------
# multiplicity = length of the parameter quotient

def check_lemma_mult_length(M: GradedModule,
                            cert: RegularSequenceCertificate
                            ) -> CriterionReport:
    """e(M) equals the length of M cut by a verified linear parameter
    system (criterion id L2.1)."""
    if not cert.verified:
        raise ValueError("certificate is not verified for this module")
    run = _Run()
    hyps = [Hypothesis("certificate verified", "pass",
                       {"elements": [str(x) for x in cert.elements],
                        "seed": cert.seed}),
            _cohen_macaulay(run, M, "M")]
    e = run.get(multiplicity, M)
    l = run.get(length, quotient_by_sequence(M, cert.elements))
    verification = {"status": "skipped", "method": "two-sided computation"}
    if e is not None and l is not None:
        verification.update(status=_status(e == l), e=e,
                            length_of_quotient=l)
    return CriterionReport(
        "L2.1",
        {"M": _name(M, "M"), "sequence_length": len(cert.elements)},
        hyps,
        "e(M) = l(M / xM)",
        verification,
        run.undecided)


# ---------------------------------------------------------------------------
# regular-sequence transfer for Ext modules

def check_regseq_transfer(M: GradedModule, C: GradedModule,
                          cert: RegularSequenceCertificate,
                          degree_bound: int = 8,
                          cap: Optional[int] = None) -> CriterionReport:
    """Transfer of a regular sequence on M to Ext^{r-s}(M, C), with the
    base-change isomorphism and the vanishing one step further
    (criterion id L2.2)."""
    if not cert.verified:
        raise ValueError("certificate is not verified for this module")
    run = _Run()
    r = run.get(depth, C)
    s = run.get(dimension, M)
    inputs = {"M": _name(M, "M"), "C": _name(C, "C"), "r": r, "s": s,
              "sequence": [str(x) for x in cert.elements]}
    if r is None or s is None:
        return _unresolved("L2.2", inputs, run)
    if s > r:
        return CriterionReport("L2.2", inputs,
                               [Hypothesis("s <= r", "fail",
                                           {"r": r, "s": s})],
                               "transfer of the sequence to the Ext module")
    hyps = [_cohen_macaulay(run, M, "M"),
            Hypothesis("sequence length = dim M",
                       _status(len(cert.elements) == s),
                       {"length": len(cert.elements), "s": s}),
            _vanishing_window("Ext^i(M,C) = 0 for r-s+1 <= i <= r+1",
                              _ext_window(M, C, r - s + 1, r + 1, run, cap))]
    report = CriterionReport(
        "L2.2", inputs, hyps,
        "the sequence transfers to Ext^{r-s}(M,C), base-changes Ext^r, "
        "and Ext^{r+1}(M/xM, C) = 0",
        undecided=run.undecided)
    if not report.asserted:
        return report
    E = run.get(ext, M, C, r - s, "R", cap)
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
        for x in cert.elements:
            flags.append(is_regular_element(N, x))
            N = quotient_by_sequence(N, [x])
        checks["regular_on_ext"] = flags
        # (ii) Ext^r(M/xM, C) matches Ext^{r-s}(M,C) / x, up to the
        # grading shift contributed by the connecting maps (one per
        # element, by its degree)
        MX = quotient_by_sequence(M, cert.elements)
        ER = run.get(ext, MX, C, r, "R", cap)
        if ER is None:
            return report
        delta = sum(x.degree() for x in cert.elements)
        ha = hilbert_series(ER).coefficients(degree_bound)
        hb = hilbert_series(N).coefficients(degree_bound)
        hilbert_match = ({d: v for d, v in ha.items()
                          if d + delta <= degree_bound}
                         == {d - delta: v for d, v in hb.items()
                             if d <= degree_bound})
        ga = sorted(ER.minimal_model().shifts)
        gb = sorted(a - delta for a in N.minimal_model().shifts)
        iso_ok = hilbert_match and ga == gb
        checks["base_change_iso"] = iso_ok
        checks["iso_report"] = {"hilbert_match": hilbert_match,
                                "generator_match": ga == gb,
                                "shift": -delta}
        # (iii) vanishing one step further
        E1 = run.get(ext, MX, C, r + 1, "R", cap)
        if E1 is None:
            return report
        checks["next_ext_zero"] = E1.is_zero()
        ok = all(flags) and iso_ok and checks["next_ext_zero"]
    report.verification = {"status": _status(ok),
                           "method": "kernel tests + Hilbert comparison",
                           **checks}
    return report


# ---------------------------------------------------------------------------
# finite-length criterion for the Bass number

def check_finite_length_criterion(M: GradedModule, C: GradedModule,
                                  cap: Optional[int] = None
                                  ) -> CriterionReport:
    """Length inequality plus one Ext vanishing forces the next Bass
    number of C to vanish (criterion id L2.3)."""
    run = _Run()
    lM = length(M)
    conclusion = "Ext^{r+1}(k, C) = 0"
    if not lM:
        return CriterionReport(
            "L2.3", {"M": _name(M, "M"), "C": _name(C, "C"), "length_M": lM},
            [Hypothesis("0 < l(M) < infinity", "fail", {"length_M": lM})],
            conclusion)
    r = run.get(depth, C)
    t = run.get(type_of, C, cap)
    inputs = {"M": _name(M, "M"), "C": _name(C, "C"), "r": r,
              "type_C": t, "length_M": lM}
    if r is None or t is None:
        return _unresolved("L2.3", inputs, run)
    E = run.get(ext, M, C, r, "R", cap)
    hyps = [_at_most("r(C) l(M) <= l(Ext^r(M,C))", t * lM,
                     None if E is None else length(E)),
            _vanishing("Ext^{r+1}(M,C) = 0",
                       run.get(ext, M, C, r + 1, "R", cap), "length")]
    report = CriterionReport("L2.3", inputs, hyps, conclusion,
                             undecided=run.undecided)
    if not report.asserted:
        return report
    B = run.get(ext, C.ring.residue_field(), C, r + 1, "R", cap)
    if B is None:
        return report
    report.verification = {"status": _status(B.is_zero()),
                           "method": "direct Bass-number computation",
                           "bass_length": length(B)}
    return report


# ---------------------------------------------------------------------------
# Bass-number finiteness certificate

def verify_finite_injdim_bass(C: GradedModule,
                              cap: Optional[int] = None) -> CriterionReport:
    """Finite injective dimension via vanishing of Ext^{dim R + 1}(k, C)
    (criterion id Bass)."""
    run = _Run()
    R = C.ring.as_module()
    d = run.get(dimension, R)
    inputs = {"C": _name(C, "C"), "dim_R": d}
    if d is None:
        return _unresolved("Bass", inputs, run)
    hyps = _mcm_preamble(run, R, d, C, "C", dim_R=d)
    hyps.append(_vanishing("Ext^{dim R + 1}(k, C) = 0",
                           run.get(ext, C.ring.residue_field(), C, d + 1,
                                   "R", cap),
                           "bass_length"))
    report = CriterionReport("Bass", inputs, hyps, _FINITE_INJDIM,
                             undecided=run.undecided)
    if report.asserted:
        report.verification = {"status": "pass",
                               "method": "bass number vanishing"}
    return report


# ---------------------------------------------------------------------------
# the main theorem

def check_main_theorem(C: GradedModule, M: GradedModule,
                       cap: Optional[int] = None) -> CriterionReport:
    """Multiplicity inequality plus a finite Ext vanishing window imply
    R Cohen-Macaulay and C maximal Cohen-Macaulay of finite injective
    dimension (criterion id T2.4)."""
    if C.is_zero():
        return CriterionReport("T2.4",
                               {"C": _name(C, "C"), "M": _name(M, "M")},
                               [Hypothesis("C nonzero", "fail", {})],
                               _MCM_FINITE_INJDIM)
    run = _Run()
    r = run.get(depth, C)
    s = run.get(dimension, M)
    t = run.get(type_of, C, cap)
    inputs = {"C": _name(C, "C"), "M": _name(M, "M"),
              "r": r, "s": s, "type_C": t}
    if r is not None and s is not None and s > r:
        # the index window Ext^{r-s}..Ext^{r+1} is meaningless
        return CriterionReport("T2.4", inputs,
                               [Hypothesis("dim M <= depth C", "fail",
                                           {"r": r, "s": s})],
                               _MCM_FINITE_INJDIM)
    if r is None or s is None or t is None:
        return _unresolved("T2.4", inputs, run)
    hyps = [_cohen_macaulay(run, M, "M")]
    eM = run.get(multiplicity, M)
    E = run.get(ext, M, C, r - s, "R", cap)
    hyps.append(_at_most("r(C) e(M) <= e(Ext^{r-s}(M,C))", _product(t, eM),
                         _mult_or_zero(E)))
    hyps.append(_vanishing_window(
        "Ext^i(M,C) = 0 for r-s+1 <= i <= r+1",
        _ext_window(M, C, r - s + 1, r + 1, run, cap)))
    report = CriterionReport("T2.4", inputs, hyps, _MCM_FINITE_INJDIM,
                             undecided=run.undecided)
    if not report.asserted:
        return report
    return _certify_by_bass(report, C, cap,
                            "depth/dim equalities + bass number")


def check_moreover_clause(C: GradedModule, M_verified: GradedModule,
                          others, degree_bound: int = 8,
                          cap: Optional[int] = None) -> CriterionReport:
    """Once the main criterion holds, every Cohen-Macaulay module of the
    same dimension satisfies both conditions, with the multiplicity
    inequality sharpened to an equality (criterion id T2.4-moreover)."""
    base = check_main_theorem(C, M_verified, cap=cap)
    run = _Run()
    if C.is_zero():
        r = s = t = None
    else:
        r = run.get(depth, C)
        s = run.get(dimension, M_verified)
        t = run.get(type_of, C, cap)
    inputs = {"C": _name(C, "C"), "M": _name(M_verified, "M"),
              "r": r, "s": s, "modules": [_name(N, f"N{i}")
                                          for i, N in enumerate(others)]}
    hyps = [Hypothesis("main criterion verified for M", _verdict_status(base),
                       {"verdict": base.verdict})]
    report = CriterionReport(
        "T2.4-moreover", inputs, hyps,
        "every Cohen-Macaulay module of dimension s satisfies both "
        "conditions, with equality in the multiplicity bound",
        undecided=list(run.undecided))
    if not report.asserted or r is None or s is None or t is None:
        return report
    per_module = []
    all_ok = True
    for i, N in enumerate(others):
        entry = {"module": _name(N, f"N{i}")}
        # a zero N has dimension -1, never s, and no CM property
        if run.get(dimension, N) != s or not run.get(is_cohen_macaulay, N):
            entry["skipped"] = f"not CM of dimension {s}"
            per_module.append(entry)
            continue
        eN = run.get(multiplicity, N)
        E = run.get(ext, N, C, r - s, "R", cap)
        window = _ext_window(N, C, r - s + 1, r + 1, run, cap)
        if eN is None or E is None or window is None:
            entry["undecided"] = True
            per_module.append(entry)
            all_ok = False
            continue
        eE = _mult_or_zero(E)
        entry["lhs"] = t * eN
        entry["rhs"] = eE
        entry["equality"] = (t * eN == eE)
        entry["window_zero"] = all(v == 0 for v in window.values())
        per_module.append(entry)
        if not (entry["equality"] and entry["window_zero"]):
            all_ok = False
    report.undecided = list(run.undecided)
    report.verification = {"status": _status(all_ok),
                           "method": "per-module equality + window",
                           "modules": per_module}
    return report


def check_claim_multiplicity(C: GradedModule, M: GradedModule,
                             cap: Optional[int] = None) -> CriterionReport:
    """Multiplicity is preserved by dualizing into C, scaled by the type
    of C: r(C) e(M) = e(Hom(M, C)) for M maximal Cohen-Macaulay over a
    Cohen-Macaulay ring (criterion id Claim)."""
    run = _Run()
    R = C.ring.as_module()
    d = run.get(dimension, R)
    t = run.get(type_of, C, cap)
    inputs = {"C": _name(C, "C"), "M": _name(M, "M"), "dim_R": d,
              "type_C": t}
    hyps = _mcm_preamble(run, R, d, M, "M")
    bass = verify_finite_injdim_bass(C, cap=cap)
    hyps.append(Hypothesis("C maximal Cohen-Macaulay with finite "
                           "injective dimension", _verdict_status(bass), {}))
    report = CriterionReport("Claim", inputs, hyps,
                             "r(C) e(M) = e(Hom(M, C))",
                             undecided=run.undecided)
    if not report.asserted or t is None:
        return report
    eM = run.get(multiplicity, M)
    eH = _mult_or_zero(run.get(ext, M, C, 0, "R", cap))
    if eM is None or eH is None:
        return report
    report.verification = {"status": _status(t * eM == eH),
                           "method": "two-sided multiplicity",
                           "lhs": t * eM, "rhs": eH}
    return report


# ---------------------------------------------------------------------------
# corollaries

def check_gorenstein_criterion(M: GradedModule,
                               cap: Optional[int] = None) -> CriterionReport:
    """Gorensteinness of R from a Cohen-Macaulay witness module
    (criterion id C2.6, the case C = R)."""
    run = _Run()
    R = M.ring.as_module()
    r = run.get(depth, R)
    tR = run.get(type_of, R, cap)
    inputs = {"M": _name(M, "M"), "depth_R": r, "type_R": tR}
    if r is None:
        return _unresolved("C2.6", inputs, run)
    hyps = [_cohen_macaulay(run, M, "M")]
    s = run.get(dimension, M)
    hyps.append(Hypothesis("dim M = depth R",
                           _status(None if s is None else s == r),
                           {"dim_M": s, "depth_R": r}))
    eM = run.get(multiplicity, M)
    H = run.get(ext, M, R, 0, "R", cap)
    hyps.append(_at_most("r(R) e(M) <= e(Hom(M,R))", _product(tR, eM),
                         _mult_or_zero(H)))
    hyps.append(_vanishing_window("Ext^i(M,R) = 0 for 1 <= i <= depth R + 1",
                                  _ext_window(M, R, 1, r + 1, run, cap)))
    report = CriterionReport("C2.6", inputs, hyps, "R is Gorenstein",
                             undecided=run.undecided)
    if not report.asserted:
        return report
    rcm = run.get(is_cohen_macaulay, R)
    report.verification = {"status": _status(rcm is True and tR == 1),
                           "method": "type(R) = 1 and R Cohen-Macaulay",
                           "type_R": tR, "R_cm": rcm}
    return report


def check_mcm_inequality(C: GradedModule,
                         cap: Optional[int] = None) -> CriterionReport:
    """Finite injective dimension of a maximal Cohen-Macaulay module from
    the inequality r(C) e(R) <= e(C) (criterion id C2.7)."""
    run = _Run()
    R = C.ring.as_module()
    d = run.get(dimension, R)
    t = run.get(type_of, C, cap)
    inputs = {"C": _name(C, "C"), "dim_R": d, "type_C": t}
    hyps = _mcm_preamble(run, R, d, C, "C")
    eR = run.get(multiplicity, R)
    eC = run.get(multiplicity, C)
    hyps.append(_at_most("r(C) e(R) <= e(C)", _product(t, eR), eC))
    report = CriterionReport("C2.7", inputs, hyps, _FINITE_INJDIM,
                             undecided=run.undecided)
    if not report.asserted:
        return report
    return _certify_by_bass(report, C, cap, "bass number vanishing")


def check_rank_criterion(C: GradedModule,
                         cap: Optional[int] = None) -> CriterionReport:
    """Finite injective dimension from type bounded by rank over a
    flagged domain, with the exact identity e(C) = e(R) rank(C) as a
    cross-check (criterion id C2.8)."""
    run = _Run()
    ring = C.ring
    R = ring.as_module()
    d = run.get(dimension, R)
    t = run.get(type_of, C, cap)
    inputs = {"C": _name(C, "C"), "dim_R": d, "type_C": t,
              "domain_flag": ring.domain_flag}
    hyps = _mcm_preamble(run, R, d, C, "C")
    rk = run.get(rank, C)
    # a missing rank is undecided only once some computation was capped
    hyps.append(Hypothesis("C has a rank (flagged domain)",
                           _status(None if rk is None and run.undecided
                                   else rk is not None),
                           {"rank": rk}))
    hyps.append(Hypothesis("r(C) <= rank(C)",
                           _status(None if None in (t, rk) and run.undecided
                                   else None not in (t, rk) and t <= rk),
                           {"type": t, "rank": rk}))
    report = CriterionReport("C2.8", inputs, hyps, _FINITE_INJDIM,
                             undecided=run.undecided)
    if not report.asserted:
        return report
    eR = run.get(multiplicity, R)
    eC = run.get(multiplicity, C)
    eR_rank = _product(eR, rk)
    return _certify_by_bass(report, C, cap,
                            "multiplicity identity + bass number",
                            None if None in (eR, eC) else eC == eR_rank,
                            e_C=eC, e_R_times_rank=eR_rank)


def check_self_ext_criterion(C: GradedModule,
                             cap: Optional[int] = None) -> CriterionReport:
    """The case M = C: self-Ext vanishing plus an endomorphism-ring
    multiplicity bound (criterion id C2.9)."""
    run = _Run()
    n = run.get(dimension, C)
    t = run.get(type_of, C, cap)
    inputs = {"C": _name(C, "C"), "n": n, "type_C": t}
    if n is None:
        return _unresolved("C2.9", inputs, run)
    hyps = [_cohen_macaulay(run, C, "C")]
    eC = run.get(multiplicity, C)
    End = run.get(ext, C, C, 0, "R", cap)
    hyps.append(_at_most("r(C) e(C) <= e(End(C))", _product(t, eC),
                         _mult_or_zero(End)))
    hyps.append(_vanishing_window("Ext^i(C,C) = 0 for 1 <= i <= n+1",
                                  _ext_window(C, C, 1, n + 1, run, cap)))
    report = CriterionReport("C2.9", inputs, hyps, _MCM_FINITE_INJDIM,
                             undecided=run.undecided)
    if not report.asserted:
        return report
    return _certify_by_bass(report, C, cap, "bass number vanishing")
