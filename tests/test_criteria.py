"""Criterion checkers: verdict semantics and worked instances."""

import json
from importlib import resources

import pytest

from injcrit import criteria, invariants
from injcrit.criteria import (check_claim_multiplicity,
                              check_finite_length_criterion,
                              check_gorenstein_criterion,
                              check_lemma_mult_length, check_main_theorem,
                              check_mcm_inequality, check_moreover_clause,
                              check_rank_criterion, check_regseq_transfer,
                              check_self_ext_criterion,
                              verify_finite_injdim_bass)
from injcrit.groebner import MonomialLimitError
from injcrit.invariants import HilbertSeries, find_regular_sop, multiplicity
from injcrit.modules import ResolutionCapError
from injcrit.session import CHECKS, parse_session, run_check

from conftest import STRESS, mcm_over_cm


def test_criterion_id_registry():
    """Each criterion id is listed once, with the modules it takes."""
    assert {cid: args for cid, (args, _) in CHECKS.items()} == {
        "L2.1": ("M",), "L2.2": ("M", "C"), "L2.3": ("M", "C"),
        "T2.4": ("C", "M"), "T2.4-moreover": ("C", "M", "N"),
        "Claim": ("C", "M"), "C2.6": ("M",), "C2.7": ("C",),
        "C2.8": ("C",), "C2.9": ("C",), "Bass": ("C",)}
    assert all(callable(run) for _, run in CHECKS.values())


def test_lemma_mult_length_pass(corpus):
    for name in ("gorenstein_node", "three_lines", "regular_plane"):
        M = corpus[name].resolve("R")
        rep = check_lemma_mult_length(M, find_regular_sop(M, seed=3), 3)
        assert rep.verdict == "pass" and rep.asserted
        vals = rep.verification
        assert vals["status"] == "pass"


def test_regseq_transfer_on_node(corpus):
    session = corpus["gorenstein_node"]
    R = session.resolve("R")
    rep = check_regseq_transfer(R, R, find_regular_sop(R, seed=1))
    assert rep.verdict == "pass"
    assert rep.verification["status"] == "pass"
    # the base-change comparison is taken up to a grading shift
    assert rep.verification["iso_report"]["shift"] == -1


def test_regseq_transfer_compares_the_whole_hilbert_series(corpus,
                                                          monkeypatch):
    """The base-change comparison reads the exact Hilbert series, so a
    difference far above any degree window still shows: adding t^20 to
    the series of the quotients N = E/xE breaks the match."""
    R = corpus["gorenstein_node"].resolve("R")
    xs = find_regular_sop(R, seed=1)
    quotients = []
    real_quotient, real_series = (invariants.quotient_by_sequence,
                                  criteria.hilbert_series)

    def quotient(M, xs):
        quotients.append(real_quotient(M, xs))
        return quotients[-1]

    def series(M):
        hs = real_series(M)
        if not any(M is N for N in quotients):
            return hs
        num = dict(hs.numerator)
        num[20] = num.get(20, 0) + 1
        return HilbertSeries(num, hs.nvars)

    monkeypatch.setattr(invariants, "quotient_by_sequence", quotient)
    monkeypatch.setattr(criteria, "hilbert_series", series)
    rep = check_regseq_transfer(R, R, xs)
    assert rep.verification["iso_report"] == {
        "hilbert_match": False, "generator_match": True, "shift": -1}
    assert rep.verification["status"] == "fail"


def test_regseq_transfer_base_case(corpus):
    """An empty sequence collapses to plain nonvanishing of Ext^r."""
    session = corpus["type2_artinian"]
    E = session.resolve("E")
    k = session.resolve("k")
    rep = check_regseq_transfer(k, E, [])
    assert rep.verdict == "pass"


def test_finite_length_criterion(corpus):
    session = corpus["type2_artinian"]
    E = session.resolve("E")
    k = session.resolve("k")
    assert check_finite_length_criterion(k, E).verdict == "pass"
    # R itself has type 2 > 1 = its Cohen-Macaulay type bound fails
    R = session.resolve("R")
    assert check_finite_length_criterion(k, R).verdict == "not_applicable"


def test_bass_vanishing(corpus):
    good = corpus["gorenstein_node"].resolve("R")
    assert verify_finite_injdim_bass(good).verdict == "pass"
    bad = corpus["type2_artinian"].resolve("R")
    assert verify_finite_injdim_bass(bad).verdict == "not_applicable"


def test_main_theorem_pass_and_fail(corpus):
    node = corpus["gorenstein_node"]
    rep = check_main_theorem(node.resolve("R"), node.resolve("A"))
    assert rep.verdict == "pass" and rep.asserted

    noncm = corpus["noncm_plane"]
    rep = check_main_theorem(noncm.resolve("R"), noncm.resolve("k"))
    assert rep.verdict == "not_applicable"
    assert not rep.asserted


def test_main_theorem_rejects_large_test_module(corpus):
    """dim M must not exceed depth C; the pair is not applicable."""
    session = corpus["quadric_cone"]
    C = session.resolve("C")
    k = session.resolve("k")
    # fine: dim k = 0 <= depth C = 2
    check_main_theorem(C, k)
    # a 1-dimensional test module against a depth-0 target is rejected
    noncm = corpus["noncm_plane"]
    rep = check_main_theorem(noncm.resolve("R"), noncm.resolve("R"))
    assert rep.verdict == "not_applicable"
    assert rep.hypotheses == [
        {"name": "dim M <= depth C", "status": "fail",
         "values": {"r": 0, "s": 1}}]


def test_preconditions_are_not_applicable(node_ring):
    """A zero C, or an M of infinite length or zero, fails one hypothesis
    instead of raising."""
    R = node_ring.as_module()
    zero = node_ring.zero_module()
    for rep in (check_main_theorem(zero, R),
                check_moreover_clause(zero, R, [R])):
        assert rep.verdict == "not_applicable"
    assert check_main_theorem(zero, R).hypotheses[0]["name"] == "C nonzero"
    for M, lM in ((R, None), (zero, 0)):
        rep = check_finite_length_criterion(M, R)
        assert rep.verdict == "not_applicable"
        assert rep.hypotheses == [
            {"name": "0 < l(M) < infinity", "status": "fail",
             "values": {"length_M": lM}}]


def test_moreover_clause(corpus):
    session = corpus["gorenstein_node"]
    R = session.resolve("R")
    A = session.resolve("A")
    rep = check_moreover_clause(R, A, [A, R])
    assert rep.verdict == "pass"
    for entry in rep.verification["modules"]:
        assert entry["lhs"] == entry["rhs"]


def test_claim_multiplicity(corpus):
    session = corpus["gorenstein_node"]
    R = session.resolve("R")
    A = session.resolve("A")
    rep = check_claim_multiplicity(R, A)
    assert rep.verdict == "pass"
    v = rep.verification
    assert v["lhs"] == v["rhs"]


def test_gorenstein_criterion(corpus):
    assert check_gorenstein_criterion(
        corpus["gorenstein_node"].resolve("A")).verdict == "pass"
    assert check_gorenstein_criterion(
        corpus["three_lines"].resolve("R")).verdict == "not_applicable"
    # a test module of the wrong dimension is filtered, not asserted
    assert check_gorenstein_criterion(
        corpus["gorenstein_node"].resolve("k")).verdict == "not_applicable"


def test_mcm_inequality(corpus):
    session = corpus["type2_artinian"]
    assert check_mcm_inequality(session.resolve("E")).verdict == "pass"
    assert check_mcm_inequality(session.resolve("R")).verdict == \
        "not_applicable"


def test_rank_criterion(corpus):
    session = corpus["quadric_cone"]
    assert check_rank_criterion(session.resolve("R")).verdict == "pass"
    # C has type 2 but rank 1, so the hypothesis filter rejects it
    assert check_rank_criterion(session.resolve("C")).verdict == \
        "not_applicable"
    # rank needs the domain flag
    node = corpus["gorenstein_node"]
    assert check_rank_criterion(node.resolve("R")).verdict in (
        "not_applicable", "undecided")


def test_rank_identity_recorded(corpus):
    session = corpus["hypersurface_domain"]
    rep = check_rank_criterion(session.resolve("R"))
    assert rep.verdict == "pass"
    v = rep.verification
    assert v["e_C"] == v["e_R_times_rank"]


def test_self_ext_criterion(corpus):
    session = corpus["type2_artinian"]
    assert check_self_ext_criterion(session.resolve("E")).verdict == "pass"
    assert check_self_ext_criterion(session.resolve("R")).verdict == \
        "not_applicable"


def test_every_pass_verdict_is_verified(corpus):
    """A report may only assert its conclusion when the verification ran."""
    session = corpus["gorenstein_node"]
    R = session.resolve("R")
    A = session.resolve("A")
    reps = [check_main_theorem(R, A),
            check_gorenstein_criterion(session.resolve("k")),
            check_claim_multiplicity(R, A)]
    for rep in reps:
        if rep.verdict == "pass":
            assert rep.verification["status"] == "pass"
            assert rep.asserted


def test_bass_number_of_an_mcm_module_builds_no_ext_of_k(monkeypatch,
                                                          corpus):
    """A work guard: over the corpus and the stress sessions, no check
    builds Ext^{dim R + 1}(k, C) for C maximal Cohen-Macaulay over a
    Cohen-Macaulay R; its Bass number is read off Hom(C, omega).  L2.3
    with M = k names that module in its own hypothesis, so it may, and
    its verification reads the length of that module: it builds no
    Hom(C, omega), so the 31 Hom(C, omega) calls counted below leave
    out the three L2.3 checks with M = k whose hypotheses pass."""
    calls = []
    real = criteria.ext

    def spy(M, C, i):
        calls.append((M, C, i))
        return real(M, C, i)

    def mcm_bass_ext(M, C, i):
        return (M is C.ring.residue_field() and mcm_over_cm(C)
                and i == invariants.dimension(C.ring.as_module()) + 1)

    sessions = list(corpus.values()) + [
        parse_session(path.read_text()) for _, path in STRESS]
    monkeypatch.setattr(criteria, "ext", spy)
    by_duality = 0
    for session in sessions:
        for chk in session.checks:
            calls.clear()
            run_check(session, chk)
            duals = sum(C is invariants.canonical_module(C.ring)
                        for _, C, _ in calls)
            by_duality += duals
            if chk["id"] == "L2.3" and chk["M"] == "k":
                assert not duals, chk
                continue
            assert not any(mcm_bass_ext(*call) for call in calls), chk
    assert by_duality == 31


def test_undecided_from_tiny_cap():
    """At cap 0 the type of R is still read off its resolution over S, so
    the hypotheses of C2.7 pass on the node, and the Bass number of the
    maximal Cohen-Macaulay R is read off Hom(R, omega), which needs no
    resolution step over R: C2.7 passes.  For k, not maximal
    Cohen-Macaulay, the Bass number is Ext^2(k, k), which needs a third
    map of the resolution of k over R, past the cap."""
    text = (resources.files("injcrit") / "corpus"
            / "gorenstein_node.json").read_text()
    session = parse_session(text, {"res_cap": 0})
    rep = check_mcm_inequality(session.resolve("R"))
    assert rep.inputs["type_C"] == 1
    assert [h["status"] for h in rep.hypotheses] == ["pass"] * 3
    assert rep.verdict == "pass"
    bass = rep.verification["bass"]
    assert bass["hypotheses"][2]["values"] == {"bass_length": 0}
    assert verify_finite_injdim_bass(session.resolve("k")).to_dict() == {
        "criterion": "Bass", "inputs": {"C": "k", "dim_R": 1},
        "hypotheses": [hyp("R Cohen-Macaulay", "pass"),
                       hyp("C maximal Cohen-Macaulay", "fail",
                           dim=0, depth=0, dim_R=1),
                       hyp("Ext^{dim R + 1}(k, C) = 0", "undecided",
                           bass_length=None)],
        "conclusion": "C has finite injective dimension", "asserted": False,
        "verification": SKIPPED,
        "undecided": ["resolution needs 3 steps but the cap is 0"],
        "verdict": "undecided"}


# -- the exits the corpus never reaches, each report pinned whole ----------

SKIPPED = {"status": "skipped", "method": "none"}
LIMIT = str(MonomialLimitError())
T24_WINDOW = "Ext^i(M,C) = 0 for r-s+1 <= i <= r+1"
L22 = ("the sequence transfers to Ext^{r-s}(M,C), base-changes Ext^r, "
       "and Ext^{r+1}(M/xM, C) = 0")
MOREOVER = ("every Cohen-Macaulay module of dimension s satisfies both "
            "conditions, with equality in the multiplicity bound")


def fresh(vars, ideal, *names, modules=None, flags=None):
    """The named modules of a session parsed anew, so that no resolution
    or Ext module is cached on them yet."""
    s = parse_session(json.dumps({"vars": vars, "ideal": ideal,
                                  "modules": modules or {},
                                  "flags": flags or {}}))
    return [s.resolve(n) for n in names]


def node(flags=None):
    """R, k and A = R/(x) over the node k[x,y]/(xy)."""
    return fresh(["x", "y"], ["x*y"], "R", "k", "A", flags=flags,
                 modules={"A": {"degrees": [0], "relations": [["x"]]}})


def intercept(monkeypatch, name, when, outcome):
    """Make the criteria module's `name` raise outcome, or return it, on
    the arguments that `when` accepts; every other call goes through."""
    real = getattr(criteria, name)

    def fake(*args, **kwargs):
        if not when(*args):
            return real(*args, **kwargs)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(criteria, name, fake)


def hyp(name, status, **values):
    return {"name": name, "status": status, "values": values}


def unresolved(cid, inputs, *reasons):
    return {"criterion": cid, "inputs": inputs, "hypotheses": [],
            "conclusion": "", "asserted": False, "verification": SKIPPED,
            "undecided": list(reasons), "verdict": "undecided"}


def test_past_the_monomial_limit_the_input_invariants_are_unresolved():
    """Over k[x]/(x^40000) depth and dimension hit the packed-term limit,
    so L2.2, C2.6 and C2.9 stop before any hypothesis."""
    R, = fresh(["x"], ["x^40000"], "R")
    assert check_regseq_transfer(R, R, []).to_dict() == unresolved(
        "L2.2", {"M": "R", "C": "R", "r": None, "s": None, "sequence": []},
        LIMIT, LIMIT)
    assert check_gorenstein_criterion(R).to_dict() == unresolved(
        "C2.6", {"M": "R", "depth_R": None, "type_R": None}, LIMIT, LIMIT)
    assert check_self_ext_criterion(R).to_dict() == unresolved(
        "C2.9", {"C": "R", "n": None, "type_C": None}, LIMIT, LIMIT)


def test_capped_ext_of_k_leaves_l23_undecided():
    """At cap 0 the type of the node is still decided, off its resolution
    over S; with M = k the hypotheses read Ext^1(k, R) and Ext^{r+1}(k, R)
    = Ext^2(k, R), which resolve k over R past the cap."""
    R, k, _ = node({"res_cap": 0})
    assert check_finite_length_criterion(k, R).to_dict() == {
        "criterion": "L2.3",
        "inputs": {"M": "k", "C": "R", "r": 1, "type_C": 1, "length_M": 1},
        "hypotheses": [hyp("r(C) l(M) <= l(Ext^r(M,C))", "undecided",
                           lhs=1, rhs=None),
                       hyp("Ext^{r+1}(M,C) = 0", "undecided", length=None)],
        "conclusion": "Ext^{r+1}(k, C) = 0", "asserted": False,
        "verification": SKIPPED,
        "undecided": ["resolution needs 2 steps but the cap is 0",
                      "resolution needs 3 steps but the cap is 0"],
        "verdict": "undecided"}


def test_regseq_transfer_precondition_and_failed_window():
    R, k, _ = node()
    xs = find_regular_sop(R, seed=1)
    assert check_regseq_transfer(R, k, xs).to_dict() == {
        "criterion": "L2.2",
        "inputs": {"M": "R", "C": "k", "r": 0, "s": 1,
                   "sequence": [str(x) for x in xs]},
        "hypotheses": [hyp("s <= r", "fail", r=0, s=1)],
        "conclusion": "transfer of the sequence to the Ext module",
        "asserted": False, "verification": SKIPPED, "undecided": [],
        "verdict": "not_applicable"}
    R, k = fresh(["x", "y"], ["x^2", "x*y"], "R", "k")
    assert check_regseq_transfer(k, R, []).to_dict() == {
        "criterion": "L2.2",
        "inputs": {"M": "k", "C": "R", "r": 0, "s": 0, "sequence": []},
        "hypotheses": [hyp("M Cohen-Macaulay", "pass"),
                       hyp("sequence length = dim M", "pass", length=0, s=0),
                       hyp(T24_WINDOW, "fail", window={1: 2})],
        "conclusion": L22, "asserted": False, "verification": SKIPPED,
        "undecided": [], "verdict": "not_applicable"}


@pytest.mark.parametrize("capped", ["Ext^{r-s}(M,C)", "Ext^{r+1}(M/xM,C)"])
def test_regseq_transfer_capped_verification(monkeypatch, capped):
    """Over k[x] the hypotheses of L2.2 hold for M = C = R; a cap met by
    the Ext module the verification reads makes the report undecided."""
    R, = fresh(["x"], [], "R")
    xs = find_regular_sop(R, seed=1)
    error = ResolutionCapError(3, 2)
    if capped == "Ext^{r-s}(M,C)":
        intercept(monkeypatch, "ext", lambda M, C, i, *_: M is R and i == 0,
                  error)
    else:
        intercept(monkeypatch, "ext",
                  lambda M, C, i, *_: M is not R and i == 2, error)
    assert check_regseq_transfer(R, R, xs).to_dict() == {
        "criterion": "L2.2",
        "inputs": {"M": "R", "C": "R", "r": 1, "s": 1,
                   "sequence": [str(x) for x in xs]},
        "hypotheses": [hyp("M Cohen-Macaulay", "pass"),
                       hyp("sequence length = dim M", "pass", length=1, s=1),
                       hyp(T24_WINDOW, "pass", window={1: 0, 2: 0})],
        "conclusion": L22, "asserted": False, "verification": SKIPPED,
        "undecided": [str(error)], "verdict": "undecided"}


def test_capped_bass_number_leaves_l23_undecided(monkeypatch):
    """Over k[x]/(x^2), M = C = R meets both hypotheses of L2.3.  At cap 0
    the Bass number mu^1(R) is still decided, off Hom(R, omega), which
    needs no resolution step over R; a cap met by that Hom leaves the
    report undecided, its verification skipped."""
    R, = fresh(["x"], ["x^2"], "R", flags={"res_cap": 0})
    inputs = {"M": "R", "C": "R", "r": 0, "type_C": 1, "length_M": 2}
    hyps = [hyp("r(C) l(M) <= l(Ext^r(M,C))", "pass", lhs=2, rhs=2),
            hyp("Ext^{r+1}(M,C) = 0", "pass", length=0)]
    rep = check_finite_length_criterion(R, R).to_dict()
    assert rep["verification"] == {
        "status": "pass", "method": "direct Bass-number computation",
        "bass_length": 0}
    assert rep["verdict"] == "pass"
    omega = invariants.canonical_module(R.ring)
    intercept(monkeypatch, "ext", lambda M, C, i: C is omega,
              MonomialLimitError())
    assert check_finite_length_criterion(R, R).to_dict() == {
        "criterion": "L2.3", "inputs": inputs, "hypotheses": hyps,
        "conclusion": "Ext^{r+1}(k, C) = 0", "asserted": False,
        "verification": SKIPPED, "undecided": [LIMIT],
        "verdict": "undecided"}


def test_capped_hom_leaves_the_claim_undecided(monkeypatch):
    R, _, A = node()
    error = ResolutionCapError(1, 0)
    intercept(monkeypatch, "ext", lambda M, C, i, *_: M is A and i == 0,
              error)
    assert check_claim_multiplicity(R, A).to_dict() == {
        "criterion": "Claim",
        "inputs": {"C": "R", "M": "A", "dim_R": 1, "type_C": 1},
        "hypotheses": [hyp("R Cohen-Macaulay", "pass"),
                       hyp("M maximal Cohen-Macaulay", "pass",
                           dim=1, depth=1),
                       hyp("C maximal Cohen-Macaulay with finite injective "
                           "dimension", "pass")],
        "conclusion": "r(C) e(M) = e(Hom(M, C))", "asserted": False,
        "verification": SKIPPED, "undecided": [str(error)],
        "verdict": "undecided"}


def test_capped_cm_test_of_r_leaves_c26_undecided(monkeypatch):
    """On the node, A = R/(x) meets every hypothesis of C2.6; a cap met by
    the Cohen-Macaulay test of R in the verification leaves the report
    undecided, its verification skipped rather than failed."""
    R, _, A = node()
    intercept(monkeypatch, "is_cohen_macaulay", lambda X: X is R,
              MonomialLimitError())
    assert check_gorenstein_criterion(A).to_dict() == {
        "criterion": "C2.6",
        "inputs": {"M": "A", "depth_R": 1, "type_R": 1},
        "hypotheses": [hyp("M Cohen-Macaulay", "pass"),
                       hyp("dim M = depth R", "pass", dim_M=1, depth_R=1),
                       hyp("r(R) e(M) <= e(Hom(M,R))", "pass", lhs=1, rhs=1),
                       hyp("Ext^i(M,R) = 0 for 1 <= i <= depth R + 1",
                           "pass", window={1: 0, 2: 0})],
        "conclusion": "R is Gorenstein", "asserted": False,
        "verification": SKIPPED, "undecided": [LIMIT],
        "verdict": "undecided"}


def test_capped_multiplicity_leaves_c28_undecided(monkeypatch):
    """On the quadric cone, C = R meets all four hypotheses of C2.8; the
    identity e(C) = e(R) rank(C) then reads e(R) twice, as e(R) and as
    e(C), and a cap on it leaves both reasons and no verification."""
    doc = json.loads((resources.files("injcrit") / "corpus"
                      / "quadric_cone.json").read_text())
    R, = fresh(doc["vars"], doc["ideal"], "R", flags={"domain": True})
    intercept(monkeypatch, "multiplicity", lambda X: X is R,
              MonomialLimitError())
    assert check_rank_criterion(R).to_dict() == {
        "criterion": "C2.8",
        "inputs": {"C": "R", "dim_R": 2, "type_C": 1, "domain_flag": True},
        "hypotheses": [hyp("R Cohen-Macaulay", "pass"),
                       hyp("C maximal Cohen-Macaulay", "pass",
                           dim=2, depth=2),
                       hyp("C has a rank (flagged domain)", "pass", rank=1),
                       hyp("r(C) <= rank(C)", "pass", type=1, rank=1)],
        "conclusion": "C has finite injective dimension", "asserted": False,
        "verification": SKIPPED, "undecided": [LIMIT, LIMIT],
        "verdict": "undecided"}


@pytest.mark.parametrize("fault", ["capped", "wrong"])
def test_moreover_entry_undecided_or_failed(monkeypatch, fault):
    """An N whose Ext hits a cap gets an undecided entry; an N whose
    multiplicity comes out wrong breaks the equality, an engine bug."""
    R, _, A = node()
    error = ResolutionCapError(1, 0)
    if fault == "capped":
        # the Ext modules of N = R into C = R; Hom(R, omega), which the
        # Bass number of C reads, goes through
        intercept(monkeypatch, "ext", lambda M, C, i: M is C is R, error)
        entry = {"module": "R", "undecided": True}
    else:
        intercept(monkeypatch, "multiplicity", lambda M: M is R, 3)
        entry = {"module": "R", "lhs": 3, "rhs": 2, "equality": False,
                 "window_zero": True}
    assert check_moreover_clause(R, A, [A, R]).to_dict() == {
        "criterion": "T2.4-moreover",
        "inputs": {"C": "R", "M": "A", "r": 1, "s": 1,
                   "modules": ["A", "R"]},
        "hypotheses": [hyp("main criterion verified for M", "pass",
                           verdict="pass")],
        "conclusion": MOREOVER, "asserted": fault == "wrong",
        "verification": {"status": ("undecided" if fault == "capped"
                                    else "fail"),
                         "method": "per-module equality + window",
                         "modules": [{"module": "A", "lhs": 1, "rhs": 1,
                                      "equality": True, "window_zero": True},
                                     entry]},
        "undecided": [str(error)] * 2 if fault == "capped" else [],
        "verdict": "undecided" if fault == "capped" else "engine_bug"}
