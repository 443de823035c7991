"""Criterion checkers: verdict semantics and worked instances."""

import pytest

from injcrit import criteria
from injcrit.criteria import (check_claim_multiplicity,
                              check_finite_length_criterion,
                              check_gorenstein_criterion,
                              check_lemma_mult_length, check_main_theorem,
                              check_mcm_inequality, check_moreover_clause,
                              check_rank_criterion, check_regseq_transfer,
                              check_self_ext_criterion,
                              verify_finite_injdim_bass)
from injcrit.invariants import (RegularSequenceCertificate, find_regular_sop,
                                multiplicity)
from injcrit.session import CHECKS


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
        cert = find_regular_sop(M, seed=3)
        rep = check_lemma_mult_length(M, cert)
        assert rep.verdict == "pass" and rep.asserted
        vals = rep.verification
        assert vals["status"] == "pass"


def test_lemma_rejects_unverified_certificate(corpus):
    M = corpus["gorenstein_node"].resolve("R")
    bogus = RegularSequenceCertificate([], None, 1, [False], False)
    with pytest.raises(ValueError):
        check_lemma_mult_length(M, bogus)


def test_regseq_transfer_on_node(corpus):
    session = corpus["gorenstein_node"]
    R = session.resolve("R")
    cert = find_regular_sop(R, seed=1)
    rep = check_regseq_transfer(R, R, cert)
    assert rep.verdict == "pass"
    assert rep.verification["status"] == "pass"
    # the base-change comparison is taken up to a grading shift
    assert rep.verification["iso_report"]["shift"] == -1


def test_regseq_transfer_base_case(corpus):
    """An empty sequence collapses to plain nonvanishing of Ext^r."""
    session = corpus["type2_artinian"]
    E = session.resolve("E")
    k = session.resolve("k")
    cert = RegularSequenceCertificate([], None, 1, [], True)
    rep = check_regseq_transfer(k, E, cert)
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
    assert [h.to_dict() for h in rep.hypotheses] == [
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
    assert check_main_theorem(zero, R).hypotheses[0].name == "C nonzero"
    for M, lM in ((R, None), (zero, 0)):
        rep = check_finite_length_criterion(M, R)
        assert rep.verdict == "not_applicable"
        assert [h.to_dict() for h in rep.hypotheses] == [
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


def test_undecided_from_tiny_cap(corpus):
    session = corpus["gorenstein_node"]
    rep = check_mcm_inequality(session.resolve("R"), cap=0)
    assert rep.verdict in ("undecided", "pass")
    if rep.verdict == "undecided":
        assert rep.undecided
