"""Acceptance suite.

Each test covers one headline requirement and prints a single PASS or
FAIL line for it.  The random-instance generator is fully seeded, so
every run exercises the same instances.
"""

import json
import random
from contextlib import contextmanager
from math import prod

from injcrit.cli import main
from injcrit.criteria import (check_finite_length_criterion,
                              check_gorenstein_criterion,
                              check_lemma_mult_length, check_main_theorem,
                              check_mcm_inequality, check_moreover_clause,
                              check_rank_criterion, check_self_ext_criterion)
from injcrit.groebner import MembershipTester, buchberger
from injcrit.invariants import (depth, dimension, find_regular_sop,
                                hilbert_series, is_cohen_macaulay, length,
                                multiplicity, projective_dimension_ambient,
                                rank, socle_dimension, type_of)
from injcrit.modules import GradedModule, RingPresentation, ext, resolution
from injcrit.oracle import (oracle_ext_dims, oracle_hilbert, oracle_length,
                            oracle_socle_dimension)
from injcrit.poly import PolyRing

from conftest import (apply_columns, entries, ext_route_type, named_modules,
                      normal_form)


@contextmanager
def acceptance(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


VARS = ["x", "y", "z"]


def random_artinian_instance(seed):
    """A seeded artinian quotient ring in <= 3 variables with relation
    degrees <= 3, together with a test module over it."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    S = PolyRing(VARS[:n])
    powers = [rng.randint(1, 3) for _ in range(n)]
    # keep the vector-space size of the quotient small so the minimal
    # resolutions stay cheap; the product of the powers bounds it
    while prod(powers) > 8:
        i = max(range(n), key=lambda j: powers[j])
        powers[i] -= 1
    ideal = [g ** e for g, e in zip(S.gens(), powers)]
    for _ in range(rng.randint(0, 2)):
        d = rng.randint(2, 3)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = rng.randint(1, 32002)
        f = S.poly(terms)
        if not f.is_zero():
            ideal.append(f)
    ring = RingPresentation(S, ideal)
    kind = rng.randrange(3)
    if kind == 0:
        M = ring.as_module()
    elif kind == 1:
        M = ring.residue_field()
    else:
        d = rng.randint(1, 2)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        f = S.poly({tuple(exps): rng.randint(1, 32002)})
        F = S.free_module((0,))
        M = GradedModule(ring, (0,), [F.from_polys([f])])
    return ring, M


def test_acceptance_1_oracle_equivalence(corpus):
    with acceptance("[1] oracle equivalence (corpus + 200 random)"):
        # shipped corpus: Hilbert functions always, the finite-length
        # battery whenever lengths are finite
        for session in corpus.values():
            for _name, M in named_modules(session):
                hf = hilbert_series(M).coefficients(8)
                if length(M) is not None:
                    assert oracle_hilbert(M, bound=12) == \
                        hilbert_series(M).coefficients(12)
                    assert oracle_length(M, bound=12) == length(M)
                    assert oracle_socle_dimension(M, bound=12) == \
                        socle_dimension(M)
                else:
                    from injcrit.oracle import ModuleTable
                    mt = ModuleTable(M)
                    for d in range(min(M.shifts, default=0), 9):
                        assert mt.dims(d) == hf.get(d, 0)
        # 200 seeded random artinian instances
        for seed in range(1, 201):
            ring, M = random_artinian_instance(seed)
            R = ring.as_module()
            assert oracle_hilbert(M, bound=16) == \
                hilbert_series(M).coefficients(16)
            assert oracle_length(M, bound=16) == length(M)
            assert oracle_socle_dimension(M, bound=16) == socle_dimension(M)
            assert type_of(M) == ext_route_type(M)
            dims = oracle_ext_dims(M, R, i_max=3, bound=16)
            for i in range(4):
                engine = hilbert_series(ext(M, R, i)).coefficients(6)
                oracle = {d: c for d, c in dims[i].items() if d <= 6}
                assert engine == oracle


def test_acceptance_2_multiplicity_equals_cut_length(corpus):
    with acceptance("[2] e(M) = length of the parameter quotient"):
        checked = 0
        for session in corpus.values():
            for _name, M in named_modules(session):
                if M.is_zero() or not is_cohen_macaulay(M):
                    continue
                for seed in range(1, 11):
                    rep = check_lemma_mult_length(
                        M, find_regular_sop(M, seed=seed), seed)
                    assert rep.verdict == "pass", (session, _name, seed)
                    assert rep.verification["status"] == "pass"
                    checked += 1
        assert checked >= 100


def test_acceptance_3_finite_length_criterion(corpus):
    with acceptance("[3] finite-length criterion harness"):
        passing = 0
        for sname, session in corpus.items():
            for cname, C in named_modules(session):
                for mname, M in named_modules(session):
                    if M.is_zero() or length(M) is None:
                        continue
                    rep = check_finite_length_criterion(M, C)
                    assert rep.verdict in ("pass", "not_applicable"), \
                        (sname, cname, mname, rep.undecided)
                    if rep.verdict == "pass":
                        # the conclusion is certified by an actual
                        # vanishing computation, not by the hypotheses
                        assert rep.verification["status"] == "pass"
                        passing += 1
        assert passing >= 3
        # the type-2 artinian ring fails hypothesis (b) with C = R
        session = corpus["type2_artinian"]
        rep = check_finite_length_criterion(session.resolve("k"),
                                            session.resolve("R"))
        assert rep.verdict == "not_applicable"
        failed = [h["name"] for h in rep.hypotheses if h["status"] == "fail"]
        assert any("e(" in n or "Ext" in n for n in failed)


def test_acceptance_4_main_theorem_soundness(corpus):
    with acceptance("[4] main criterion soundness"):
        passing = 0
        for sname, session in corpus.items():
            R = session.ring
            for cname, C in named_modules(session):
                for mname, M in named_modules(session):
                    if M.is_zero() or C.is_zero():
                        continue
                    if dimension(M) > depth(C):
                        continue  # rejected pairs are exercised elsewhere
                    rep = check_main_theorem(C, M)
                    if rep.verdict != "pass":
                        continue
                    passing += 1
                    # conclusions verified independently
                    d = dimension(R.as_module())
                    assert depth(R.as_module()) == d
                    assert depth(C) == d
                    assert ext(R.residue_field(), C, d + 1).is_zero()
                    assert rep.verification["status"] == "pass"
        assert passing >= 2
        # exhaustive negative control on the non-CM ring
        session = corpus["noncm_plane"]
        for cname, C in named_modules(session):
            for mname, M in named_modules(session):
                if M.is_zero() or C.is_zero():
                    continue
                if dimension(M) > depth(C):
                    continue
                rep = check_main_theorem(C, M)
                assert rep.verdict != "pass", (cname, mname)


def test_acceptance_5_moreover_clause(corpus):
    with acceptance("[5] moreover clause exact equalities"):
        session = corpus["gorenstein_node"]
        R = session.resolve("R")
        A = session.resolve("A")
        others = [(n, N) for n, N in named_modules(session)
                  if not N.is_zero() and dimension(N) == 1
                  and is_cohen_macaulay(N)]
        assert len(others) >= 2
        rep = check_moreover_clause(R, A, [N for _n, N in others])
        assert rep.verdict == "pass"
        entries = rep.verification["modules"]
        assert len(entries) == len(others)
        for entry in entries:
            assert entry["lhs"] == entry["rhs"] and entry["equality"]
            assert entry["window_zero"]


def test_acceptance_6_corollary_suite(corpus):
    with acceptance("[6] corollary suite"):
        # Gorenstein detection on the node, confirmed by the type
        node = corpus["gorenstein_node"]
        rep = check_gorenstein_criterion(node.resolve("R"))
        assert rep.verdict == "pass"
        assert type_of(node.resolve("R")) == 1

        # MCM comparison: dual passes, the type-2 ring itself fails
        t2 = corpus["type2_artinian"]
        assert check_mcm_inequality(t2.resolve("E")).verdict == "pass"
        assert check_mcm_inequality(t2.resolve("R")).verdict == \
            "not_applicable"

        # rank identity on every flagged-domain corpus module of full
        # dimension
        tested = 0
        for sname, session in corpus.items():
            if not session.ring.domain_flag:
                continue
            R = session.resolve("R")
            for mname, M in named_modules(session):
                if M.is_zero() or dimension(M) != dimension(R):
                    continue
                r = rank(M)
                assert r is not None, (sname, mname)
                assert multiplicity(M) == multiplicity(R) * r, (sname, mname)
                tested += 1
        assert tested >= 4
        rep = check_rank_criterion(corpus["quadric_cone"].resolve("R"))
        assert rep.verdict == "pass"
        assert rep.verification["e_C"] == rep.verification["e_R_times_rank"]

        # self-Hom criterion with the endomorphism multiplicity matched
        # by the oracle
        E = t2.resolve("E")
        rep = check_self_ext_criterion(E)
        assert rep.verdict == "pass"
        end = ext(E, E, 0)
        e_engine = length(end)
        dims = oracle_ext_dims(E, E, i_max=0, bound=12)
        assert e_engine == sum(dims[0].values())


def test_acceptance_7_structural_invariants(corpus):
    with acceptance("[7] structural invariants"):
        for sname, session in corpus.items():
            ring = session.ring
            n = ring.poly_ring.n
            for _name, M in named_modules(session):
                if M.is_zero():
                    continue
                # Auslander-Buchsbaum over the ambient polynomial ring
                assert depth(M) + projective_dimension_ambient(M) == n
                # d compose d = 0 and minimality over the quotient
                res = resolution(M, "R", steps=2)
                for i in range(len(res.diffs) - 1):
                    for col in res.diffs[i + 1]:
                        assert ring.nf_vec(
                            apply_columns(res.diffs[i], col)).is_zero()
                for cols in res.diffs:
                    for col in cols:
                        for entry in entries(col):
                            assert entry.terms.get(
                                entry.ring._zero_mono, 0) == 0
            # normal-form idempotence and two-way membership for the
            # defining ideal
            F = ring.poly_ring.free_module((0,))
            gens = [F.from_polys([g]) for g in ring.ideal_gens]
            if not gens:
                continue
            gb = buchberger(gens, F)
            x0 = ring.poly_ring.var(0)
            probe = F.from_polys([x0 ** 3 + x0])
            once = normal_form(probe, gb)
            assert normal_form(once, gb) == once
            for g in gens:
                assert normal_form(g, gb).is_zero()
            mt = MembershipTester(gens, F)
            for g in gb:
                assert mt.contains(g)


def test_acceptance_8_determinism(tmp_path, capsys):
    with acceptance("[8] byte-identical reruns"):
        from injcrit.cli import _corpus_files
        for name, entry in _corpus_files():
            outputs = []
            for _ in range(2):
                main(["--json", "--seed", "5", "corpus", "run", name])
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], name
            json.loads(outputs[0])
