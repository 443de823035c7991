"""Numerical invariants: Hilbert series, depth, multiplicity, type, rank."""

import pytest
from hypothesis import given, settings, strategies as st

from injcrit import groebner, modules
from injcrit.groebner import buchberger
from injcrit.invariants import (UndecidedError, _ip_add, _ip_shift,
                                _mono_ideal_numerator, canonical_module,
                                depth, dimension, find_regular_sop,
                                hilbert_series, is_cohen_macaulay, length,
                                multiplicity, projective_dimension_ambient,
                                rank, regular_cut, socle_dimension, type_of)
from injcrit.modules import (GradedModule, RingPresentation, ZeroModuleError,
                             ext, quotient_by_sequence, resolution,
                             syzygies_over)
from injcrit.oracle import oracle_socle_dimension
from injcrit.poly import PolyRing, Vec, term_key
from injcrit.session import parse_session

from conftest import (STRESS, direct_sum, draw_presentation, draw_xyz_ring,
                      ext_route_type, named_modules)
from test_acceptance import random_artinian_instance


def quotient_ring(varnames, rel_strings, domain=False):
    S = PolyRing(list(varnames))
    gens = [S.from_string(s) for s in rel_strings]
    return RingPresentation(S, gens, domain_flag=domain)


def ideal_module(ring, gen_strings):
    polys = [ring.poly_ring.from_string(s) for s in gen_strings]
    F = ring.poly_ring.free_module((0,))
    return GradedModule(ring, (0,), [F.from_polys([f]) for f in polys])


def test_hilbert_series_node(node_ring):
    hs = hilbert_series(node_ring.as_module())
    assert hs.coefficients(5) == {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2}
    assert hs.dimension == 1 and hs.multiplicity == 2
    assert hs.length is None


def test_hilbert_series_artinian(type2_ring):
    hs = hilbert_series(type2_ring.as_module())
    assert hs.coefficients(5) == {0: 1, 1: 2}
    assert hs.length == 3  # None for an infinite length


def test_auslander_buchsbaum_formula():
    cases = [
        quotient_ring("xy", []),                 # regular, depth 2
        quotient_ring("xy", ["x*y"]),            # hypersurface, depth 1
        quotient_ring("xy", ["x^2", "x*y"]),     # depth 0
        quotient_ring("xyz", ["x*y", "x*z", "y*z"]),
    ]
    for ring in cases:
        M = ring.as_module()
        n = ring.poly_ring.n
        assert depth(M) + projective_dimension_ambient(M) == n


def test_depth_bounded_by_dimension():
    for ring in (quotient_ring("xy", ["x^2", "x*y"]),
                 quotient_ring("xyz", ["x*y", "x*z", "y*z"]),
                 quotient_ring("xy", ["x*y"])):
        M = ring.as_module()
        assert 0 <= depth(M) <= dimension(M)


def test_known_invariant_values(node_ring, type2_ring):
    R = node_ring.as_module()
    assert (dimension(R), depth(R), multiplicity(R)) == (1, 1, 2)
    assert type_of(R) == 1 and is_cohen_macaulay(R)

    A = type2_ring.as_module()
    assert (dimension(A), depth(A), length(A)) == (0, 0, 3)
    assert type_of(A) == 2 and socle_dimension(A) == 2

    three = quotient_ring("xyz", ["x*y", "x*z", "y*z"]).as_module()
    assert (dimension(three), multiplicity(three)) == (1, 3)
    assert type_of(three) == 2


def test_non_cm_example():
    ring = quotient_ring("xy", ["x^2", "x*y"])
    M = ring.as_module()
    assert depth(M) == 0 and dimension(M) == 1
    assert not is_cohen_macaulay(M)


def test_type_equals_socle_for_finite_length(type2_ring, dual_numbers):
    """For a finite-length M both read beta^S_n(M) off the resolution over
    the ambient ring, so the dense oracle's socle is the independent side."""
    for ring in (type2_ring, dual_numbers):
        M = ring.as_module()
        assert type_of(M) == socle_dimension(M) == oracle_socle_dimension(M)


def test_multiplicity_additive_on_sums(node_ring):
    M = node_ring.as_module()
    assert multiplicity(direct_sum(M, M)) == 2 * multiplicity(M)
    assert multiplicity(direct_sum(direct_sum(M, M), M)) == \
        3 * multiplicity(M)


def test_rank_on_domains():
    line = quotient_ring("x", [], domain=True)
    assert rank(line.as_module()) == 1
    cone = quotient_ring("xyz", ["x^2 - y*z"], domain=True)
    assert rank(cone.as_module()) == 1
    # the ideal (x, y) of the cone: two generators, two relation columns
    F = cone.poly_ring.free_module((1, 1))
    pr = cone.poly_ring
    C = GradedModule(cone, (1, 1),
                     [F.from_polys([pr.from_string("y"),
                                    pr.from_string("-x")]),
                      F.from_polys([pr.from_string("x"),
                                    pr.from_string("-z")])])
    assert rank(C) == 1
    # while the cyclic quotient by that ideal has rank 0
    assert rank(ideal_module(cone, ["x", "y"])) == 0


def test_rank_refused_off_domains(node_ring):
    assert rank(node_ring.as_module()) is None


def test_regular_element_detection(node_ring):
    x, y = node_ring.poly_ring.gens()
    M = node_ring.as_module()
    assert regular_cut(M, x + y)[1]
    assert not regular_cut(M, x)[1]  # zerodivisor on R/(xy)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 10 ** 6))
def test_sop_certificate_properties(seed):
    """dim M linear forms, each regular on M cut by the forms before it
    by the kernel route, cutting M to finite length."""
    for ring in (quotient_ring("xy", ["x*y"]), quotient_ring("xyz", ["x*y"])):
        M = ring.as_module()
        xs = find_regular_sop(M, seed=seed)
        assert len(xs) == dimension(M)
        assert all(f.degree() == 1 for f in xs)
        for i, x in enumerate(xs):
            assert kernel_route_is_regular(quotient_by_sequence(M, xs[:i]),
                                           x)
        assert length(quotient_by_sequence(M, xs)) is not None


def test_sop_on_artinian_module_is_empty(type2_ring):
    assert find_regular_sop(type2_ring.as_module()) == []


def test_multiplicity_via_linear_cut(node_ring):
    """e(M) equals the length of M modulo a verified linear parameter."""
    from injcrit.modules import quotient_by_sequence
    M = node_ring.as_module()
    cut = quotient_by_sequence(M, find_regular_sop(M, seed=7))
    assert length(cut) == multiplicity(M)


def second_basis_numerator(M):
    """hilbert_series as it was before it read M.rel_tester: the Hilbert
    numerator of the leads of a second, separately computed reduced
    Groebner basis of the relations plus I * cover over S."""
    gens = list(M.relations) + M.ring.ideal_columns(M.cover)
    by_pos = {}
    for g in buchberger(gens, M.cover):
        pos, m = max(g.terms, key=term_key)
        by_pos.setdefault(pos, []).append(m)
    num = {}
    for j, a in enumerate(M.shifts):
        nj = _mono_ideal_numerator(frozenset(by_pos.get(j, ())))
        num = _ip_add(num, _ip_shift(nj, a))
    return num


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hilbert_series_matches_a_second_groebner_basis(data):
    """The lead module does not depend on the basis, so the relation
    tester's leads give the series a second basis gives, on artinian and
    non-artinian rings alike."""
    M = draw_presentation(data, draw_xyz_ring(data))
    hs = hilbert_series(M)
    assert hs.numerator == second_basis_numerator(M)
    assert hs.nvars == 3


def kernel_route_socle_dimension(M):
    """socle_dimension as it was before Soc M = Hom(k, M): the kernel K of
    M(-1) -> M^n, m -> (x_1 m, ..., x_n m), over n stacked copies of M,
    then l(M) - l(M / <K>)."""
    ring = M.ring
    n = ring.poly_ring.n
    g = M.cover.rank
    lM = length(M)
    if lM == 0:
        return 0
    shifted = ring.poly_ring.free_module(tuple(a + 1 for a in M.shifts))
    stacked = M
    for _ in range(n - 1):
        stacked = direct_sum(stacked, M)
    cols = [Vec(stacked.cover, {(i * g + j, tuple(int(v == i)
                                                   for v in range(n))): 1
                                for i in range(n)})
            for j in range(g)]
    K = syzygies_over(ring, cols, shifted, stacked.cover, stacked.relations)
    images = [Vec(M.cover, dict(k.terms)) for k in K]
    return lM - length(GradedModule(ring, M.shifts,
                                    list(M.relations) + images))


def kernel_route_is_regular(M, x):
    """Regularity as it was decided before regular_cut: x is regular on M
    iff every element of the kernel K of M(-e) -> M, m -> x m, with
    e = deg x, already vanishes in M(-e)."""
    ring = M.ring
    shifted = GradedModule(
        ring, tuple(a + (x.degree() or 0) for a in M.shifts), M.relations)
    cols = [M.cover.gen(j).poly_mul(x) for j in range(M.cover.rank)]
    K = syzygies_over(ring, cols, shifted.cover, M.cover, M.relations)
    return all(shifted.rel_tester.contains(k) for k in K)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_regular_cut_matches_the_kernel_route(data):
    """The Hilbert identity HS(M/xM) = (1 - t^e) HS(M) decides regularity
    as the retired kernel route does, for a random linear form, a
    variable, x*y, a nonzero constant and 0, and the quotient it returns
    is M/xM."""
    ring = draw_xyz_ring(data)
    M = draw_presentation(data, ring)
    S = ring.poly_ring
    x, y, _ = S.gens()
    f = data.draw(st.sampled_from([
        S.linear_form([data.draw(st.integers(0, S.p - 1))
                       for _ in range(S.n)]),
        data.draw(st.sampled_from(S.gens())), x * y,
        S.constant(data.draw(st.integers(1, S.p - 1))), S.zero()]))
    N, regular = regular_cut(M, f)
    assert regular == kernel_route_is_regular(M, f)
    assert N.cache_key() == quotient_by_sequence(M, [f]).cache_key()


def test_sop_search_runs_no_syzygy_computation(monkeypatch, corpus):
    """A work guard: find_regular_sop decides each candidate from the
    Hilbert series of the quotient it cuts, so over every named module
    of the corpus sessions it runs no syzygy computation."""
    runs = [0]
    syzygies = modules.syzygies

    def counted(*args):
        runs[0] += 1
        return syzygies(*args)

    targets = [M for session in corpus.values()
               for _, M in named_modules(session) if not M.is_zero()]
    monkeypatch.setattr(modules, "syzygies", counted)
    for M in targets:
        try:
            find_regular_sop(M)
        except UndecidedError:      # no sop is regular on a non-CM module
            pass
    assert targets and runs[0] == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_socle_dimension_matches_the_kernel_route_and_the_oracle(data):
    """Soc M read as beta^S_n(M) agrees with the retired kernel route and
    with the dense oracle, on finite-length quotients M / (x^2, y^2, z^2) M
    over ambient and quotient rings."""
    ring = draw_xyz_ring(data)
    x, y, z = ring.poly_ring.gens()
    M = quotient_by_sequence(draw_presentation(data, ring),
                             [x * x, y * y, z * z])
    assert socle_dimension(M) == kernel_route_socle_dimension(M) == \
        oracle_socle_dimension(M)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_type_matches_the_ext_route(data):
    """type read as beta^S_p(M) at p = pd_S M agrees with the length of
    Ext^depth(k, M) built over the ring, on ambient and quotient rings; on
    a zero module both routes refuse."""
    M = draw_presentation(data, draw_xyz_ring(data))
    if M.is_zero():
        for route in (type_of, ext_route_type):
            with pytest.raises(ZeroModuleError):
                route(M)
    else:
        assert type_of(M) == ext_route_type(M)


def test_socle_dimension_of_a_zero_module_is_zero(type2_ring):
    """A zero module has finite length and no socle: the guard answers 0
    where type_of would refuse."""
    for ring in (type2_ring, quotient_ring("xy", [])):
        F = ring.poly_ring.free_module((0, 1))
        M = GradedModule(ring, F.shifts, [F.gen(0), F.gen(1)])
        assert M.is_zero() and length(M) == 0
        assert socle_dimension(M) == 0


def test_hilbert_series_reuses_the_relation_tester(monkeypatch, type2_ring):
    """A work guard: once is_zero has built M's relation tester, the
    Hilbert series builds no Groebner basis of its own, and the ring's
    ideal tester is the relation tester of R as a module."""
    ring = quotient_ring("xyz", ["x^2", "y*z - x*z"])
    M = ideal_module(ring, ["x*y", "z^2"])
    assert not M.is_zero()
    built = [0]
    init = groebner.MembershipTester.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.MembershipTester, "__init__", counted)
    hilbert_series(M)
    assert built[0] == 0
    for R in (ring, type2_ring, quotient_ring("xy", [])):
        assert R._ideal_tester() is R.as_module().rel_tester


def transposed_canonical_module(ring):
    """omega_R as canonical_module built it before it read Hom(d_c, S) off
    induced_hom_map: row i of the last map d_c of the minimal S-resolution
    of R, transposed by hand, is the i-th relation."""
    n = ring.poly_ring.n
    res = resolution(ring.as_module(), "S", steps=n + 2)
    c = res.num_diffs
    shifts = tuple(n - b for b in res.covers[c].shifts)
    cover = ring.poly_ring.free_module(shifts)
    rows = {}
    for j, col in enumerate(res.diffs[c - 1] if c else ()):
        for (i, m), coef in col.terms.items():
            rows.setdefault(i, {})[j, m] = coef
    return GradedModule(ring, shifts,
                        [Vec(cover, rows[i]) for i in sorted(rows)])


def test_canonical_module_matches_the_transposed_last_map(corpus):
    """omega's presentation, term for term and in order, equals the hand
    transposition of d_c on the corpus and stress rings and the 200
    seeded artinian rings of the acceptance battery."""
    rings = [session.ring for session in corpus.values()]
    rings += [parse_session(path.read_text()).ring for _, path in STRESS]
    rings += [random_artinian_instance(seed)[0] for seed in range(1, 201)]
    for ring in rings:
        omega, ref = canonical_module(ring), transposed_canonical_module(ring)
        assert omega.shifts == ref.shifts
        assert [list(r.terms.items()) for r in omega.relations] == \
            [list(r.terms.items()) for r in ref.relations]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_linear_cut_of_an_ext_module_keeps_its_generators(data):
    """For E = Ext^i(M, C), which ext returns minimal, and a nonzero
    linear form x, no relation of E/xE has a unit entry, so its minimal
    model keeps every generator: L2.2 reads the shifts of E/(xs)E as
    they are."""
    ring = draw_xyz_ring(data)
    M = draw_presentation(data, ring, max_rank=2)
    C = draw_presentation(data, ring, max_rank=2)
    S = ring.poly_ring
    x = S.linear_form(data.draw(st.lists(st.integers(0, S.p - 1),
                                         min_size=S.n, max_size=S.n
                                         ).filter(any)))
    N = quotient_by_sequence(ext(M, C, data.draw(st.integers(0, 2))), [x])
    assert N.minimal_model().shifts == N.shifts
