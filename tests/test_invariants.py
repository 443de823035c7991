"""Numerical invariants: Hilbert series, depth, multiplicity, type, rank."""

import pytest
from hypothesis import given, settings, strategies as st

from injcrit import groebner
from injcrit.groebner import buchberger
from injcrit.invariants import (_ip_add, _ip_shift, _mono_ideal_numerator,
                                depth, dimension, find_regular_sop,
                                hilbert_series, is_cohen_macaulay,
                                is_regular_element, length, multiplicity,
                                projective_dimension_ambient, rank,
                                socle_dimension, type_of)
from injcrit.modules import (GradedModule, RingPresentation,
                             kernel_of_cokernel_map, quotient_by_sequence)
from injcrit.oracle import oracle_socle_dimension
from injcrit.poly import PolyRing, Vec

from conftest import direct_sum, draw_presentation, draw_xyz_ring


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
    assert hs.finite_length and hs.length == 3


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
    """socle_dimension is Ext^0(k, M), which type_of also reads for a
    finite-length M, so the dense oracle's socle is the independent side."""
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
    assert is_regular_element(M, x + y)
    assert not is_regular_element(M, x)  # zerodivisor on R/(xy)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 10 ** 6))
def test_sop_certificate_properties(seed):
    ring = quotient_ring("xy", ["x*y"])
    cert = find_regular_sop(ring.as_module(), seed=seed)
    assert cert.verified
    assert len(cert.elements) == 1
    assert all(f.degree() == 1 for f in cert.elements)


def test_sop_on_artinian_module_is_empty(type2_ring):
    cert = find_regular_sop(type2_ring.as_module())
    assert cert.verified and cert.elements == []


def test_multiplicity_via_linear_cut(node_ring):
    """e(M) equals the length of M modulo a verified linear parameter."""
    from injcrit.modules import quotient_by_sequence
    M = node_ring.as_module()
    cert = find_regular_sop(M, seed=7)
    cut = quotient_by_sequence(M, cert.elements)
    assert length(cut) == multiplicity(M)


def second_basis_numerator(M):
    """hilbert_series as it was before it read M.rel_tester: the Hilbert
    numerator of the leads of a second, separately computed reduced
    Groebner basis of the relations plus I * cover over S."""
    gens = list(M.relations) + M.ring.ideal_columns(M.cover)
    by_pos = {}
    for g in buchberger(gens, M.cover):
        (pos, m), _ = g.lead()
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
    K = kernel_of_cokernel_map(cols, shifted, stacked)
    images = [Vec(M.cover, dict(k.terms)) for k in K]
    return lM - length(GradedModule(ring, M.shifts,
                                    list(M.relations) + images))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_socle_dimension_matches_the_kernel_route_and_the_oracle(data):
    """Soc M read as Ext^0(k, M) agrees with the retired kernel route and
    with the dense oracle, on finite-length quotients M / (x^2, y^2, z^2) M
    over ambient and quotient rings."""
    ring = draw_xyz_ring(data)
    x, y, z = ring.poly_ring.gens()
    M = quotient_by_sequence(draw_presentation(data, ring),
                             [x * x, y * y, z * z])
    assert socle_dimension(M) == kernel_route_socle_dimension(M) == \
        oracle_socle_dimension(M)


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
