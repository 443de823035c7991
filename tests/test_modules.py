"""Presentations, minimal free resolutions, and Ext modules."""

from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from injcrit import modules
from injcrit.invariants import hilbert_series, length
from injcrit.modules import (GradedModule, RingPresentation, ext,
                             kernel_of_cokernel_map, minimal_generators,
                             minimalize_presentation, quotient_by_sequence,
                             resolution)
from injcrit.poly import PolyRing
from injcrit.session import parse_session, run_session

from conftest import (apply_columns, direct_sum, draw_presentation,
                      draw_xyz_ring, entries, hom_module)


def test_relations_reduced_modulo_ideal(dual_numbers):
    ring = dual_numbers
    x, = ring.poly_ring.gens()
    F = ring.poly_ring.free_module((0,))
    M = GradedModule(ring, (0,), [F.from_polys([x ** 2]),
                                  F.from_polys([x])])
    assert len(M.relations) == 1  # x^2 dies in the quotient


def test_inhomogeneous_relation_rejected(node_ring):
    F = node_ring.poly_ring.free_module((0,))
    x, y = node_ring.poly_ring.gens()
    with pytest.raises(ValueError, match="column 0"):
        GradedModule(node_ring, (0,), [F.from_polys([x + x * x])])
    # a mixed-degree column that collapses modulo the ideal is fine
    GradedModule(node_ring, (0,), [F.from_polys([x + x * y])])


def test_minimalize_splits_units(node_ring):
    x, y = node_ring.poly_ring.gens()
    F = node_ring.poly_ring.free_module((0, 0))
    # second generator equals x times the first: e1 - ?  use a unit entry
    M = GradedModule(node_ring, (0, 0),
                     [F.from_polys([node_ring.poly_ring.one(),
                                    node_ring.poly_ring.constant(-1)])])
    mm = minimalize_presentation(node_ring, M.shifts, M.relations)
    assert mm.cover.rank == 1 and not mm.relations


def restart_loop_minimalize(M):
    """minimalize_presentation as it was before its single pass: after
    each unit elimination the scan restarts at the first relation."""
    ring = M.ring
    shifts = list(M.shifts)
    cols = [entries(c) for c in M.relations]
    changed = True
    while changed:
        changed = False
        for l, col in enumerate(cols):
            for j, entry in enumerate(col):
                const = entry.terms.get(ring.poly_ring._zero_mono, 0)
                if const:
                    uinv = ring.poly_ring.field.inv(const)
                    for l2 in range(len(cols)):
                        if l2 == l:
                            continue
                        c2 = cols[l2][j]
                        if not c2.is_zero():
                            factor = c2.scale(uinv)
                            cols[l2] = [
                                ring.nf_poly(a - factor * b)
                                for a, b in zip(cols[l2], cols[l])]
                    del cols[l]
                    del shifts[j]
                    for col2 in cols:
                        del col2[j]
                    changed = True
                    break
            if changed:
                break
    cover = ring.poly_ring.free_module(tuple(shifts))
    rels = [cover.from_polys(col) for col in cols]
    rels = [r for r in rels if not r.is_zero()]
    rels = minimal_generators(ring, rels, cover)
    return GradedModule(ring, shifts, rels, name=M.name)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_single_pass_minimalize_matches_the_restart_loop(data):
    """A pivot never gives an earlier relation a unit entry, so one
    forward pass picks the restart loop's pivots and returns exactly its
    shifts and relations."""
    M = draw_presentation(data, draw_xyz_ring(data))
    new = minimalize_presentation(M.ring, M.shifts, M.relations)
    old = restart_loop_minimalize(M)
    assert new.shifts == old.shifts
    assert [list(r.terms.items()) for r in new.relations] == \
        [list(r.terms.items()) for r in old.relations]


def test_single_pass_minimalize_matches_the_restart_loop_on_ext_traffic(
        monkeypatch):
    """The Ext presentations a real session minimalizes are wider than the
    drawn ones: the stress session segre12 passes 7, with up to 492
    generators and 522 relations, and each must come out as the restart
    loop's.  Its Bass I, of a module that is not maximal Cohen-Macaulay,
    still builds Ext^5(k, I), whose presentations stay wide; the Bass
    numbers of segre_quadric_modules are now read off Hom(C, omega)."""
    seen = []
    sparse = minimalize_presentation

    def spy(ring, shifts, relations, name=None):
        # the restart loop wants its relations reduced mod I, as a
        # GradedModule holds them
        M = GradedModule(ring, shifts, relations, name=name)
        seen.append((M, sparse(ring, shifts, relations, name=name)))
        return seen[-1][1]

    monkeypatch.setattr(modules, "minimalize_presentation", spy)
    path = Path(__file__).resolve().parent / "sessions" / "segre12.json"
    run_session(parse_session(path.read_text()))
    assert len(seen) == 7
    assert max(len(M.shifts) for M, _ in seen) == 492
    assert max(len(M.relations) for M, _ in seen) == 522
    for M, new in seen:
        old = restart_loop_minimalize(M)
        assert new.shifts == old.shifts
        assert [list(r.terms.items()) for r in new.relations] == \
            [list(r.terms.items()) for r in old.relations]


def test_minimalize_clears_earlier_relations_at_the_first_unit():
    """The relation y e0 + e1 + e2 pivots on e1, its first unit entry, and
    clears x e1 from the relation before it, which leaves -x e2."""
    S = PolyRing(["x", "y", "z"])
    x, y, _ = S.gens()
    one = S.one()
    F = S.free_module((0, 1, 1))
    M = GradedModule(RingPresentation(S), (0, 1, 1),
                     [F.from_polys([x * y, x, S.zero()]),
                      F.from_polys([y, one, one])])
    mm = minimalize_presentation(M.ring, M.shifts, M.relations)
    assert mm.shifts == (0, 1)
    assert [entries(r) for r in mm.relations] == [[S.zero(), -x]]
    old = restart_loop_minimalize(M)
    assert (old.shifts, old.relations) == (mm.shifts, mm.relations)


def betti(M, base, steps):
    res = resolution(M, base, steps=steps)
    return [c.rank for c in res.covers]


def test_residue_field_over_polynomial_ring():
    S = PolyRing(["x", "y"])
    amb = RingPresentation(S, ())
    assert betti(amb.residue_field(), "S", 4) == [1, 2, 1]


def test_residue_field_over_dual_numbers(dual_numbers):
    res = resolution(dual_numbers.residue_field(), "R", steps=4)
    assert [c.rank for c in res.covers] == [1, 1, 1, 1, 1]
    x, = dual_numbers.poly_ring.gens()
    for cols in res.diffs:
        assert [entries(c) for c in cols] == [[x]]


def test_differentials_compose_to_zero(type2_ring):
    res = resolution(type2_ring.residue_field(), "R", steps=3)
    for i in range(len(res.diffs) - 1):
        for col in res.diffs[i + 1]:
            image = apply_columns(res.diffs[i], col)
            assert type2_ring.nf_vec(image).is_zero()


def test_resolution_minimality(type2_ring):
    res = resolution(type2_ring.residue_field(), "R", steps=3)
    for cols in res.diffs:
        for col in cols:
            for entry in entries(col):
                assert entry.terms.get(entry.ring._zero_mono, 0) == 0


def test_kernel_of_identity_is_relations(node_ring):
    R = node_ring.as_module()
    cols = [R.cover.gen(0)]
    K = kernel_of_cokernel_map(node_ring, cols, R.cover, R.cover,
                               R.relations)
    assert all(R.contains(k) for k in K)


def test_ext_zero_matches_hom(node_ring):
    x, y = node_ring.poly_ring.gens()
    F = node_ring.poly_ring.free_module((0,))
    A = GradedModule(node_ring, (0,), [F.from_polys([x])])
    lhs = ext(A, node_ring.as_module(), 0)
    rhs = hom_module(A, node_ring.as_module())
    assert hilbert_series(lhs).coefficients(8) == \
        hilbert_series(rhs).coefficients(8)
    assert sorted(lhs.shifts) == sorted(rhs.shifts)


def test_self_injective_hypersurface(dual_numbers):
    R = dual_numbers.as_module()
    k = dual_numbers.residue_field()
    assert not ext(k, R, 0).is_zero()
    for i in (1, 2, 3):
        assert ext(k, R, i).is_zero()


def test_koszul_duality_over_ambient():
    S = PolyRing(["x", "y"])
    amb = RingPresentation(S, ())
    k = amb.residue_field()
    assert ext(k, amb.as_module(), 0).is_zero()
    assert ext(k, amb.as_module(), 1).is_zero()
    E2 = ext(k, amb.as_module(), 2)
    assert length(E2) == 1 and E2.shifts == (-2,)


def test_ext_respects_direct_sums(type2_ring):
    k = type2_ring.residue_field()
    R = type2_ring.as_module()
    two = direct_sum(R, R)
    for i in range(3):
        a = length(ext(k, R, i))
        b = length(ext(k, two, i))
        assert b == 2 * a


def test_quotient_by_sequence(node_ring):
    x, y = node_ring.poly_ring.gens()
    cut = quotient_by_sequence(node_ring.as_module(), [x + y])
    assert length(cut) == 2


def test_grade_vanishing_window(node_ring):
    """Ext^i(M, R) vanishes below the grade of M (here 1 for R/(x))."""
    x, y = node_ring.poly_ring.gens()
    F = node_ring.poly_ring.free_module((0,))
    A = GradedModule(node_ring, (0,), [F.from_polys([x])])
    assert not ext(A, node_ring.as_module(), 0).is_zero()
    assert ext(A, node_ring.as_module(), 1).is_zero()
    assert ext(A, node_ring.as_module(), 2).is_zero()


def test_module_and_reduction_count_over_the_corpus(monkeypatch):
    """A work guard: GradedModule constructions and RingPresentation.nf_vec
    calls over the ten corpus sessions.

    Each construction reduces every relation mod I.  Building Ext and
    resolutions from plain presentations, a GradedModule made only for
    the module each returns or caches, brought these from 275 to 173 and
    from 535 to 323: Hom(F, C) is a free cover with relations copied from
    C, the syzygies on Ext's kernel and the lift of a module over S go
    straight to minimalize_presentation, and L2.2 reads the shifts of
    Ext^r(M/xM, C), already minimal, as they are.  A higher count means
    a throwaway module came back; a lower one should come with a reason,
    and a new pin.
    """
    count = {"modules": 0, "nf_vec": 0}
    init, nf_vec = GradedModule.__init__, RingPresentation.nf_vec

    def counted_init(self, *args, **kwargs):
        count["modules"] += 1
        init(self, *args, **kwargs)

    def counted_nf_vec(self, v):
        count["nf_vec"] += 1
        return nf_vec(self, v)

    monkeypatch.setattr(GradedModule, "__init__", counted_init)
    monkeypatch.setattr(RingPresentation, "nf_vec", counted_nf_vec)
    root = resources.files("injcrit") / "corpus"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            run_session(parse_session(entry.read_text()))
    assert count == {"modules": 173, "nf_vec": 323}
