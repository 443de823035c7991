"""Groebner bases, normal forms, and syzygies."""

from hypothesis import given, settings, strategies as st

from injcrit.groebner import (GBuilder, MembershipTester, _max_degree,
                              buchberger, normal_form, syzygies)
from injcrit.poly import (GREVLEX, LEX, ModuleOrder, PolyRing, Vec,
                          mono_divides)


def ring2(order=None):
    return PolyRing(["x", "y"], order=order) if order else PolyRing(["x", "y"])


def test_lex_basis_contains_eliminant():
    ring = ring2(LEX)
    x, y = ring.gens()
    F = ring.free_module((0,))
    gb = buchberger([F.from_polys([x * x - y]), F.from_polys([x * y])], F)
    polys = [g.component(0) for g in gb]
    assert y ** 2 in polys
    assert normal_form(F.from_polys([x * x * y]), gb, F).is_zero()


def test_monomial_ideal_is_its_own_basis():
    ring = ring2()
    x, y = ring.gens()
    F = ring.free_module((0,))
    gens = [F.from_polys([x ** 2]), F.from_polys([y ** 3])]
    gb = buchberger(gens, F)
    assert sorted(str(g.component(0)) for g in gb) == ["x^2", "y^3"]


def test_two_way_membership():
    ring = ring2()
    x, y = ring.gens()
    F = ring.free_module((0,))
    gens = [F.from_polys([x * x - y * y]), F.from_polys([x * y + y * y])]
    gb = buchberger(gens, F)
    # every generator reduces to zero against the basis
    for g in gens:
        assert normal_form(g, gb, F).is_zero()
    # every basis element lies in the ideal of the generators
    mt = MembershipTester(gens, F)
    for g in gb:
        assert mt.contains(g)


def test_normal_form_idempotent_and_linear():
    ring = ring2()
    x, y = ring.gens()
    F = ring.free_module((0,))
    gb = buchberger([F.from_polys([x * x]), F.from_polys([x * y + y * y])], F)
    v = F.from_polys([x ** 3 + x * y ** 2 + y ** 3])
    once = normal_form(v, gb, F)
    assert normal_form(once, gb, F) == once
    w = F.from_polys([y ** 4])
    lhs = normal_form(v + w, gb, F)
    assert lhs == normal_form(v, gb, F) + normal_form(w, gb, F)


def apply_syzygy(columns, s):
    target = columns[0].module
    out = target.zero()
    for (pos, m), c in s.terms.items():
        out = out + columns[pos].mono_mul(m, c)
    return out


def test_koszul_syzygy():
    ring = ring2()
    x, y = ring.gens()
    F = ring.free_module((0,))
    cols = [F.from_polys([x]), F.from_polys([y])]
    syz = syzygies(cols, F)
    assert len(syz) == 1
    assert all(apply_syzygy(cols, s).is_zero() for s in syz)


def test_syzygies_of_square_monomials():
    ring = ring2()
    x, y = ring.gens()
    F = ring.free_module((0,))
    cols = [F.from_polys([x * x]), F.from_polys([x * y]),
            F.from_polys([y * y])]
    syz = syzygies(cols, F)
    assert len(syz) == 2
    for s in syz:
        assert apply_syzygy(cols, s).is_zero()


def test_zero_columns_get_unit_syzygies():
    ring = ring2()
    x, _ = ring.gens()
    F = ring.free_module((0,))
    cols = [F.from_polys([x]), F.zero(), F.from_polys([x * x])]
    syz = syzygies(cols, F)
    assert any(set(pos for (pos, _m) in s.terms) == {1} for s in syz)
    for s in syz:
        assert apply_syzygy(cols, s).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_syzygy_soundness_random(data):
    ring = ring2()
    F = ring.free_module((0, 0))
    cols = []
    for _ in range(data.draw(st.integers(2, 3))):
        d = data.draw(st.integers(1, 2))
        terms = {}
        for pos in range(2):
            for e in range(d + 1):
                c = data.draw(st.integers(0, 4))
                if c:
                    terms[(pos, (e, d - e))] = c
        v = Vec(F, terms)
        if not v.is_zero():
            cols.append(v)
    if len(cols) < 2:
        return
    for s in syzygies(cols, F):
        assert apply_syzygy(cols, s).is_zero()


def test_pot_order_prefers_low_positions():
    ring = ring2()
    morder = ModuleOrder(ring.order, "pot")
    m0 = (0, (0, 0))
    m1 = (1, (3, 3))
    assert morder.key(m0) > morder.key(m1)


def reference_reduced_basis(builder):
    """Tail reduction one element at a time, each against a fresh builder
    that holds every other element of the minimal basis, S-pairs and all.
    This is the straightforward route to the same reduced basis."""
    key = builder.morder.key
    kept = []
    for i, (pos, lm) in enumerate(builder._lead):
        redundant = False
        for j, (pos2, lm2) in enumerate(builder._lead):
            if i == j or pos != pos2:
                continue
            if mono_divides(lm2, lm) and (lm2 != lm or j < i):
                redundant = True
                break
        if not redundant:
            kept.append(i)
    minimal = [builder.basis[i] for i in kept]
    reduced = []
    for i, g in enumerate(minimal):
        others = GBuilder(builder.module, builder.morder)
        for j, h in enumerate(minimal):
            if i != j:
                others._install(h)
        reduced.append(others.normal_form(g).scale(
            builder.module.ring.field.inv(g.lead(builder.morder)[1])))
    reduced = [g for g in reduced if not g.is_zero()]
    reduced.sort(key=lambda g: (_max_degree(g),
                                key(g.lead(builder.morder)[0])))
    return reduced


def draw_homogeneous(data, F):
    """A random homogeneous element of F of degree above every shift."""
    n = F.ring.n
    d = max(F.shifts) + data.draw(st.integers(1, 3))
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, F.rank - 1))
        exps = [0] * n
        for v in data.draw(st.lists(st.integers(0, n - 1),
                                    min_size=d - F.shifts[pos],
                                    max_size=d - F.shifts[pos])):
            exps[v] += 1
        terms[(pos, tuple(exps))] = data.draw(st.integers(1, 6))
    return F.vec(terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduced_basis_matches_per_element_reference(data):
    ring_order, kind = data.draw(st.sampled_from(
        [(GREVLEX, "pot"), (LEX, "pot"), (GREVLEX, "schreyer")]))
    ring = PolyRing(["x", "y", "z"], order=ring_order)
    shifts = data.draw(st.sampled_from([(0,), (0, 0), (0, 1), (1, 0)]))
    F = ring.free_module(shifts)
    morder = ModuleOrder(ring_order, kind)
    gens = [draw_homogeneous(data, F)
            for _ in range(data.draw(st.integers(1, 3)))]

    builder = GBuilder(F, morder)
    for g in sorted((g for g in gens if not g.is_zero()), key=_max_degree):
        nf = builder.normal_form(g)
        if not nf.is_zero():
            builder._install(nf)
    builder.complete()
    gb = buchberger(gens, F, morder)
    assert gb == builder.reduced_basis()

    # reduced: monic, and no term of one element divisible by another's lead
    leads = [g.lead(morder) for g in gb]
    assert all(c == 1 for _, c in leads)
    for i, ((pos, lm), _) in enumerate(leads):
        for j, g in enumerate(gb):
            if i != j:
                assert not any(q == pos and mono_divides(lm, m)
                               for q, m in g.terms)
    for g in gens:
        assert normal_form(g, gb, F, morder).is_zero()

    # the same elements, in the same order, with the same term order inside
    ref = reference_reduced_basis(builder)
    assert [list(g.terms.items()) for g in gb] == \
        [list(g.terms.items()) for g in ref]
