"""Groebner bases, normal forms, and syzygies."""

from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from injcrit.groebner import (LIMIT, GBuilder, InhomogeneousInputError,
                              MembershipTester, MonomialLimitError, Packing,
                              _max_degree, buchberger, syzygies)
from injcrit.modules import (RingPresentation, _vec_sort_key,
                             minimal_generators, syzygies_over)
from injcrit.poly import (FreeModule, PolyRing, Vec, mono_div, mono_divides,
                          mono_lcm, mono_mul, term_key)
from injcrit.session import parse_session, run_session

from conftest import apply_columns, normal_form


def ring2():
    return PolyRing(["x", "y"])


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
        assert normal_form(g, gb).is_zero()
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
    once = normal_form(v, gb)
    assert normal_form(once, gb) == once
    w = F.from_polys([y ** 4])
    lhs = normal_form(v + w, gb)
    assert lhs == normal_form(v, gb) + normal_form(w, gb)


def source_of(cols):
    """The free module with one generator in the degree of each column."""
    return cols[0].module.ring.free_module(tuple(c.degree() for c in cols))


def test_koszul_syzygy():
    ring = ring2()
    x, y = ring.gens()
    F = ring.free_module((0,))
    cols = [F.from_polys([x]), F.from_polys([y])]
    syz = syzygies(cols, source_of(cols), F)
    assert len(syz) == 1
    assert all(apply_columns(cols, s).is_zero() for s in syz)


def test_syzygies_of_square_monomials():
    ring = ring2()
    x, y = ring.gens()
    F = ring.free_module((0,))
    cols = [F.from_polys([x * x]), F.from_polys([x * y]),
            F.from_polys([y * y])]
    syz = syzygies(cols, source_of(cols), F)
    assert len(syz) == 2
    for s in syz:
        assert apply_columns(cols, s).is_zero()


def test_buchberger_and_syzygies_build_one_builder_each(monkeypatch):
    """reduced_basis reduces the tails in the builder that holds them, so
    a Groebner basis run and a syzygy run each construct one GBuilder."""
    built = []
    init = GBuilder.__init__

    def counted(self, module):
        built.append(module)
        init(self, module)

    monkeypatch.setattr(GBuilder, "__init__", counted)
    ring = ring2()
    x, y = ring.gens()
    F = ring.free_module((0,))
    cols = [F.from_polys([x * x]), F.from_polys([x * y]),
            F.from_polys([y * y])]
    assert len(buchberger(cols, F)) == 3
    assert len(built) == 1
    assert len(syzygies(cols, source_of(cols), F)) == 2
    assert len(built) == 2


def test_zero_columns_get_unit_syzygies():
    """syzygies_over gives a column that vanishes, or vanishes mod I, its
    unit syzygy, in the degree of its source generator."""
    S = ring2()
    x, y = S.gens()
    F = S.free_module((0,))
    source = S.free_module((1, 3, 2))
    cols = [F.from_polys([x]), F.zero(), F.from_polys([x * x])]
    syz = syzygies_over(RingPresentation(S), cols, source, F)
    assert source.gen(1) in syz
    for s in syz:
        assert apply_columns(cols, s).is_zero()
    # over S/(xy) the column xy vanishes mod I
    source = S.free_module((2, 1))
    cols = [F.from_polys([x * y]), F.from_polys([x])]
    syz = syzygies_over(RingPresentation(S, [x * y]), cols, source, F)
    assert source.gen(0) in syz


def test_zero_column_yields_its_unit_syzygy():
    """groebner.syzygies takes a zero column as [0 | e_j], so the tag
    block holds e_j itself, in the degree of the j-th source generator."""
    ring = ring2()
    x, y = ring.gens()
    F = ring.free_module((0,))
    source = ring.free_module((1, 4))
    syz = syzygies([F.from_polys([x]), F.zero()], source, F)
    assert syz == [source.gen(1)]
    assert syz[0].degree() == 4
    # modulo the relation y, x * a_0 lies in (y) iff y divides a_0
    syz = syzygies([F.from_polys([x]), F.zero()], source, F,
                   [F.from_polys([y])])
    assert syz == [source.vec({(0, (0, 1)): 1}), source.gen(1)]
    # a column outside the degree of its source generator is refused
    with pytest.raises(InhomogeneousInputError):
        syzygies([F.from_polys([x * y]), F.zero()], source, F)


def test_inhomogeneous_generators_are_refused():
    """Every basis is seeded through MembershipTester, which refuses an
    inhomogeneous generator: complete(d) relies on homogeneity."""
    ring = ring2()
    x, y = ring.gens()
    F = ring.free_module((0,))
    gens = [F.zero(), F.from_polys([x * x - y])]
    with pytest.raises(InhomogeneousInputError):
        buchberger(gens, F)
    with pytest.raises(InhomogeneousInputError):
        MembershipTester(gens, F)


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
    for s in syzygies(cols, source_of(cols), F):
        assert apply_columns(cols, s).is_zero()


def test_pot_order_prefers_low_positions():
    m0 = (0, (0, 0))
    m1 = (1, (3, 3))
    assert term_key(m0) > term_key(m1)


def reference_reduced_basis(builder):
    """Tail reduction one element at a time, each against a fresh builder
    that holds every other element of the minimal basis, S-pairs and all.
    This is the straightforward route to the same reduced basis."""
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
    term = builder._packing.term
    minimal = []
    for i in kept:
        lead, tail = builder._packed[i]
        minimal.append(Vec(builder.module, {
            term[lead]: 1, **{term[t]: c for t, c in tail}}))
    reduced = []
    for i, g in enumerate(minimal):
        others = GBuilder(builder.module)
        for j, h in enumerate(minimal):
            if i != j:
                others.install(h)
        reduced.append(others.normal_form(g).scale(
            builder.module.ring.field.inv(reference_lead(g)[1])))
    reduced = [g for g in reduced if not g.is_zero()]
    reduced.sort(key=lambda g: (_max_degree(g),
                                term_key(reference_lead(g)[0])))
    return reduced


def draw_homogeneous(data, F, d=None):
    """A random homogeneous element of F, of degree d or of a random
    degree above every shift."""
    n = F.ring.n
    if d is None:
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
    ring = PolyRing(["x", "y", "z"])
    shifts = data.draw(st.sampled_from([(0,), (0, 0), (0, 1), (1, 0)]))
    F = ring.free_module(shifts)
    gens = [draw_homogeneous(data, F)
            for _ in range(data.draw(st.integers(1, 3)))]

    builder = MembershipTester(gens, F)
    gb = buchberger(gens, F)
    assert gb == builder.reduced_basis()

    # reduced: monic, and no term of one element divisible by another's lead
    leads = [reference_lead(g) for g in gb]
    assert all(c == 1 for _, c in leads)
    for i, ((pos, lm), _) in enumerate(leads):
        for j, g in enumerate(gb):
            if i != j:
                assert not any(q == pos and mono_divides(lm, m)
                               for q, m in g.terms)
    for g in gens:
        assert normal_form(g, gb).is_zero()

    # the same elements, in the same order, with the same term order inside
    ref = reference_reduced_basis(builder)
    assert [list(g.terms.items()) for g in gb] == \
        [list(g.terms.items()) for g in ref]


# -- the pair criteria, the truncated completion and the lead pick ----------

def reference_lead(v):
    t = max(v.terms, key=term_key)
    return t, v.terms[t]


def reference_normal_form(v, basis):
    """Division by monic elements, given as (lead, element), the largest
    term taken by term_key."""
    rem = v.module.zero()
    while not v.is_zero():
        (pos, m), c = reference_lead(v)
        for (gpos, glm), g in basis:
            if gpos == pos and mono_divides(glm, m):
                v = v - g.mono_mul(mono_div(m, glm), c)
                break
        else:
            lt = Vec(v.module, {(pos, m): c})
            rem, v = rem + lt, v - lt
    return rem


def reference_buchberger(gens, F):
    """Reduced basis by Buchberger's algorithm with no pair criterion: every
    pair at a common position is reduced, lowest degree first, and the
    basis is completed fully."""
    inv = F.ring.field.inv
    basis, pairs = [], []

    def add(h):
        lead, c = reference_lead(h)
        pairs.extend((sum(mono_lcm(lm, lead[1])), i, len(basis))
                     for i, ((pos, lm), _) in enumerate(basis)
                     if pos == lead[0])
        basis.append((lead, h.scale(inv(c))))

    for g in gens:
        h = reference_normal_form(g, basis)
        if not h.is_zero():
            add(h)
    while pairs:
        pairs.sort()
        _, i, j = pairs.pop(0)
        ((_, li), gi), ((_, lj), gj) = basis[i], basis[j]
        lcm = mono_lcm(li, lj)
        s = gi.mono_mul(mono_div(lcm, li)) - gj.mono_mul(mono_div(lcm, lj))
        h = reference_normal_form(s, basis)
        if not h.is_zero():
            add(h)
    minimal = [(lead, g) for i, (lead, g) in enumerate(basis)
               if not any(j != i and q == lead[0] and mono_divides(lm, lead[1])
                          for j, ((q, lm), _) in enumerate(basis))]
    reduced = []
    for lead, g in minimal:
        others = [e for e in minimal if e[1] is not g]
        tail = Vec(F, {t: c for t, c in g.terms.items() if t != lead})
        reduced.append((lead, Vec(F, {lead: 1}) +
                        reference_normal_form(tail, others)))
    reduced.sort(key=lambda e: (_max_degree(e[1]), term_key(e[0])))
    return [g for _, g in reduced]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_criteria_drop_no_basis_element(data):
    ring = PolyRing(["x", "y", "z"])
    shifts = data.draw(st.sampled_from(
        [(0,), (0, 0), (0, 1), (1, 0), (0, 0, 0), (0, 1, 1), (2, 0, 1)]))
    F = ring.free_module(shifts)
    gens = [draw_homogeneous(data, F)
            for _ in range(data.draw(st.integers(1, 4)))]
    gb = buchberger(gens, F)
    ref = reference_buchberger(gens, F)
    assert [g.terms for g in gb] == [g.terms for g in ref]


def draw_homogeneous_poly(data, ring, d):
    """A random form of degree d, possibly zero."""
    terms = {}
    for _ in range(data.draw(st.integers(0, 3))):
        exps = [0] * ring.n
        for v in data.draw(st.lists(st.integers(0, ring.n - 1),
                                    min_size=d, max_size=d)):
            exps[v] += 1
        terms[tuple(exps)] = data.draw(st.integers(1, 6))
    return ring.poly(terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_truncated_completion_decides_low_degrees(data):
    ring = PolyRing(["x", "y", "z"])
    shifts = data.draw(st.sampled_from([(0,), (0, 0), (0, 1), (1, 0, 2)]))
    F = ring.free_module(shifts)
    gens = [draw_homogeneous(data, F)
            for _ in range(data.draw(st.integers(1, 4)))]
    d = data.draw(st.integers(min(shifts), max(shifts) + 5))
    truncated = MembershipTester([], F)
    for g in sorted(gens, key=_max_degree):
        nf = truncated.normal_form(g)
        if not nf.is_zero():
            truncated.install(nf)
    truncated.complete(d)
    full = MembershipTester(gens, F)
    for _ in range(4):
        # an element of the submodule of degree e <= d, plus maybe noise
        e = data.draw(st.integers(min(shifts), d))
        v = F.zero()
        for g in gens:
            if g.degree() <= e:
                mult = draw_homogeneous_poly(data, ring, e - g.degree())
                v = v + g.poly_mul(mult)
        if data.draw(st.booleans()) and e > max(shifts):
            v = v + draw_homogeneous(data, F, e)
        assert truncated.contains(v) == full.contains(v)
        assert truncated.normal_form(v) == full.normal_form(v)


def full_completion_sieve(ring, vecs, module):
    """minimal_generators with a tester completed afresh, in full, for
    every candidate."""
    kept = []
    for v in sorted((ring.nf_vec(v) for v in vecs), key=_vec_sort_key):
        tester = MembershipTester(ring.ideal_columns(module) + kept, module)
        if not tester.contains(v):
            kept.append(v)
    return kept


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minimal_generators_match_a_fully_completed_sieve(data):
    S = PolyRing(["x", "y", "z"])
    x, y, z = S.gens()
    ideal = data.draw(st.sampled_from(
        [[], [x * y], [x * x, y * z], [x * y - z * z, x ** 3]]))
    ring = RingPresentation(S, ideal)
    F = S.free_module(data.draw(st.sampled_from([(0,), (0, 1), (1, 0, 0)])))
    vecs = [draw_homogeneous(data, F)
            for _ in range(data.draw(st.integers(1, 6)))]
    vecs += [v.poly_mul(x) for v in vecs[:data.draw(st.integers(0, 2))]]
    assert minimal_generators(ring, vecs, F) == \
        full_completion_sieve(ring, vecs, F)


def per_component_nf_vec(ring, v):
    """Reduction mod I of every component, empty ones included, each as a
    polynomial in its own rank-1 vector."""
    if ring.is_ambient:
        return v
    mt = ring._ideal_tester()
    return v.module.from_polys([
        mt.normal_form(mt.module.from_polys([f])).component(0)
        for f in v.to_polys()])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_nf_vec_matches_per_component_reduction(data):
    S = PolyRing(["x", "y", "z"])
    x, y, z = S.gens()
    ring = RingPresentation(S, data.draw(st.sampled_from(
        [[], [x * y], [x * x, y * z], [x * y - z * z, x ** 3],
         [x * x, y * y, z * z]])))
    rank = data.draw(st.integers(1, 4))
    F = S.free_module(tuple(data.draw(st.integers(0, 1))
                            for _ in range(rank)))
    d = data.draw(st.integers(1, 4))
    entries = [draw_homogeneous_poly(data, S, d - F.shifts[j])
               if data.draw(st.booleans()) else S.zero()
               for j in range(rank)]
    v = Vec(F, dict(data.draw(st.permutations(
        list(F.from_polys(entries).terms.items())))))
    new, ref = ring.nf_vec(v), per_component_nf_vec(ring, v)
    assert new == ref
    assert list(new.terms.items()) == list(ref.terms.items())
    F1 = S.free_module((0,))
    for f in entries:
        ref = per_component_nf_vec(ring, F1.from_polys([f])).component(0)
        assert list(ring.nf_poly(f).terms.items()) == \
            list(ref.terms.items())


def filtered_full_syzygies(columns, source, target, relations):
    """Syzygies as the tag-supported elements of the full reduced basis of
    the tagged columns and the untagged relations, every element
    tail-reduced."""
    ring = target.ring
    ext = FreeModule(ring, target.shifts + source.shifts)
    r = target.rank
    gens = [Vec(ext, {**c.terms, (r + j, ring._zero_mono): 1})
            for j, c in enumerate(columns)]
    gens += [Vec(ext, dict(n.terms)) for n in relations]
    return [Vec(source, {(pos - r, m): c for (pos, m), c in g.terms.items()})
            for g in buchberger(gens, ext)
            if all(pos >= r for pos, _ in g.terms)]


def draw_map(data, F):
    """Random homogeneous columns into F, some zero, and a source free
    module with one generator in each column's degree (any degree for a
    zero column)."""
    cols = [draw_homogeneous(data, F) if data.draw(st.integers(0, 4))
            else F.zero()
            for _ in range(data.draw(st.integers(1, 4)))]
    source = F.ring.free_module(tuple(
        c.degree() if not c.is_zero() else data.draw(st.integers(0, 3))
        for c in cols))
    return cols, source


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_syzygies_match_the_filtered_full_basis(data):
    S = PolyRing(["x", "y", "z"])
    x, y, z = S.gens()
    F = S.free_module(data.draw(st.sampled_from(
        [(0,), (0, 0), (0, 1), (1, 0, 0)])))
    cols, source = draw_map(data, F)
    ideal = data.draw(st.sampled_from([[], [x * y], [x * x, y * z - x * z]]))
    relations = [draw_homogeneous(data, F)
                 for _ in range(data.draw(st.integers(0, 2)))]
    relations += RingPresentation(S, ideal).ideal_columns(F)
    syz = syzygies(cols, source, F, relations)
    ref = filtered_full_syzygies(cols, source, F, relations)
    assert [list(s.terms.items()) for s in syz] == \
        [list(s.terms.items()) for s in ref]


def all_tagged_syzygies_over(ring, columns, target, column_degrees):
    """syzygies_over as it was before the relations entered untagged: every
    column of the block, relations and ideal columns included, gets a tag,
    a column vanishing mod I gets its unit syzygy in column_degrees, and
    the syzygies are projected onto the block's coordinates."""
    cols = [ring.nf_vec(c) for c in columns]
    keep = [j for j, c in enumerate(cols) if not c.is_zero()]
    coldegs = [c.degree() if not c.is_zero() else column_degrees[j]
               for j, c in enumerate(cols)]
    tags = FreeModule(ring.poly_ring, tuple(coldegs))
    out = [tags.gen(j) for j, c in enumerate(cols) if c.is_zero()]
    block = [cols[j] for j in keep] + ring.ideal_columns(target)
    if keep:
        S = ring.poly_ring
        r = target.rank
        ext = FreeModule(S, target.shifts + tuple(c.degree() for c in block))
        tagged = [Vec(ext, {**c.terms, (r + j, S._zero_mono): 1})
                  for j, c in enumerate(block)]
        for g in MembershipTester(tagged, ext).reduced_basis(from_pos=r):
            v = ring.nf_vec(Vec(tags, {(keep[pos - r], m): c
                                       for (pos, m), c in g.terms.items()
                                       if pos - r < len(keep)}))
            if not v.is_zero():
                out.append(v)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_untagged_relations_give_the_all_tagged_preimage(data):
    """The preimage {a : phi(a) in <relations> + I * target} is the same
    submodule of source, up to I * source, whether the relations and the
    ideal columns enter untagged or tagged and are projected away."""
    S = PolyRing(["x", "y", "z"])
    x, y, z = S.gens()
    ring = RingPresentation(S, data.draw(st.sampled_from(
        [[], [x * y], [x * x, y * z - x * z], [x * x, y * y, z * z]])))
    F = S.free_module(data.draw(st.sampled_from(
        [(0,), (0, 0), (0, 1), (1, 0, 0)])))
    cols, source = draw_map(data, F)
    relations = [draw_homogeneous(data, F)
                 for _ in range(data.draw(st.integers(0, 3)))]
    new = syzygies_over(ring, cols, source, F, relations)
    old_block = all_tagged_syzygies_over(
        ring, cols + relations, F,
        source.shifts + tuple(n.degree() for n in relations))
    old = [Vec(source, {(pos, m): c for (pos, m), c in s.terms.items()
                        if pos < len(cols)}) for s in old_block]
    ideal = ring.ideal_columns(source)
    for gens, others in ((new, old), (old, new)):
        tester = MembershipTester(gens + ideal, source)
        assert all(tester.contains(v) for v in others)


def test_spair_count_over_the_corpus(monkeypatch):
    """A work guard: the S-pairs reduced over the ten corpus sessions.

    The chain criterion and the degree-truncated generator sieve brought
    this from 1070 to 534.  Seeding the generator sieve from ideal_gb * e_j,
    already a Groebner basis of I*F, instead of completing I*F again from
    the raw ideal columns brought it to 422; reading ideal_gb off the
    ring's cached ideal tester, so the ideal is completed once per ring,
    brought it to 417.  Letting relations and ideal columns enter the
    syzygy run untagged brought it to 321: pairs among them no longer
    yield syzygies among the relations that were then discarded.  Reading
    Hilbert series off each module's relation tester instead of a second
    Groebner basis of the same generators, and the ring's ideal basis off
    the tester of R as a module instead of a second ideal tester, brought
    it to 295.  Reading type off the resolution over S that depth already
    builds, instead of building Ext^depth(k, M) over the quotient, brought
    it to 209.  Deciding regularity from the Hilbert series of M/xM, the
    quotient the sop search and L2.2 go on to use, instead of a kernel
    run on a shifted copy of M, brought it to 189.  Reading the Bass
    number of a maximal Cohen-Macaulay C over a Cohen-Macaulay ring off
    the relations of Hom(C, omega), instead of resolving k over R to
    dim R + 2 maps, brought it to 178.  A higher count means a
    criterion stopped firing; a lower one should come with a reason, and a
    new pin.
    """
    count = [0]
    spair = GBuilder._spair

    def counted(self, *args):
        count[0] += 1
        return spair(self, *args)

    monkeypatch.setattr(GBuilder, "_spair", counted)
    root = resources.files("injcrit") / "corpus"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            run_session(parse_session(entry.read_text()))
    assert count[0] == 178


def test_complete_reduces_each_spair_once(monkeypatch):
    """bench/tracer.py counts S-pairs as the normal_form spans under
    complete.  That count is only right while complete hands every
    S-vector that _spair builds to normal_form once, and reduces nothing
    else; this pins it over the corpus."""
    built, reduced, inside = [], [], [0]
    spair, normal_form, complete = (GBuilder._spair, GBuilder.normal_form,
                                    GBuilder.complete)

    def counted_spair(self, *args):
        built.append(spair(self, *args))
        return built[-1]

    def counted_normal_form(self, v):
        if inside[0]:
            reduced.append(v)
        return normal_form(self, v)

    def counted_complete(self, degree=None):
        inside[0] += 1
        try:
            return complete(self, degree)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(GBuilder, "_spair", counted_spair)
    monkeypatch.setattr(GBuilder, "normal_form", counted_normal_form)
    monkeypatch.setattr(GBuilder, "complete", counted_complete)
    root = resources.files("injcrit") / "corpus"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            run_session(parse_session(entry.read_text()))
    assert built
    assert len(reduced) == len(built)
    assert all(v is s for v, s in zip(reduced, built))


# -- packed terms ------------------------------------------------------------

def draw_term(data, n, rank, pos=None):
    """A term over n variables, of degree at most LIMIT; its exponents
    are kept small or run up to the limit, so both degree ties and full
    fields come up."""
    if pos is None:
        pos = data.draw(st.integers(0, rank - 1))
    left = data.draw(st.sampled_from([3, 40, LIMIT]))
    exps = []
    for _ in range(n):
        exps.append(data.draw(st.integers(0, left)))
        left -= exps[-1]
    return pos, tuple(data.draw(st.permutations(exps)))


def draw_packing(data):
    n = data.draw(st.integers(1, 4))
    return Packing(n), n, data.draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packing_round_trips(data):
    pk, n, rank = draw_packing(data)
    t = draw_term(data, n, rank)
    # a fresh packing decodes, rather than reading back what it stored
    assert Packing(n).term[pk.code[t]] == t


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_order_is_the_term_order(data):
    pk, n, rank = draw_packing(data)
    a, b = draw_term(data, n, rank), draw_term(data, n, rank)
    assert (pk.code[a] < pk.code[b]) == (term_key(a) < term_key(b))
    assert (pk.code[a] == pk.code[b]) == (a == b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_guard_test_is_divisibility(data):
    pk, n, rank = draw_packing(data)
    a = draw_term(data, n, rank)
    b = draw_term(data, n, rank, pos=a[0])
    if data.draw(st.booleans()) and sum(b[1]) + sum(a[1]) <= LIMIT:
        b = (a[0], mono_mul(a[1], b[1]))   # a divisible pair
    assert pk.divides(pk.code[a], pk.code[b]) == mono_divides(a[1], b[1])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shifted_code_is_the_product_code(data):
    """Multiplying by q is adding code(lead * q) - code(lead); past the
    limit the sum shows a guard bit and will not decode."""
    pk, n, rank = draw_packing(data)
    lead, g = draw_term(data, n, rank), draw_term(data, n, rank)
    q = draw_term(data, n, 1)[1]
    if sum(lead[1]) + sum(q) > LIMIT:
        return
    shifted = (pk.code[g] + pk.code[(lead[0], mono_mul(lead[1], q))]
               - pk.code[lead])
    product = (g[0], mono_mul(g[1], q))
    if sum(product[1]) <= LIMIT:
        assert shifted == pk.code[product]
    else:
        assert shifted & pk.guards
        with pytest.raises(MonomialLimitError):
            pk.term[shifted]


def test_packing_refuses_a_degree_past_the_limit():
    pk = Packing(2)
    assert pk.term[pk.code[(0, (LIMIT, 0))]] == (0, (LIMIT, 0))
    with pytest.raises(MonomialLimitError):
        pk.code[(0, (LIMIT, 1))]
    F = PolyRing(["x"]).free_module((0,))
    with pytest.raises(MonomialLimitError):
        MembershipTester([F.vec({(0, (LIMIT + 1,)): 1})], F)


def test_reduction_past_the_limit_raises():
    """Under pot a tail can sit at a higher monomial degree than its lead:
    reducing x^LIMIT e_0 by e_0 + y^10 e_1 (shifts 0 and -10) puts a term
    of degree LIMIT + 10 into the work, which must raise, not wrap."""
    ring = ring2()
    F = ring.free_module((0, -10))
    tester = MembershipTester([F.vec({(0, (0, 0)): 1, (1, (0, 10)): 1})], F)
    with pytest.raises(MonomialLimitError):
        tester.normal_form(F.vec({(0, (LIMIT, 0)): 1}))
    below = tester.normal_form(F.vec({(0, (LIMIT - 10, 0)): 1}))
    assert below == F.vec({(1, (LIMIT - 10, 10)): ring.p - 1})
