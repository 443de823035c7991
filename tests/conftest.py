"""Shared fixtures and helpers: the shipped corpus sessions, common rings,
the entries of a vector, a vector times a term, the image of a vector
under a map given by its columns, normal forms
against a given basis, direct sums of modules, Hom built from a raw
presentation, type read off Ext over the ring, random presentations,
and the stress sessions."""

from pathlib import Path

import pytest
from hypothesis import strategies as st
from importlib import resources

from injcrit.groebner import GBuilder
from injcrit.invariants import depth, dimension, is_cohen_macaulay, length
from injcrit.poly import PolyRing, Vec
from injcrit.modules import (GradedModule, RingPresentation, ext,
                             hom_cover_into, induced_hom_map,
                             kernel_of_cokernel_map, minimalize_presentation,
                             syzygies_over)
from injcrit.session import parse_session

# (name, path) of the stress sessions, whose golden bytes tests/golden holds
STRESS = sorted((path.stem, path) for path in
                (Path(__file__).resolve().parent / "sessions").glob("*.json"))


def load_corpus():
    out = {}
    root = resources.files("injcrit") / "corpus"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = parse_session(entry.read_text())
    return out


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


def named_modules(session):
    """All addressable modules of a session: builtins plus declared."""
    names = ["R", "k"] + sorted(session.modules)
    return [(n, session.resolve(n)) for n in names]


@pytest.fixture(scope="session")
def node_ring():
    S = PolyRing(["x", "y"])
    x, y = S.gens()
    return RingPresentation(S, [x * y])


@pytest.fixture(scope="session")
def type2_ring():
    S = PolyRing(["x", "y"])
    x, y = S.gens()
    return RingPresentation(S, [x * x, x * y, y * y])


@pytest.fixture(scope="session")
def dual_numbers():
    S = PolyRing(["x"])
    x, = S.gens()
    return RingPresentation(S, [x * x])


def entries(v: Vec) -> list:
    """The polynomial entries of v, one per position of its module."""
    return [v.component(j) for j in range(v.module.rank)]


def term_times(v: Vec, m, c: int = 1) -> Vec:
    """c * m * v for a monomial m."""
    return v.poly_mul(v.module.ring.poly({m: c}))


def apply_columns(columns, v: Vec) -> Vec:
    """Image of v under the map whose j-th generator goes to columns[j]."""
    if not columns:
        raise ValueError("empty column list has no target")
    out = columns[0].module.zero()
    for (pos, m), c in v.terms.items():
        out = out + term_times(columns[pos], m, c)
    return out


def normal_form(v: Vec, basis) -> Vec:
    """Fully reduced remainder of v against an (assumed) Groebner basis."""
    builder = GBuilder(v.module)
    for g in basis:
        builder._append(g)
    return builder.normal_form(v)


def direct_sum(A: GradedModule, B: GradedModule) -> GradedModule:
    """A + B, with B's generators numbered after A's."""
    if A.ring != B.ring:
        raise ValueError("modules over different rings")
    shifts = A.shifts + B.shifts
    cover = A.ring.poly_ring.free_module(shifts)
    rels = [Vec(cover, dict(r.terms)) for r in A.relations]
    off = A.cover.rank
    for r in B.relations:
        rels.append(Vec(cover, {(pos + off, m): c
                                for (pos, m), c in r.terms.items()}))
    return GradedModule(A.ring, shifts, rels)


def hom_module(M: GradedModule, C: GradedModule) -> GradedModule:
    """Hom(M, C) from the raw presentation of M, via a single kernel.

    Independent of the minimal-resolution route used by ext(M, C, 0):
    a hom is an assignment on the raw generators of M killing the raw
    relations.
    """
    ring = M.ring
    hom0, rels0 = hom_cover_into(M.cover, C)
    if not M.relations:
        return minimalize_presentation(ring, hom0.shifts, rels0)
    rel_cover = ring.poly_ring.free_module(
        tuple(r.degree() for r in M.relations))
    hom1, rels1 = hom_cover_into(rel_cover, C)
    delta = induced_hom_map(M.relations, M.cover.rank, hom1, C.cover.rank)
    kernel = kernel_of_cokernel_map(ring, delta, hom0, hom1, rels1)
    if not kernel:
        return ring.zero_module()
    gen_degs = tuple(v.degree() for v in kernel)
    sub_cover = ring.poly_ring.free_module(gen_degs)
    rel_cols = syzygies_over(ring, kernel, sub_cover, hom0, rels0)
    return minimalize_presentation(ring, gen_degs, rel_cols)


def mcm_over_cm(C: GradedModule) -> bool:
    """C is nonzero and maximal Cohen-Macaulay over a Cohen-Macaulay ring:
    the case in which the Bass number is read off Hom(C, omega)."""
    R = C.ring.as_module()
    if C.is_zero() or R.is_zero() or not is_cohen_macaulay(R):
        return False
    return dimension(C) == depth(C) == dimension(R)


def ext_route_type(M: GradedModule) -> int:
    """type M as it was read before the S-resolution route: the length of
    Ext^depth(k, M), built over the ring of M from a resolution of k."""
    return length(ext(M.ring.residue_field(), M, depth(M)))


def draw_xyz_ring(data):
    """k[x, y, z] or one of three quotients: a hypersurface, a
    one-dimensional ring, and an artinian complete intersection."""
    S = PolyRing(["x", "y", "z"])
    x, y, z = S.gens()
    return RingPresentation(S, data.draw(st.sampled_from(
        [[], [x * y], [x * x, y * z - x * z], [x * x, y * y, z * z]])))


def draw_presentation(data, ring, max_rank=3):
    """A random homogeneous presentation over ring: 1 to max_rank
    generators in degrees 0-2 and up to four relations, each in the degree
    of some generator or one above, so that unit entries are common."""
    n = ring.poly_ring.n
    shifts = tuple(data.draw(st.lists(st.integers(0, 2), min_size=1,
                                      max_size=max_rank)))
    F = ring.poly_ring.free_module(shifts)
    rels = []
    for _ in range(data.draw(st.integers(0, 4))):
        d = data.draw(st.sampled_from(shifts)) + data.draw(st.integers(0, 1))
        terms = {}
        for pos, a in enumerate(shifts):
            if a > d or not data.draw(st.booleans()):
                continue
            for _ in range(data.draw(st.integers(1, 2))):
                exps = [0] * n
                for v in data.draw(st.lists(st.integers(0, n - 1),
                                            min_size=d - a, max_size=d - a)):
                    exps[v] += 1
                terms[(pos, tuple(exps))] = data.draw(st.integers(1, 6))
        rels.append(Vec(F, terms))
    return GradedModule(ring, shifts, rels)
