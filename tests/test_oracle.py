"""The dense linear-algebra oracle against the symbolic engine."""

import ast
import gc
import os
import random
import subprocess
import sys
import weakref
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from injcrit import oracle
from injcrit.field import ORACLE_PRIME_LIMIT
from injcrit.invariants import hilbert_series, length, socle_dimension
from injcrit.linalg import complement, matmul, nullspace, rref
from injcrit.modules import GradedModule, RingPresentation, ext, resolution
from injcrit.oracle import (DualTable, FreeTable, ModuleTable,
                            OracleResolution, TruncationError, matlis_dual,
                            oracle_ext_dims, oracle_hilbert, oracle_length,
                            oracle_socle_dimension, ring_table)
from injcrit.poly import GREVLEX, PolyRing, mono_mul, monomials_of_degree

from conftest import named_modules
from test_acceptance import random_artinian_instance


def test_ring_tables_match_hilbert(corpus):
    for session in corpus.values():
        rt = ring_table(session.ring)
        hf = hilbert_series(session.ring.as_module()).coefficients(8)
        for d in range(9):
            assert rt.dim(d) == hf.get(d, 0)


def test_module_hilbert_agreement(corpus):
    for session in corpus.values():
        for _name, M in named_modules(session):
            if length(M) is not None:
                assert oracle_hilbert(M, bound=12) == \
                    hilbert_series(M).coefficients(12)
            else:
                # degreewise comparison without a vanishing certificate
                mt = ModuleTable(M)
                rhs = hilbert_series(M).coefficients(8)
                for d in range(min(M.shifts, default=0), 9):
                    assert mt.dims(d) == rhs.get(d, 0)


def test_length_and_socle_agreement(corpus):
    for session in corpus.values():
        for _name, M in named_modules(session):
            if length(M) is None:
                with pytest.raises(TruncationError):
                    oracle_length(M, bound=8)
                continue
            assert oracle_length(M, bound=12) == length(M)
            assert oracle_socle_dimension(M, bound=12) == socle_dimension(M)


def test_betti_numbers_agreement(type2_ring, dual_numbers):
    for ring, steps in ((type2_ring, 3), (dual_numbers, 4)):
        k = ring.residue_field()
        engine = [c.rank for c in resolution(k, "R", steps=steps).covers]
        orc = OracleResolution(ModuleTable(k), steps=steps + 1, bound=12)
        oracle = [len(images) for images in orc.images]
        assert oracle[:steps + 1] == engine[:steps + 1]


def test_ext_dimensions_agreement(corpus):
    session = corpus["type2_artinian"]
    k = session.resolve("k")
    R = session.resolve("R")
    E = session.resolve("E")
    for M, C in ((k, R), (k, E), (R, E)):
        dims = oracle_ext_dims(M, C, i_max=2, bound=12)
        for i in range(3):
            hf = hilbert_series(ext(M, C, i)).coefficients(12)
            assert sum(hf.values()) == sum(dims[i].values())
            assert hf == dims[i]


def test_matlis_dual_numerics(type2_ring, dual_numbers):
    for ring in (type2_ring, dual_numbers):
        M = ring.as_module()
        D = matlis_dual(M, bound=12)
        assert length(D) == length(M)
        # socle of the dual counts minimal generators of the original
        assert socle_dimension(D) == M.minimal_model().cover.rank
        # and generators of the dual count the socle of the original
        assert D.minimal_model().cover.rank == socle_dimension(M)


def test_matlis_biduality(type2_ring):
    M = type2_ring.as_module()
    D = matlis_dual(M, bound=12)
    DD = matlis_dual(D, bound=12)
    assert hilbert_series(DD).coefficients(12) == \
        hilbert_series(M).coefficients(12)


def test_dual_of_type2_is_injective(type2_ring):
    E = matlis_dual(type2_ring.as_module(), bound=12)
    k = type2_ring.residue_field()
    assert not ext(k, E, 0).is_zero()
    assert ext(k, E, 1).is_zero()
    assert ext(k, E, 2).is_zero()


def test_matlis_dual_of_a_module_below_the_degree_bound():
    """Only the resolution refuses generators above the bound; the dual
    of a module generated in degree -30 is presented at bound 24."""
    S = PolyRing(["x", "y"])
    x, y = S.gens()
    ring = RingPresentation(S, [x * x, y * y])
    F = S.free_module((-30,))
    D = matlis_dual(GradedModule(ring, (-30,), [F.from_polys([x])]),
                    bound=24)
    assert D.shifts == (29,)
    assert oracle_hilbert(D, bound=40) == {29: 1, 30: 1}
    assert hilbert_series(D).coefficients(40) == {29: 1, 30: 1}


def test_truncation_error_on_positive_dimension(node_ring):
    M = node_ring.as_module()
    with pytest.raises(TruncationError):
        oracle_length(M, bound=6)
    with pytest.raises(TruncationError):
        matlis_dual(M, bound=6)


def test_vanishing_scan_reads_no_ring_piece_above_the_bound():
    """The piece of degree d of a module generated in degree -300 is the
    ring piece of degree d + 300, so the scan stops at degree bound - 300
    and builds only the ring pieces of degree <= bound."""
    ring = RingPresentation(PolyRing(["x", "y"]))
    mt = ModuleTable(GradedModule(ring, (-300,)))
    with pytest.raises(TruncationError):
        mt.certified_top(10)
    assert len(ring_table(ring)._basis) <= 11


def _piece_by_multiples(ring, d):
    """(monomials, basis, proj) of R_d as RingTable built it before it
    built each piece from the piece below: the complement of the
    coefficient rows of every monomial multiple of the generators in
    S_d, whose monomials, largest first, index the rows of proj."""
    n, p = ring.poly_ring.n, ring.poly_ring.p
    monos = sorted(monomials_of_degree(n, d), key=GREVLEX.key, reverse=True)
    index = {m: c for c, m in enumerate(monos)}
    rows = []
    for g in ring.ideal_gens:
        e = g.degree()
        if e > d:
            continue
        for u in monomials_of_degree(n, d - e):
            row = np.zeros(len(monos), dtype=np.int64)
            for m, c in g.terms.items():
                row[index[mono_mul(u, m)]] = c
            rows.append(row)
    free, proj = complement(
        np.array(rows, dtype=np.int64).reshape(len(rows), len(monos)), p)
    return monos, [monos[c] for c in free], proj


def _random_form(rng, S, e):
    """A form of degree e with one to three random terms."""
    monos = list(monomials_of_degree(S.n, e))
    picked = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
    return S.poly({m: rng.randrange(1, S.p) for m in picked})


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from([2, 3, 32003, 2 ** 31 - 1]),
       st.sampled_from(("random", "constant", "linear", "ci")))
def test_ring_pieces_match_the_multiples_construction(rng, p, kind):
    """Random homogeneous rings, most of them not artinian, with a
    constant or a linear generator added, and complete intersections of
    powers of linear forms in 3-5 variables, up to two degrees above the
    top one: every basis, the coordinates of every monomial and every
    variable action."""
    if kind == "ci":
        n = rng.randint(3, 5)
        powers = [rng.choice((1, 2, 2, 3) if n < 5 else (1, 2, 2))
                  for _ in range(n)]
        S = PolyRing([f"x{i}" for i in range(n)], p=p)
        gens = [S.linear_form([rng.randrange(p) for _ in range(n)]) ** e
                for e in powers]
        top = sum(powers) - n + 2
    else:
        n = rng.randint(1, 4)
        S = PolyRing([f"x{i}" for i in range(n)], p=p)
        gens = [_random_form(rng, S, rng.choice((1, 2, 2, 3, 3)))
                for _ in range(rng.randint(0, 4))]
        if kind != "random":
            gens.insert(rng.randint(0, len(gens)),
                        _random_form(rng, S, 1 if kind == "linear" else 0))
        top = 6
    ring = RingPresentation(S, gens)
    rt = ring_table(ring)
    below = []
    for d in range(top + 1):
        monos, basis, proj = _piece_by_multiples(ring, d)
        assert rt.basis(d) == basis
        row = {m: r for r, m in enumerate(monos)}
        for i in range(n):
            unit = tuple(int(j == i) for j in range(n))
            want = oracle._columns(
                [proj[row[mono_mul(b, unit)]] for b in below], len(basis))
            assert np.array_equal(rt.act(i, d - 1), want)
        for m, coords in zip(monos, proj):
            assert np.array_equal(rt.mono_coords(m), coords)
        below = basis


CI5 = ((2, 2, 2, 2, 2), [[1, 2, 3, 4, 5], [0, 1, 6, 7, 8], [9, 0, 1, 2, 3],
                         [4, 5, 0, 1, 6], [7, 8, 9, 0, 1]])


def test_ring_pieces_row_reduce_no_more_than_the_piece_below():
    """A work guard on the 5-variable complete intersection of squares,
    built two degrees above its top degree 5.  R_d is a quotient of
    V (x) R_{d-1}, so no row reduction is wider than 5 max dim R_{d-1}
    = 50 columns (all of S_7 would be 330), and the piece above the
    zero piece R_6 comes out empty without a row reduction."""
    ring = _ci_ring(*CI5)
    rt = ring_table(ring)
    reduced = []
    real = oracle.complement

    def spy(A, p):
        reduced.append((len(rt._basis), A.shape[1]))
        return real(A, p)

    with mock.patch.object(oracle, "complement", spy):
        top = rt.top_degree(12)
        rt.dim(top + 2)
    dims = [rt.dim(d) for d in range(top + 3)]
    assert dims == [1, 5, 10, 10, 5, 1, 0, 0]
    assert [d for d, _ in reduced] == list(range(top + 2))
    assert max(width for _, width in reduced) <= 5 * max(dims) == 50


def test_linalg_exact_below_and_refuses_above_the_prime_limit():
    p = 2 ** 31 - 1
    rng = random.Random(7)
    A = np.array([[rng.randrange(p) for _ in range(6)] for _ in range(4)],
                 dtype=np.int64)
    K = nullspace(A, p)
    assert K.shape == (6, 2)
    rows, cols = A.tolist(), K.tolist()
    for r in rows:
        for k in range(K.shape[1]):
            assert sum(a * c[k] for a, c in zip(r, cols)) % p == 0
    big = 4294967311
    assert big > ORACLE_PRIME_LIMIT
    with pytest.raises(OverflowError):
        rref(A, big)
    with pytest.raises(OverflowError):
        nullspace(A, big)
    with pytest.raises(OverflowError):
        matmul(A, K, big)


def test_prime_limit_holds_under_python_optimize():
    """python -O strips asserts; the limit must still refuse the prime
    whose products wrap int64 and make a rank-1 matrix look invertible."""
    code = ("import numpy as np\n"
            "from injcrit.linalg import rref\n"
            "p = 1099511627791\n"
            "x, y, k = 123456789012, 987654321098, 1000003\n"
            "A = np.array([[x, y], [k * x % p, k * y % p]], dtype=np.int64)\n"
            "try:\n"
            "    print(rref(A, p)[1])\n"
            "except OverflowError as e:\n"
            "    print('OverflowError', e)\n")
    src = str(Path(oracle.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == ("OverflowError modulus 1099511627791 overflows int64 "
                   "products\n")


def test_matmul_is_exact_at_the_largest_oracle_prime():
    """Sums of (p - 1)^2-sized products wrap int64 unless split."""
    p = 2 ** 31 - 1
    rng = random.Random(11)
    for inner in (1, 2, 3, 17, 40):
        for fill in (lambda: p - 1, lambda: rng.randrange(p)):
            A = [[fill() for _ in range(inner)] for _ in range(3)]
            B = [[fill() for _ in range(4)] for _ in range(inner)]
            want = [[sum(a * B[j][c] for j, a in enumerate(row)) % p
                     for c in range(4)] for row in A]
            got = matmul(np.array(A, dtype=np.int64),
                         np.array(B, dtype=np.int64), p)
            assert got.tolist() == want


def test_ext_over_a_gorenstein_ring_at_the_largest_oracle_prime():
    """Ext^i(k, R) of an artinian complete intersection is k in degree
    0 only; products of residues near 2^31 must not wrap."""
    S = PolyRing(["x", "y", "z"], p=2 ** 31 - 1)
    forms = [[1614084956, 772882623, 372430589],
             [2040321814, 2057143012, 359904749],
             [21514542, 1047782641, 839010829]]
    ring = RingPresentation(S, [S.linear_form(row) ** 3 for row in forms])
    dims = oracle_ext_dims(ring.residue_field(), ring.as_module(), 2)
    assert [sum(e.values()) for e in dims] == [1, 0, 0]


def _nullspace_by_loops(A, p):
    """The column-at-a-time construction nullspace replaced."""
    n = A.shape[1]
    R, pivots = rref(A, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(R[i, fc])) % p
    return basis


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 32003]))
def test_nullspace_matches_the_loop_construction(rng, p):
    m, n = rng.randrange(0, 5), rng.randrange(1, 7)
    A = np.array([rng.choice((0, rng.randrange(p))) for _ in range(m * n)],
                 dtype=np.int64).reshape(m, n)
    assert np.array_equal(nullspace(A, p), _nullspace_by_loops(A, p))


def _projection_by_entries(A, p):
    """The per-entry projection RingTable built before complement."""
    n = A.shape[1]
    R, pivots = rref(A, p)
    free = [c for c in range(n) if c not in set(pivots)]
    proj = np.zeros((n, len(free)), dtype=np.int64)
    for k, c in enumerate(free):
        proj[c, k] = 1
    for i, c in enumerate(pivots):
        proj[c] = (-R[i, [f for f in free]]) % p if free else 0
    return free, proj


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from([2, 3, 5, 32003, 2 ** 31 - 1]))
def test_complement_is_the_projection_onto_the_quotient(rng, p):
    """Zero rows and zero columns included."""
    m, n = rng.randrange(0, 5), rng.randrange(0, 7)
    A = np.array([rng.choice((0, rng.randrange(p))) for _ in range(m * n)],
                 dtype=np.int64).reshape(m, n)
    if m > 1 and rng.random() < 0.3:
        A[-1] = A[0]
    free, Q = complement(A, p)
    assert Q.shape == (n, len(free))
    assert not (A.astype(object) @ Q.astype(object) % p).any()
    assert np.array_equal(Q[free], np.eye(len(free), dtype=np.int64))
    assert len(rref(A, p)[1]) + len(free) == n
    want_free, want_Q = _projection_by_entries(A, p)
    assert free == want_free
    assert np.array_equal(Q, want_Q)


def _piece_by_rows(mt, d):
    """(R, pivots, free) of a module piece, as ModuleTable kept it
    before complement: the rref of the relation multiples."""
    p, cover, total = mt.p, mt.cover, mt.cover.dims(d)
    rows = []
    for bl, rel in mt.rels:
        for b in mt.rt.basis(d - bl) if d - bl >= 0 else ():
            row = np.zeros(total, dtype=np.int64)
            for (pos, m), c in rel.terms.items():
                row = (row + c * cover.coords(pos, mono_mul(b, m))) % p
            rows.append(row)
    if rows:
        R, pivots = rref(np.array(rows, dtype=np.int64), p)
    else:
        R, pivots = np.zeros((0, total), dtype=np.int64), []
    return R, pivots, [c for c in range(total) if c not in set(pivots)]


def _act_by_columns(mt, i, d):
    """x_i from degree d as the to_quotient column loop built it: each
    free cover coordinate pushed up, then reduced row by row."""
    p = mt.p
    R, pivots, free = _piece_by_rows(mt, d + 1)
    unit = tuple(int(j == i) for j in range(mt.nvars))
    basis = mt.cover.basis(d)
    cols = []
    for idx in _piece_by_rows(mt, d)[2]:
        g, b = basis[idx]
        v = mt.cover.coords(g, mono_mul(b, unit)) % p
        for r, c in enumerate(pivots):
            if v[c]:
                v = (v - int(v[c]) * R[r]) % p
        cols.append(v[free])
    return (np.stack(cols, axis=1) if cols
            else np.zeros((len(free), 0), dtype=np.int64))


def _random_artinian_module(rng):
    """An artinian quotient of k[x, y(, z)] by powers of the variables
    and a random form, and a module over it with up to three generators
    in degrees -1..1 and up to three random homogeneous relations."""
    n = rng.randint(1, 3)
    S = PolyRing(["x", "y", "z"][:n])
    ideal = [g ** rng.randint(1, 3) for g in S.gens()]
    exps = [0] * n
    for _ in range(2):
        exps[rng.randrange(n)] += 1
    ideal.append(S.poly({tuple(exps): 1}) + S.gens()[0] ** 2)
    ring = RingPresentation(S, ideal)
    shifts = tuple(rng.randint(-1, 1) for _ in range(rng.randint(1, 3)))
    F = S.free_module(shifts)
    rels = []
    for _ in range(rng.randint(0, 3)):
        deg = max(shifts) + rng.randint(0, 2)
        terms = {}
        for pos, a in enumerate(shifts):
            if deg - a < 0 or rng.random() < 0.3:
                continue
            m = [0] * n
            for _ in range(deg - a):
                m[rng.randrange(n)] += 1
            terms[pos, tuple(m)] = rng.randrange(1, S.p)
        rels.append(F.vec(terms))
    return GradedModule(ring, shifts, rels)


def test_module_actions_match_the_column_loop(type2_ring, dual_numbers):
    rng = random.Random(5)
    modules = [M for ring in (type2_ring, dual_numbers)
               for M in (ring.as_module(), ring.residue_field(),
                         matlis_dual(ring.as_module(), bound=12))]
    modules += [_random_artinian_module(rng) for _ in range(20)]
    nonzero = 0
    for M in modules:
        mt = ModuleTable(M)
        for d in range(mt.min_degree - 2, mt.certified_top(12) + 1):
            for i in range(mt.nvars):
                got = mt.act(i, d)
                assert np.array_equal(got, _act_by_columns(mt, i, d))
                nonzero += bool(got.any())
    assert nonzero >= 20


def _free_act_by_columns(ft, i, d):
    """x_i from degree d as the per-column loop built it: each coordinate
    m * e_g pushed up to m x_i * e_g and written in degree d + 1."""
    unit = tuple(int(j == i) for j in range(ft.nvars))
    cols = [ft.coords(g, mono_mul(b, unit)) for g, b in ft.basis(d)]
    return (np.stack(cols, axis=1) if cols
            else np.zeros((ft.dims(d + 1), 0), dtype=np.int64))


def test_free_actions_match_the_column_loop(type2_ring, dual_numbers):
    """Repeated, mixed and negative generator degrees, from below the
    lowest generator to above the ring's top degree."""
    S = PolyRing(["w", "x", "y", "z"], p=32003)
    ci = RingPresentation(S, [S.linear_form(row) ** 2 for row in (
        [1, 2, 3, 4], [0, 1, 5, 6], [7, 0, 1, 8], [0, 0, 9, 1])])
    nonzero = 0
    for ring in (type2_ring, dual_numbers, ci):
        rt = ring_table(ring)
        ring_top = rt.top_degree(12)
        for degrees in ([0], [1, 1], [-2, 0, 0, 3], [2, -1, 2], []):
            ft = FreeTable(rt, degrees)
            lo = min(degrees, default=0) - 2
            hi = max(degrees, default=0) + ring_top + 2
            for d in range(lo, hi + 1):
                for i in range(ft.nvars):
                    got = ft.act(i, d)
                    assert np.array_equal(got,
                                          _free_act_by_columns(ft, i, d))
                    nonzero += bool(got.any())
    assert nonzero >= 40


def _greedy_sieve(table, lo, top, candidates):
    """The vector-at-a-time sieve the batched one replaced: each pushed
    vector, then each candidate, reduced against the rows kept so far."""
    p = table.p
    gens = []
    prev = None
    for d in range(lo, top + 1):
        rows = {}  # pivot column -> normalized row

        def add(v):
            v = v % p
            while True:
                nz = np.nonzero(v)[0]
                if nz.size == 0:
                    return False
                c = int(nz[0])
                if c not in rows:
                    rows[c] = v * pow(int(v[c]), p - 2, p) % p
                    return True
                v = (v - int(v[c]) * rows[c]) % p

        if prev is not None and prev.shape[1]:
            for i in range(table.nvars):
                pushed = table.act(i, d - 1) @ prev % p
                for c in range(pushed.shape[1]):
                    add(pushed[:, c])
        here = []
        for v in candidates(d):
            if add(v):
                gens.append((d, v))
            here.append(v)
        prev = (np.stack(here, axis=1) if here
                else np.zeros((table.dims(d), 0), dtype=np.int64))
    return gens


def _assert_same_generators(got, want):
    assert [d for d, _ in got] == [d for d, _ in want]
    for (_, v), (_, w) in zip(got, want):
        assert np.array_equal(v, w)


class _RandomTable:
    """Random variable actions between pieces of prescribed dimensions."""

    def __init__(self, rng, p, nvars, dims):
        self.p, self.nvars, self._dims = p, nvars, dims
        self._acts = {}
        for i in range(nvars):
            for d in list(dims)[:-1]:
                rows, cols = dims[d + 1], dims[d]
                self._acts[i, d] = np.array(
                    [rng.choice((0, rng.randrange(p)))
                     for _ in range(rows * cols)],
                    dtype=np.int64).reshape(rows, cols)

    def dims(self, d):
        return self._dims[d]

    def act(self, i, d):
        return self._acts[i, d]


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5, 32003]))
def test_sieve_matches_the_greedy_one(rng, p):
    """Zero, duplicate and already-pushed candidates and empty pieces."""
    lo = rng.randrange(-2, 2)
    top = lo + rng.randrange(0, 4)
    dims = {d: rng.choice((0, 0, 1, 2, 3, 4)) for d in range(lo, top + 1)}
    table = _RandomTable(rng, p, rng.randrange(0, 3), dims)
    cands = {}
    for d in range(lo, top + 1):
        pushed = []
        if d > lo:
            for i in range(table.nvars):
                pushed += list((table.act(i, d - 1) @ cands[d - 1].T % p).T)
        rows = []
        for _ in range(rng.randrange(0, 6)):
            kind = rng.choice(("random", "zero", "duplicate", "pushed"))
            v = np.array([rng.randrange(p) for _ in range(dims[d])],
                         dtype=np.int64)
            if kind == "zero":
                v[:] = 0
            elif kind == "duplicate" and rows:
                v = rng.choice(rows).copy()
            elif kind == "pushed" and pushed:
                v = sum(rng.randrange(p) * w for w in pushed) % p
            rows.append(v)
        cands[d] = np.array(rows, dtype=np.int64).reshape(len(rows), dims[d])
    _assert_same_generators(
        oracle._minimal_generators_degreewise(table, lo, top, cands.get),
        _greedy_sieve(table, lo, top, cands.get))


def test_sieve_matches_the_greedy_one_on_oracle_tables(type2_ring,
                                                       dual_numbers):
    """Piece generators of module and dual tables, and kernel generators
    of their covering maps."""
    bound = 12
    kernels = []
    for ring in (type2_ring, dual_numbers):
        for M in (ring.as_module(), ring.residue_field()):
            mt = ModuleTable(M)
            dual = DualTable(mt, bound)
            ring_top = mt.rt.top_degree(bound)
            for table, lo, top in ((mt, mt.min_degree, dual.top),
                                   (dual, dual.min_degree, -dual.lo)):
                gens = oracle._piece_generators(table, lo, top)
                phi = oracle._covering_map(mt.rt, table, gens)
                kernel = oracle._kernel_generators(phi, ring_top)
                with mock.patch.object(
                        oracle, "_minimal_generators_degreewise",
                        _greedy_sieve):
                    _assert_same_generators(
                        gens, oracle._piece_generators(table, lo, top))
                    _assert_same_generators(
                        kernel, oracle._kernel_generators(phi, ring_top))
                assert gens
                kernels += kernel
    assert kernels


def _random_rows(rng, p, m, n):
    """An m x n matrix of residues mod p, about half of them zero."""
    return np.array([rng.choice((0, rng.randrange(p))) for _ in range(m * n)],
                    dtype=np.int64).reshape(m, n)


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from([2, 3, 32003, ORACLE_PRIME_LIMIT - 1]),
       st.sampled_from(("empty", "random")),
       st.sampled_from(("none", "random", "in span", "mixed", "fill")))
def test_fold_is_the_row_reduction_of_the_stack(rng, p, start, kind):
    """The reduced row echelon form of a row space is unique, so folding
    rows into E gives rref of E stacked over them, pivots included."""
    n = rng.randrange(1, 7)
    E, pivots = rref(_random_rows(rng, p, 0 if start == "empty"
                                  else rng.randrange(1, n + 2), n), p)
    m = rng.randrange(1, 5)
    span = matmul(_random_rows(rng, p, m, E.shape[0]), E, p)
    rows = {"none": np.zeros((0, n), dtype=np.int64),
            "random": _random_rows(rng, p, m, n),
            "in span": span,
            "mixed": np.vstack([span, _random_rows(rng, p, m, n)]),
            "fill": np.vstack([_random_rows(rng, p, m, n),
                               np.eye(n, dtype=np.int64)])}[kind]
    got, got_pivots = oracle._fold(E, pivots, rows, p)
    want, want_pivots = rref(np.vstack([E, rows]), p)
    assert got_pivots == want_pivots
    assert np.array_equal(got, want)
    if kind == "fill":
        assert got_pivots == list(range(n))
    if kind in ("none", "in span"):
        assert got_pivots == pivots


def _ci_hilbert_function(degrees):
    """{degree: dim}: the product of 1 + t + ... + t^(d - 1)."""
    coeffs = [1]
    for e in degrees:
        out = [0] * (len(coeffs) + e - 1)
        for i, c in enumerate(coeffs):
            for j in range(e):
                out[i + j] += c
        coeffs = out
    return {i: c for i, c in enumerate(coeffs) if c}


CI_PATTERNS = [
    ((2, 2, 2), [[1, 5, 7], [0, 1, 3], [2, 0, 1]]),
    ((3, 2, 3), [[4, 1, 0], [1, 9, 2], [0, 3, 1]]),
    ((2, 3, 2, 2), [[1, 2, 3, 4], [0, 1, 5, 6], [7, 0, 1, 8], [0, 0, 9, 1]]),
]


def _ci_ring(degrees, forms) -> RingPresentation:
    """k[x_1..x_n]/(l_1^d_1, ..., l_n^d_n), the l_i the rows of forms."""
    S = PolyRing([f"x{i}" for i in range(len(degrees))], p=32003)
    return RingPresentation(
        S, [S.linear_form(row) ** e for row, e in zip(forms, degrees)])


@pytest.mark.parametrize("degrees, forms", CI_PATTERNS)
def test_closed_forms_of_complete_intersections(degrees, forms):
    """R = k[x_1..x_n]/(l_1^d_1, ..., l_n^d_n) with independent linear
    forms l_i is an artinian complete intersection, hence Gorenstein."""
    n = len(degrees)
    ring = _ci_ring(degrees, forms)
    R, k = ring.as_module(), ring.residue_field()
    hilbert = _ci_hilbert_function(degrees)
    assert oracle_hilbert(R) == hilbert
    assert oracle_socle_dimension(R) == 1
    # Poincare series of k over a complete intersection of forms of
    # degree >= 2: (1 + t)^n / (1 - t^2)^n = 1 / (1 - t)^n
    assert [sum(e.values()) for e in oracle_ext_dims(k, k, 2)] == \
        [comb(n + i - 1, i) for i in range(3)]
    assert [sum(e.values()) for e in oracle_ext_dims(k, R, 2)] == [1, 0, 0]
    assert oracle_hilbert(matlis_dual(R)) == \
        {-d: c for d, c in hilbert.items()}


def _fresh(M: GradedModule) -> GradedModule:
    """The same presentation as M, as a new object with an empty cache."""
    return GradedModule(M.ring, M.shifts, M.relations)


def _count_builds():
    """Patch oracle.OracleResolution with a wrapper that counts builds."""
    return mock.patch.object(oracle, "OracleResolution",
                             wraps=oracle.OracleResolution)


def _coboundary_by_entries(ct, src, dst, images, t):
    """The coboundary as oracle_ext_dims filled it before _coboundary:
    one coefficient of one image at a time, times the block of its
    monomial acting on C."""
    p = ct.p

    def layout(degrees):
        offsets, total = [], 0
        for a in degrees:
            offsets.append(total)
            total += ct.dims(a + t)
        return offsets, total

    (off_i, dim_i), (off_n, dim_n) = layout(src), layout(dst)
    mat = np.zeros((dim_n, dim_i), dtype=np.int64)
    if dim_i == 0 or dim_n == 0:
        return mat
    F = FreeTable(ct.rt, src)
    for l, a_l in enumerate(dst):
        for idx, (g, b) in enumerate(F.basis(a_l)):
            coeff = int(images[l][idx])
            nc = ct.dims(src[g] + t) if coeff else 0
            if nc == 0:
                continue
            block = ct.apply_mono(np.eye(nc, dtype=np.int64), b, src[g] + t)
            rows = slice(off_n[l], off_n[l] + block.shape[0])
            cols = slice(off_i[g], off_i[g] + nc)
            mat[rows, cols] = (mat[rows, cols] + coeff * block) % p
    return mat


def _at_prime(M, p):
    """M, its ring rebuilt over GF(p) with the same coefficients."""
    S = PolyRing(M.ring.poly_ring.variables, p=p)
    ring = RingPresentation(S, [S.poly(g.terms) for g in M.ring.ideal_gens])
    F = S.free_module(M.shifts)
    return GradedModule(ring, M.shifts,
                        [F.vec(dict(r.terms)) for r in M.relations])


def test_coboundaries_match_the_per_entry_loop():
    """Battery instances whose resolutions of k and M have generators
    of mixed degrees, with C in {R, k, M}, at p = 32003 and 2^31 - 1;
    one action dict per C, as oracle_ext_dims keeps it."""
    mixed = nonzero = 0
    for seed in (9, 11, 20, 35, 37, 48):
        for p in (32003, 2 ** 31 - 1):
            M = _at_prime(random_artinian_instance(seed)[1], p)
            ring = M.ring
            cs = [ring.as_module(), ring.residue_field(), M]
            for X in (ring.residue_field(), M):
                res = OracleResolution(ModuleTable(X), 4, 12)
                mixed += any(len(set(d)) > 1 for d in res.degrees)
                for C in cs:
                    ct, actions = ModuleTable(C), {}
                    top = ct.certified_top(12)
                    for i in range(len(res.degrees) - 1):
                        src, dst = res.degrees[i], res.degrees[i + 1]
                        for t in range(ct.min_degree - max(dst) - 1,
                                       top - min(src) + 2):
                            got = oracle._coboundary(
                                ct, src, dst, res.images[i + 1], t, actions)
                            want = _coboundary_by_entries(
                                ct, src, dst, res.images[i + 1], t)
                            assert np.array_equal(got, want)
                            nonzero += bool(got.any())
    assert mixed >= 12
    assert nonzero >= 100


def test_ext_dims_resolve_each_module_once():
    k = _ci_ring(*CI_PATTERNS[0]).residue_field()
    R = k.ring.as_module()
    with _count_builds() as built:
        oracle_ext_dims(k, k, 2)
        oracle_ext_dims(k, R, 2)
        assert built.call_count == 1
        # another number of steps, or another window, is another key
        oracle_ext_dims(k, R, 3)
        oracle_ext_dims(k, R, 2, bound=12)
        assert built.call_count == 3
        oracle_ext_dims(k, k, 3)
        assert built.call_count == 3


def test_ext_dims_cache_no_truncation_error(node_ring):
    k = _fresh(node_ring.residue_field())
    with _count_builds() as built:
        for _ in range(2):
            with pytest.raises(TruncationError):
                oracle_ext_dims(k, k, 2, bound=6)
        assert built.call_count == 2
    assert not [key for key in k._cache if key[0] == "oracle_res"]


def test_cached_ext_dims_equal_those_of_fresh_modules(corpus):
    pairs = []
    for pattern in CI_PATTERNS:
        ring = _ci_ring(*pattern)
        k = ring.residue_field()
        pairs += [(k, k), (k, ring.as_module())]
    session = corpus["type2_artinian"]
    k, R, E = (session.resolve(name) for name in ("k", "R", "E"))
    pairs += [(k, R), (k, E), (R, E)]
    for M, C in pairs:
        # after the first pair of each M, the first call reads the cache
        cached = oracle_ext_dims(M, C, 2, bound=12)
        assert oracle_ext_dims(M, C, 2, bound=12) == cached
        assert cached == oracle_ext_dims(_fresh(M), _fresh(C), 2, bound=12)


def test_cached_resolution_keeps_no_build_matrices():
    """A resolution is plain data: with the cyclic collector off, the
    module table it was built from is freed as soon as the caller drops
    it, and the generator degrees and images stay."""
    k = _ci_ring(*CI_PATTERNS[2]).residue_field()
    gc.disable()
    try:
        mt = ModuleTable(k)
        table = weakref.ref(mt)
        res = OracleResolution(mt, 4, oracle.DEFAULT_DEGREE_BOUND)
        del mt
        assert table() is None
    finally:
        gc.enable()
    assert [len(images) for images in res.images] == [1, 4, 10, 20]
    assert res.degrees[:2] == [[0], [1, 1, 1, 1]]


# relative module -> the names it may give, or None for any
_ORACLE_IMPORTS = {"linalg": None, "field": None, "poly": None,
                   "modules": {"GradedModule", "RingPresentation"}}


def test_oracle_shares_only_polynomial_arithmetic_with_the_engine():
    """No Groebner basis, invariant or criterion reaches the oracle, so
    that its agreement with the engine is evidence."""
    package = Path(oracle.__file__).parent
    imported = {}
    for name in ("oracle", "linalg"):
        tree = ast.parse((package / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("injcrit")
                               for a in node.names), name
            elif isinstance(node, ast.ImportFrom) and node.level:
                assert node.module in _ORACLE_IMPORTS, (name, node.module)
                allowed = _ORACLE_IMPORTS[node.module]
                names = {a.name for a in node.names}
                assert allowed is None or names <= allowed, (name, names)
                imported.setdefault(name, set()).update(
                    (node.module, n) for n in names)
            elif isinstance(node, ast.ImportFrom):
                assert not node.module.startswith("injcrit"), name
    # bench/tracer.py rebinds oracle.rref, so it must stay a name there
    assert ("linalg", "rref") in imported["oracle"]
