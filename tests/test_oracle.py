"""The dense linear-algebra oracle against the symbolic engine."""

import random

import numpy as np
import pytest

from injcrit.field import ORACLE_PRIME_LIMIT
from injcrit.invariants import hilbert_series, length, socle_dimension
from injcrit.linalg import nullspace, rref
from injcrit.modules import GradedModule, RingPresentation, ext, resolution
from injcrit.oracle import (ModuleTable, TruncationError, matlis_dual,
                            oracle_ext_dims, oracle_hilbert, oracle_length,
                            oracle_socle_dimension, ring_table)
from injcrit.poly import PolyRing

from conftest import named_modules


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
        engine = resolution(k, "R", steps=steps).betti_numbers()
        mt = ModuleTable(k)
        from injcrit.oracle import OracleResolution
        orc = OracleResolution(mt, steps=steps + 1, bound=12)
        assert orc.betti_numbers()[:steps + 1] == engine[:steps + 1]


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
    with pytest.raises(AssertionError):
        rref(A, big)
    with pytest.raises(AssertionError):
        nullspace(A, big)
