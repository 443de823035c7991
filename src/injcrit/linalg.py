"""Dense exact linear algebra over GF(p), numpy int64 backed.

Deliberately independent of the Groebner machinery: plain row reduction
only, so agreement between the two paths is meaningful evidence.
"""

from __future__ import annotations

import numpy as np

from .field import ORACLE_PRIME_LIMIT


def as_matrix(rows, ncols: int, p: int) -> np.ndarray:
    if len(rows) == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.array(rows, dtype=np.int64) % p


def rref(A: np.ndarray, p: int):
    """Reduced row echelon form; returns (R, pivot column list)."""
    assert p < ORACLE_PRIME_LIMIT, f"modulus {p} overflows int64 products"
    R = A.copy() % p
    m, n = R.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        rows = np.nonzero(R[r:, c])[0]
        if rows.size == 0:
            continue
        pr = r + int(rows[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        inv = pow(int(R[r, c]), p - 2, p)
        R[r] = R[r] * inv % p
        col = R[:, c].copy()
        col[r] = 0
        mask = np.nonzero(col)[0]
        if mask.size:
            R[mask] = (R[mask] - np.outer(col[mask], R[r])) % p
        pivots.append(c)
        r += 1
    return R[:r], pivots


def rank(A: np.ndarray, p: int) -> int:
    if A.size == 0:
        return 0
    return len(rref(A, p)[1])


def nullspace(A: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of {x : A x = 0}."""
    assert p < ORACLE_PRIME_LIMIT, f"modulus {p} overflows int64 products"
    m, n = A.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    R, pivots = rref(A, p)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(R[i, fc])) % p
    return basis


def mat_mul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    return (A @ B) % p


class SpanTracker:
    """Incremental row-space membership: echelonized rows by pivot column."""

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self.rows = {}  # pivot column -> normalized row

    def reduce(self, v: np.ndarray) -> np.ndarray:
        p = self.p
        v = v.astype(np.int64) % p
        while True:
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                return v
            c = int(nz[0])
            row = self.rows.get(c)
            if row is None:
                return v
            v = (v - int(v[c]) * row) % p
        # unreachable

    def add(self, v: np.ndarray) -> bool:
        """Add v to the span; True iff it was independent."""
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        inv = pow(int(v[c]), self.p - 2, self.p)
        self.rows[c] = v * inv % self.p
        return True

    def contains(self, v: np.ndarray) -> bool:
        return not np.any(self.reduce(v))

    @property
    def rank(self) -> int:
        return len(self.rows)
