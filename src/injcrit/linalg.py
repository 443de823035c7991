"""Dense exact linear algebra over GF(p), numpy int64 backed.

Deliberately independent of the Groebner machinery: row reduction, the
null spaces and quotients it yields, and matrix products mod p, so agreement
between the two paths is meaningful evidence.  Entries are canonical
residues in [0, p); every product is kept below 2^63, so int64 never
wraps.
"""

from __future__ import annotations

import numpy as np

from .field import ORACLE_PRIME_LIMIT

# Right factors split into 16-bit halves when a plain product could wrap.
_HALF = 16


def _check_prime(p: int):
    """Refuse a modulus whose products could wrap int64.  A raise, not an
    assert, so that the check also holds under python -O."""
    if p >= ORACLE_PRIME_LIMIT:
        raise OverflowError(f"modulus {p} overflows int64 products")


def matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p, exact for residues A, B and any p below the limit."""
    _check_prime(p)
    inner = A.shape[1]
    if inner * (p - 1) ** 2 < 2 ** 63:
        return A @ B % p
    if inner >= 2 ** (63 - 31 - _HALF):
        raise OverflowError("inner dimension too large")
    lo = A @ (B & ((1 << _HALF) - 1)) % p
    hi = A @ (B >> _HALF) % p
    return ((hi << _HALF) + lo) % p


def rref(A: np.ndarray, p: int):
    """Reduced row echelon form; returns (R, pivot column list)."""
    _check_prime(p)
    R = A % p
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
        R[r, c:] = R[r, c:] * inv % p
        col = R[:, c].copy()
        col[r] = 0
        mask = np.nonzero(col)[0]
        if mask.size:
            # columns left of c are zero in the pivot row
            block = R[mask, c:]
            block -= np.outer(col[mask], R[r, c:])
            block %= p
            R[mask, c:] = block
        pivots.append(c)
        r += 1
    return R[:r], pivots


def complement(A: np.ndarray, p: int):
    """(free, Q) from the reduced row echelon form R of A.

    free lists the non-pivot columns.  Q has Q[free] the identity and
    Q[pivots] = -R[:, free], so its columns form a basis of
    {x : A x = 0}, and Q.T maps a vector to its class modulo the row
    space of A, in the coordinates that free indexes.
    """
    n = A.shape[1]
    R, pivots = rref(A, p)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    Q = np.zeros((n, len(free)), dtype=np.int64)
    Q[free, range(len(free))] = 1
    Q[pivots] = -R[:, free] % p
    return free, Q


def nullspace(A: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of {x : A x = 0}."""
    return complement(A, p)[1]
