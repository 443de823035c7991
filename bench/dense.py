"""Seeded artinian complete intersections and their closed-form invariants.

R = k[x_1..x_n]/(l_1^d_1, ..., l_n^d_n) with l_i independent linear
forms is a complete intersection, so its oracle values have closed forms.
Everything here is plain integer arithmetic and imports nothing from
injcrit, so the references share no code with the oracle they check.
"""

import random
from math import comb

PRIME = 32003
EXT_I_MAX = 2

# One pass runs one ring per entry, in this order.  A fixed list keeps
# the work of a pass the same for every seed: the seed draws the linear
# forms and which form gets which power, not the ring sizes.  Four rings
# cost less than (2, 2, 2, 2) and four cost more, so the median item is
# one of its five rings, never the gap between rings of different cost;
# they are spread through the pass so that a slow second of the host
# does not hit them all.
LIKE = (2, 2, 2, 2)
PATTERNS = (LIKE, (2, 2, 2, 2, 2), LIKE, (2, 3, 3, 3), LIKE, (2, 2, 3, 3),
            LIKE, (2, 2, 2, 3), LIKE, (3, 3, 3), (2, 3, 3), (2, 2, 3),
            (2, 2, 2))


def det_mod(rows, p):
    """Determinant of a square integer matrix modulo the prime p."""
    m = [[a % p for a in row] for row in rows]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[c])]
    return det % p


def ring_specs(seed):
    """The rings of one pass: dicts with the powers and linear forms.

    The forms are redrawn from the seeded stream until their determinant
    is nonzero mod p, so every ring is a complete intersection.
    """
    rng = random.Random(f"oracle_dense:{seed}")
    specs = []
    for pattern in PATTERNS:
        n = len(pattern)
        degrees = list(pattern)
        rng.shuffle(degrees)
        while True:
            forms = [[rng.randrange(PRIME) for _ in range(n)]
                     for _ in range(n)]
            if det_mod(forms, PRIME):
                break
        specs.append({"degrees": degrees, "forms": forms})
    return specs


def hilbert_function(degrees):
    """{degree: dim R_d}: the product of 1 + t + ... + t^(d_i - 1)."""
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                out[i + j] += c
        coeffs = out
    return {i: c for i, c in enumerate(coeffs) if c}


def references(spec):
    """Closed-form oracle values of the complete intersection in spec."""
    degrees = spec["degrees"]
    n = len(degrees)
    hilbert = hilbert_function(degrees)
    return {
        "hilbert": hilbert,
        "socle": 1,
        # Poincare series of k over a complete intersection of forms of
        # degree >= 2: (1 + t)^n / (1 - t^2)^n = 1 / (1 - t)^n
        "ext_k_k": [comb(n + i - 1, i) for i in range(EXT_I_MAX + 1)],
        # R is artinian Gorenstein, hence injective over itself
        "ext_k_R": [1] + [0] * EXT_I_MAX,
        # graded Matlis dual: (R^v)_d = Hom_k(R_{-d}, k)
        "dual_hilbert": {-d: c for d, c in hilbert.items()},
    }
