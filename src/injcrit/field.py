"""Prime field arithmetic on canonical representatives in [0, p).

All coefficients in the kernel are plain python ints reduced mod p; this
module owns the modulus bookkeeping and inversion.
"""

DEFAULT_PRIME = 32003

# The dense oracle multiplies two residues in int64 before reducing them,
# so p * p must stay below 2^63; 2^31 leaves room for the subtraction.
ORACLE_PRIME_LIMIT = 2 ** 31


class PrimeField:
    """The field GF(p) for a prime modulus p.

    Elements are represented by their canonical representatives in [0, p);
    the class only carries the modulus and the arithmetic helpers.
    """

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if p < 2 or not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def reduce(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond any modulus we accept
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
