"""The seeded random artinian instance of the acceptance battery.

A copy of ``random_artinian_instance`` from ``tests/test_acceptance.py``:
the benchmark must not import the test suite, and ``test_bench.py``
checks that both yield the same instances for seeds 1-200.
"""

import random
from math import prod

from injcrit.modules import GradedModule, RingPresentation
from injcrit.poly import PolyRing

VARS = ["x", "y", "z"]


def random_artinian_instance(seed):
    """A seeded artinian quotient ring in <= 3 variables with relation
    degrees <= 3, together with a test module over it."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    S = PolyRing(VARS[:n])
    powers = [rng.randint(1, 3) for _ in range(n)]
    # the product of the powers bounds the vector-space size of the quotient
    while prod(powers) > 8:
        i = max(range(n), key=lambda j: powers[j])
        powers[i] -= 1
    ideal = [g ** e for g, e in zip(S.gens(), powers)]
    for _ in range(rng.randint(0, 2)):
        d = rng.randint(2, 3)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = rng.randint(1, 32002)
        f = S.poly(terms)
        if not f.is_zero():
            ideal.append(f)
    ring = RingPresentation(S, ideal)
    kind = rng.randrange(3)
    if kind == 0:
        M = ring.as_module()
    elif kind == 1:
        M = ring.residue_field()
    else:
        d = rng.randint(1, 2)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        f = S.poly({tuple(exps): rng.randint(1, 32002)})
        F = S.free_module((0,))
        M = GradedModule(ring, (0,), [F.from_polys([f])])
    return ring, M
