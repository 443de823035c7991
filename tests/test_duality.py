"""The Bass number by duality against the direct route.

For C maximal Cohen-Macaulay over a Cohen-Macaulay ring R of dimension
d, mu^{d+1}(C) = dim_k Ext^{d+1}(k, C) is beta_1(Hom(C, omega)), the
number of minimal relations of Hom(C, omega) (Bruns-Herzog, Section
3.3).  bass_number reads it that way; these tests hold it against the
length of Ext^{d+1}(k, C), built from a resolution of k over R, and
omega itself against the oracle's Matlis dual of an artinian R.
"""

import json
import random
from itertools import combinations_with_replacement

import pytest

from injcrit.criteria import bass_number
from injcrit.invariants import (canonical_module, dimension, hilbert_series,
                                is_cohen_macaulay, length)
from injcrit.modules import RingPresentation, ext
from injcrit.oracle import matlis_dual, oracle_hilbert
from injcrit.poly import PolyRing
from injcrit.session import parse_session

from conftest import STRESS, direct_sum, mcm_over_cm, named_modules
from test_acceptance import random_artinian_instance
from test_golden import SESSIONS


def by_duality(C):
    return len(ext(C, canonical_module(C.ring), 0).relations)


def directly(C, j):
    return length(ext(C.ring.residue_field(), C, j))


def mcm_cases(session):
    """(name, C, d) for every named maximal Cohen-Macaulay C of a
    session over a Cohen-Macaulay ring of dimension d."""
    d = dimension(session.ring.as_module())
    return [(name, C, d) for name, C in named_modules(session)
            if mcm_over_cm(C)]


def test_duality_matches_ext_on_the_benchmark_sessions():
    """Every maximal Cohen-Macaulay module of the twelve benchmark
    sessions, k of the artinian ones included."""
    cases = 0
    for session_name, path in sorted(SESSIONS.items()):
        for name, C, d in mcm_cases(parse_session(path.read_text())):
            assert by_duality(C) == directly(C, d + 1) == bass_number(
                C, d + 1), (session_name, name)
            cases += 1
    assert cases == 19


def test_duality_matches_the_direct_route_on_the_stress_sessions():
    """The stress sessions' Bass checks of maximal Cohen-Macaulay
    modules: their golden bytes were recorded while the Bass number was
    still Ext^{d+1}(k, C), so each bass_length there is the direct
    route's; building those Ext modules again takes seconds."""
    cases = 0
    for _, path in STRESS:
        session = parse_session(path.read_text())
        golden = json.loads((path.parents[1] / "golden"
                             / path.name).read_text())
        recorded = {chk["inputs"]["C"]: chk["hypotheses"][2]["values"]
                    for chk in golden["checks"]
                    if chk["criterion"] == "Bass"}
        for name, C, d in mcm_cases(session):
            assert by_duality(C) == recorded[name]["bass_length"], (
                path.stem, name)
            cases += 1
    assert cases == 6


def test_duality_matches_ext_on_the_artinian_battery():
    """The 200 seeded artinian instances of the acceptance battery: over
    an artinian R every nonzero module is maximal Cohen-Macaulay, so M, R
    and k each compare, and omega is the Matlis dual of R, untwisted."""
    for seed in range(1, 201):
        ring, M = random_artinian_instance(seed)
        R, k = ring.as_module(), ring.residue_field()
        for C in (M, R, k):
            assert by_duality(C) == directly(C, 1), seed
        assert (hilbert_series(canonical_module(ring)).coefficients(16)
                == oracle_hilbert(matlis_dual(R, 16), 16)), seed


def rational_normal_cubic():
    S = PolyRing(["a", "b", "c", "d"])
    a, b, c, d = S.gens()
    return RingPresentation(S, [a * c - b * b, a * d - b * c, b * d - c * c])


def two_random_quadrics(seed):
    """A complete intersection of two quadrics with random coefficients
    in four variables."""
    S = PolyRing(["x", "y", "z", "w"])
    rng = random.Random(seed)

    def mono(i, j):
        exps = [0] * 4
        exps[i] += 1
        exps[j] += 1
        return tuple(exps)

    return RingPresentation(S, [
        S.poly({mono(i, j): rng.randrange(1, S.p)
                for i, j in combinations_with_replacement(range(4), 2)})
        for _ in range(2)])


@pytest.mark.parametrize("ring,bass", [(rational_normal_cubic(), [3, 0, 3]),
                                       (two_random_quadrics(1), [0, 0, 0])],
                         ids=["rnc3", "ci22"])
def test_duality_matches_ext_on_cohen_macaulay_rings(ring, bass):
    """R, omega and R + omega over two Cohen-Macaulay rings of dimension
    2: the rational normal cubic, of type 2, and a Gorenstein complete
    intersection, where omega = R."""
    R = ring.as_module()
    assert is_cohen_macaulay(R) and dimension(R) == 2
    omega = canonical_module(ring)
    modules = [R, omega, direct_sum(R, omega)]
    assert [by_duality(C) for C in modules] == bass
    assert [directly(C, 3) for C in modules] == bass
