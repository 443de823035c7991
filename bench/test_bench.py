"""Tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest -q bench``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import dense  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from artinian import random_artinian_instance  # noqa: E402
from tracer import Tracer  # noqa: E402


def _acceptance_generator():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import test_acceptance
    finally:
        sys.path.remove(str(ROOT / "tests"))
    return test_acceptance.random_artinian_instance


def test_local_instances_match_the_acceptance_battery():
    theirs = _acceptance_generator()
    for seed in range(1, 201):
        ring, M = random_artinian_instance(seed)
        ring2, M2 = theirs(seed)
        assert ring.cache_key() == ring2.cache_key(), seed
        assert M.cache_key() == M2.cache_key(), seed


def _fail_frac(workload, prepared):
    results = worker.run_items(workload, prepared)
    chunk = {"setup_s": 0.1, "maxrss_kb": 1024, "items": results}
    return run.end_to_end([[chunk]])["fail_frac"][0]


def test_a_corrupted_golden_byte_is_a_failure():
    wl = workloads.SessionsCheck()
    wl.setup()
    item = next(c[0] for c in workloads.plan("sessions_check", 1)
                if c[0]["id"] == "regular_line")
    prep = wl.prepare(item)
    assert _fail_frac(wl, [prep]) == 0
    golden = bytearray(prep["golden"])
    golden[len(golden) // 2] ^= 1
    prep["golden"] = bytes(golden)
    assert _fail_frac(wl, [prep]) == 1


def test_a_wrong_closed_form_is_a_failure():
    wl = workloads.OracleDense()
    wl.setup()
    spec = workloads.plan("oracle_dense", 1)[0][-1]
    assert len(spec["degrees"]) == 3
    good = wl.prepare(spec)
    bad = wl.prepare(spec)
    bad["ref"]["ext_k_k"][2] += 1
    assert _fail_frac(wl, [good, bad]) == 0.5


def test_closed_forms():
    assert dense.hilbert_function([2, 2, 2]) == {0: 1, 1: 3, 2: 3, 3: 1}
    assert dense.hilbert_function([3, 2]) == {0: 1, 1: 2, 2: 2, 3: 1}
    ref = dense.references({"degrees": [2, 2, 2, 2, 2]})
    assert ref["ext_k_k"] == [1, 5, 15]
    assert ref["ext_k_R"] == [1, 0, 0]
    assert ref["dual_hilbert"] == {0: 1, -1: 5, -2: 10, -3: 10, -4: 5, -5: 1}
    assert dense.det_mod([[1, 2], [2, 4]], 7) == 0
    assert dense.det_mod([[0, 1], [1, 0]], 7) == 6


def test_plans_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.plan(name, 5) == workloads.plan(name, 5)
    specs = dense.ring_specs(5)
    assert sorted(tuple(sorted(s["degrees"])) for s in specs) == \
        sorted(dense.PATTERNS)
    assert all(dense.det_mod(s["forms"], dense.PRIME) for s in specs)
    seeds = [i["id"] for c in workloads.plan("artinian_battery", 17)
             for i in c]
    assert seeds == list(range(2, 202))


def test_tracer_wraps_every_alias_and_restores_them():
    from injcrit import groebner, invariants, linalg, modules, oracle
    originals = (groebner.buchberger, linalg.rref)
    tracer = Tracer()
    tracer.install()
    try:
        assert modules.buchberger is groebner.buchberger
        assert invariants.buchberger is groebner.buchberger
        assert oracle.rref is linalg.rref
        assert groebner.buchberger.__wrapped__ is originals[0]
        span = tracer.begin_item("probe")
        ring, M = random_artinian_instance(3)
        oracle.oracle_socle_dimension(M, bound=16)
        invariants.socle_dimension(M)
        tracer.end_item(span)
    finally:
        tracer.uninstall()
    assert (groebner.buchberger, linalg.rref) == originals
    assert modules.buchberger is originals[0]
    agg = tracer.aggregate()
    assert agg["spans"]["item"]["calls"] == 1
    assert agg["spans"]["linalg.rref"]["calls"] > 0
    assert agg["counters"]["poly.MonomialOrder.key.calls"] > 0
    assert set(tracer.item) == {"probe"}


def test_declared_metrics_are_the_ones_reported():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    chunk = {"setup_s": 0.1, "maxrss_kb": 1024, "items": [[0.01, True]],
             "trace": {"spans": {}, "counters": {}}}
    e2e = run.end_to_end([[chunk]])
    layers, _ = run.per_layer([[chunk]], [[chunk]])
    for section, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        for m in declared[section]:
            assert metrics[m["name"]][1] == m["unit"], m["name"]
