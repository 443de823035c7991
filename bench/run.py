"""Seeded end-to-end and per-layer benchmark of injcrit.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sessions_check --seed 1 --seconds 30 --trace 0

A run repeats whole passes of the workload, one after another, until
another pass would end after --seconds; there is always at least one.
Every chunk of a pass runs in a fresh interpreter (bench/worker.py), one
at a time.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 each pass runs untraced and then traced, and the run reports
the per-layer metrics of the traced passes, per pass, and the tracing
overhead.  Standard output ends with one JSON line: correct, attempted,
failed and the metrics named in BENCHMARK.json.  Spans of traced runs are
written to .bench_out/<workload>-seed<seed>.spans.tsv.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 170


def launch(workload, items, trace, spans_path, worker):
    """Run one chunk in a fresh interpreter; its result dict."""
    spec = {"workload": workload, "items": items, "trace": trace,
            "spans_path": str(spans_path), "worker": worker,
            "launched": time.monotonic()}
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker {worker}: timed out", file=sys.stderr)
        proc = None
    if proc is not None:
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        print(f"worker {worker}: exit code {proc.returncode}",
              file=sys.stderr)
    return {"setup_s": None, "maxrss_kb": None,
            "items": [[0.0, False] for _ in items]}


def run_pass(workload, chunks, trace, spans_path, first_worker):
    return [launch(workload, items, trace, spans_path, first_worker + k)
            for k, items in enumerate(chunks)]


def item_results(passes):
    return [it for chunks in passes for chunk in chunks
            for it in chunk["items"]]


def end_to_end(passes):
    """{name: (value, unit)} over the untraced passes of a run."""
    items = item_results(passes)
    chunks = [c for p in passes for c in p]
    seconds = [s for s, _ in items]
    verified = sum(ok for _, ok in items)
    setups = [c["setup_s"] for c in chunks if c["setup_s"] is not None]
    rss = [c["maxrss_kb"] for c in chunks if c["maxrss_kb"] is not None]
    # the rate of the median pass: every pass runs the same items, and
    # this host's speed swings by a third for seconds at a time
    rates = []
    for p in passes:
        done = item_results([p])
        timed_s = sum(s for s, _ in done)
        rates.append(sum(ok for _, ok in done) / timed_s if timed_s else 0.0)
    out = {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "item_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
        "fail_frac": ((len(items) - verified) / len(items), "frac"),
        "peak_rss_mb": (max(rss) / 1024 if rss else 0.0, "MB"),
        "item_samples": (len(items), "count"),
    }
    # the highest percentile reported has at least ten samples beyond it
    if len(seconds) >= 100:
        out["item_p90_ms"] = (
            statistics.quantiles(seconds, n=10)[-1] * 1e3, "ms")
    return out


def _sum_traces(passes):
    spans, counters = {}, {}
    for chunks in passes:
        for chunk in chunks:
            trace = chunk.get("trace")
            if trace is None:
                continue
            for name, agg in trace["spans"].items():
                acc = spans.setdefault(name, dict.fromkeys(agg, 0))
                for key, value in agg.items():
                    acc[key] += value
            for name, value in trace["counters"].items():
                counters[name] = counters.get(name, 0) + value
    return spans, counters


# per-layer metrics computed from the spans: (name, unit)
SPAN_METRICS = [
    ("groebner.GBuilder.reduced_basis.self_s", "s"),
    ("groebner.GBuilder.normal_form.calls", "count"),
    ("groebner.GBuilder.normal_form.self_s", "s"),
    ("groebner.GBuilder.complete.self_s", "s"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.MembershipTester.calls", "count"),
    ("modules.syzygies_over.calls", "count"),
    ("modules.syzygies_over.self_s", "s"),
    ("modules.minimal_generators.self_s", "s"),
    ("modules.kernel_of_cokernel_map.self_s", "s"),
    ("modules.minimalize_presentation.self_s", "s"),
    ("modules.ext.calls", "count"),
    ("modules.ext.incl_s", "s"),
    ("invariants.hilbert_series.calls", "count"),
    ("invariants.hilbert_series.self_s", "s"),
    ("invariants.depth.incl_s", "s"),
    ("invariants.type_of.incl_s", "s"),
    ("invariants.socle_dimension.incl_s", "s"),
    ("invariants.rank.incl_s", "s"),
    ("invariants.find_regular_sop.incl_s", "s"),
    ("session.parse_session.calls", "count"),
    ("session.parse_session.self_s", "s"),
    ("session.run_session.calls", "count"),
    ("session.run_session.self_s", "s"),
    ("session.emit_json.calls", "count"),
    ("session.emit_json.self_s", "s"),
    ("parse.parse_polynomial.calls", "count"),
    ("parse.parse_polynomial.self_s", "s"),
    ("oracle.oracle_ext_dims.self_s", "s"),
    ("oracle.oracle_hilbert.self_s", "s"),
    ("oracle.oracle_socle_dimension.self_s", "s"),
    ("oracle.matlis_dual.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.nullspace.calls", "count"),
]
COUNTER_METRICS = [
    ("poly.MonomialOrder.key.calls", "count"),
    ("modules.resolution_steps", "count"),
    ("groebner.spairs", "count"),
    ("linalg.rref.cells", "count"),
]


def per_layer(untraced, traced):
    """{name: (value, unit)}: traced work per pass, and the overhead."""
    spans, counters = _sum_traces(traced)
    n = len(traced)
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    out = {}
    for name, unit in SPAN_METRICS:
        base, field = name.rsplit(".", 1)
        out[name] = (spans.get(base, zero)[field] / n, unit)
    for name, unit in COUNTER_METRICS:
        out[name] = (counters.get(name, 0) / n, unit)
    criteria = [a for name, a in spans.items() if name.startswith("criteria.")]
    out["criteria.all.calls"] = (sum(a["calls"] for a in criteria) / n,
                                 "count")
    out["criteria.all.self_s"] = (sum(a["self_s"] for a in criteria) / n, "s")
    spairs = counters.get("groebner.spairs", 0)
    out["groebner.spair_zero_frac"] = (
        counters.get("groebner.spairs_zero", 0) / spairs if spairs else 0.0,
        "frac")
    traced_s = sum(s for s, _ in item_results(traced))
    untraced_s = sum(s for s, _ in item_results(untraced))
    dense_self = sum(a["self_s"] for name, a in spans.items()
                     if name.startswith(("oracle.", "linalg.")))
    out["trace.traced_s"] = (traced_s / n, "s")
    out["trace.oracle_linalg_self_frac"] = (
        dense_self / traced_s if traced_s else 0.0, "frac")
    out["trace_overhead_frac"] = (
        traced_s / untraced_s - 1 if untraced_s else 0.0, "frac")
    largest = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:6]
    return out, [(name, a["self_s"] / n) for name, a in largest]


def print_table(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:44s} {shown:>14s} {unit}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "injcrit" / "__init__.py").is_file():
        print(f"error: no injcrit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    chunks = workloads.plan(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.tsv"
    if args.trace:
        spans_path.write_text("worker\titem\tspan\tparent\tname\tstart_s"
                              "\tdur_s\tnote\n", encoding="utf-8")
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        untraced.append(run_pass(args.workload, chunks, False, spans_path,
                                 len(untraced) * len(chunks)))
        if args.trace:
            traced.append(run_pass(args.workload, chunks, True, spans_path,
                                   len(traced) * len(chunks)))
        elapsed = time.monotonic() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break

    results = item_results(untraced + traced)
    failed = sum(not ok for _, ok in results)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(untraced)}  chunks/pass {len(chunks)}  "
          f"trace {args.trace}")
    metrics = end_to_end(untraced)
    print_table("end to end (untraced passes)", metrics)
    wanted = declared["end_to_end"]
    if args.trace:
        metrics, largest = per_layer(untraced, traced)
        print_table("per layer (traced passes, per pass)", metrics)
        print("largest self times per pass")
        for name, self_s in largest:
            print(f"  {name:44s} {self_s:14.6g} s")
        wanted = declared["per_layer"]
    report = {"correct": failed == 0, "attempted": len(results),
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
