"""Run one chunk of a workload in this fresh interpreter.

Usage: worker.py '<json spec>'.  The spec names the workload, its items,
whether to trace, the monotonic time at which the parent launched this
process, and (when tracing) the file the spans are appended to.  The
last line of standard output is one JSON object: set-up seconds, one
[seconds, ok] pair per item, ru_maxrss and, when tracing, the
aggregated spans and counters.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_items(workload, prepared, tracer=None, labels=None):
    """[[seconds, ok], ...] for each prepared item, in order.

    An item that raises or exits counts as not ok; the traceback goes to
    standard error and the chunk goes on.
    """
    results = []
    for k, prep in enumerate(prepared):
        span = tracer.begin_item(labels[k] if labels else k) if tracer else None
        t0 = time.perf_counter()
        try:
            ok = bool(workload.run(prep))
        except (Exception, SystemExit):
            traceback.print_exc()
            ok = False
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_item(span)
        results.append([seconds, ok])
    return results


def main(spec):
    workload = workloads.WORKLOADS[spec["workload"]]()
    workload.setup()
    prepared = [workload.prepare(item) for item in spec["items"]]
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    setup_s = time.monotonic() - spec["launched"]
    labels = [item["id"] for item in spec["items"]]
    out = {"setup_s": setup_s,
           "items": run_items(workload, prepared, tracer, labels)}
    if tracer is not None:
        tracer.uninstall()
        with open(spec["spans_path"], "a", encoding="utf-8") as fh:
            tracer.write_spans(fh, spec["worker"])
        out["trace"] = tracer.aggregate()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
