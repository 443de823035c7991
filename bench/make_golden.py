"""Capture the golden ``--json check`` output of every benchmark session.

Run from the root of a checkout: ``python3 bench/make_golden.py``.  The
sessions_check workload fails any item whose output differs from these
files by one byte, so rerun this only for a change that is meant to
alter the canonical output, and say so in that change.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main():
    wl = workloads.SessionsCheck()
    wl.setup()
    workloads.GOLDEN.mkdir(exist_ok=True)
    for name, path in workloads.session_files():
        code, out = wl.output(str(path))
        if code != 0:
            print(f"{name}: exit code {code}, not captured", file=sys.stderr)
            return 1
        (workloads.GOLDEN / f"{name}.json").write_bytes(out)
        print(f"{name}: {len(out)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
