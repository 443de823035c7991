"""The three workloads: what one pass runs and how each item is checked.

``plan(workload, seed)`` splits one pass into chunks; each chunk runs in
a fresh interpreter (``worker.py``), because a real ``injcrit check``
pays for import and starts with cold process-global caches.  Inside a
chunk, ``setup`` and ``prepare`` build inputs and references before the
first timed item, and ``run`` does one item's work and returns whether
its output matched the reference.  injcrit is imported only in
``setup``, so planning needs nothing but this directory.
"""

import contextlib
import io
import random
from pathlib import Path

import dense

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "src" / "injcrit" / "corpus"
GOLDEN = BENCH / "golden"

BATTERY_SIZE = 200      # seeds 1-200, as in tests/test_acceptance.py
BATTERY_SHIFTS = 16     # the run seed shifts that range by seed % 16
BATTERY_CHUNK = 25      # instances per interpreter
BATTERY_BOUND = 16
BATTERY_EXT_MAX = 3


def session_files():
    """(name, path) of the shipped corpus and the benchmark's sessions."""
    files = [(p.stem, p) for p in CORPUS.glob("*.json")]
    files += [(p.stem, p) for p in (BENCH / "sessions").glob("*.json")]
    return sorted(files)


def plan(workload, seed):
    """The chunks of one pass; each item is a JSON-ready dict with an id."""
    if workload == "sessions_check":
        files = session_files()
        random.Random(f"sessions_check:{seed}").shuffle(files)
        return [[{"id": name, "path": str(path)}] for name, path in files]
    if workload == "artinian_battery":
        # shifts above 16 swap 1.2 s instances in and out of the range
        # and move the pass time by 3%; the 2-6 s instances stay inside
        first = 1 + seed % BATTERY_SHIFTS
        seeds = list(range(first, first + BATTERY_SIZE))
        return [[{"id": s} for s in seeds[i:i + BATTERY_CHUNK]]
                for i in range(0, len(seeds), BATTERY_CHUNK)]
    if workload == "oracle_dense":
        return [[dict(spec, id=i)
                 for i, spec in enumerate(dense.ring_specs(seed))]]
    raise ValueError(f"unknown workload {workload!r}")


class SessionsCheck:
    """``injcrit --json check <session>``, compared byte for byte with
    the golden output captured by ``make_golden.py``."""

    def setup(self):
        from injcrit import cli
        self.cli = cli

    def prepare(self, item):
        return {"path": item["path"],
                "golden": (GOLDEN / f"{item['id']}.json").read_bytes()}

    def output(self, path):
        """(exit code, stdout bytes) of one CLI call."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["--json", "check", path])
        return code, buf.getvalue().encode("utf-8")

    def run(self, prep):
        code, out = self.output(prep["path"])
        return code == 0 and out == prep["golden"]


class ArtinianBattery:
    """The engine against the oracle on one random artinian instance,
    exactly as ``test_acceptance_1_oracle_equivalence`` checks it."""

    def setup(self):
        from injcrit import invariants, modules, oracle
        from artinian import random_artinian_instance
        self.inv, self.mod, self.orc = invariants, modules, oracle
        self.instance = random_artinian_instance

    def prepare(self, item):
        return item["id"]

    def run(self, seed):
        inv, orc, bound = self.inv, self.orc, BATTERY_BOUND
        ring, M = self.instance(seed)
        R = ring.as_module()
        if orc.oracle_hilbert(M, bound=bound) != \
                inv.hilbert_series(M).coefficients(bound):
            return False
        socle = inv.socle_dimension(M)
        if (orc.oracle_length(M, bound=bound) != inv.length(M)
                or orc.oracle_socle_dimension(M, bound=bound) != socle
                or inv.type_of(M) != socle):
            return False
        dims = orc.oracle_ext_dims(M, R, i_max=BATTERY_EXT_MAX, bound=bound)
        for i in range(BATTERY_EXT_MAX + 1):
            engine = inv.hilbert_series(self.mod.ext(M, R, i)).coefficients(6)
            if engine != {d: c for d, c in dims[i].items() if d <= 6}:
                return False
        return True


class OracleDense:
    """The dense oracle on one artinian complete intersection, checked
    against the closed forms of ``dense.references``."""

    def setup(self):
        from injcrit import modules, oracle, poly
        self.mod, self.orc, self.poly = modules, oracle, poly

    def prepare(self, item):
        return {"spec": item, "ref": dense.references(item)}

    def values(self, spec):
        """The oracle's values, keyed like ``dense.references``."""
        orc = self.orc
        n = len(spec["degrees"])
        S = self.poly.PolyRing([f"x{i}" for i in range(n)], p=dense.PRIME)
        ring = self.mod.RingPresentation(
            S, [S.linear_form(row) ** d
                for row, d in zip(spec["forms"], spec["degrees"])])
        R, k = ring.as_module(), ring.residue_field()
        i_max = dense.EXT_I_MAX
        return {
            "hilbert": orc.oracle_hilbert(R),
            "socle": orc.oracle_socle_dimension(R),
            "ext_k_k": [sum(e.values())
                        for e in orc.oracle_ext_dims(k, k, i_max)],
            "ext_k_R": [sum(e.values())
                        for e in orc.oracle_ext_dims(k, R, i_max)],
            "dual_hilbert": orc.oracle_hilbert(orc.matlis_dual(R)),
        }

    def run(self, prep):
        return self.values(prep["spec"]) == prep["ref"]


WORKLOADS = {"sessions_check": SessionsCheck,
             "artinian_battery": ArtinianBattery,
             "oracle_dense": OracleDense}
