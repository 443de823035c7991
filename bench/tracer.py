"""Span tracing of injcrit from outside, by rebinding its functions.

Every traced function is replaced by a wrapper wherever it is bound:
methods on their class, module functions under every name that refers
to them in any loaded module (``buchberger`` is imported by name into
``modules`` and ``invariants``, ``rref`` into ``oracle``).  The wrapper
records a span: name, start, end, parent span and item id.  Spans stay
in memory until ``write_spans`` and ``aggregate`` run after the timed
items.  ``MonomialOrder.key`` runs millions of times per pass, so it is
counted, not timed.
"""

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, qualified name) of every function that gets a span
TIMED = [
    ("groebner", "GBuilder.reduced_basis"),
    ("groebner", "GBuilder.normal_form"),
    ("groebner", "GBuilder.complete"),
    ("groebner", "buchberger"),
    ("groebner", "MembershipTester.__init__"),
    ("modules", "syzygies_over"),
    ("modules", "minimal_generators"),
    ("modules", "kernel_of_cokernel_map"),
    ("modules", "minimalize_presentation"),
    ("modules", "ext"),
    ("invariants", "hilbert_series"),
    ("invariants", "depth"),
    ("invariants", "type_of"),
    ("invariants", "socle_dimension"),
    ("invariants", "rank"),
    ("invariants", "find_regular_sop"),
    ("session", "parse_session"),
    ("session", "run_session"),
    ("session", "emit_json"),
    ("parse", "parse_polynomial"),
    ("oracle", "oracle_ext_dims"),
    ("oracle", "oracle_hilbert"),
    ("oracle", "oracle_socle_dimension"),
    ("oracle", "matlis_dual"),
    ("linalg", "rref"),
    ("linalg", "nullspace"),
]
COUNTED = [("poly", "MonomialOrder.key")]
CRITERIA_PREFIXES = ("check_", "verify_")

ITEM = "item"
NF = "groebner.GBuilder.normal_form"
COMPLETE = "groebner.GBuilder.complete"
RREF = "linalg.rref"


def _span_name(module, qualname):
    if qualname.endswith(".__init__"):
        qualname = qualname[:-len(".__init__")]
    return f"{module}.{qualname}"


def _probe(name):
    """What a span records beside its times, from (args, result)."""
    if name == NF:
        return lambda args, result: result.is_zero()
    if name == RREF:
        return lambda args, result: int(args[0].shape[0] * args[0].shape[1])
    return None


class Tracer:
    """Spans and counters of one interpreter, kept in parallel lists."""

    def __init__(self):
        self.name, self.parent, self.item = [], [], []
        self.start, self.end, self.outer, self.note = [], [], [], []
        self.stack = []
        self.active = defaultdict(int)
        self.counts = {}
        self.item_id = -1
        self._bindings = []

    # -- spans -------------------------------------------------------------
    def _open(self, name):
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.outer.append(self.active[name] == 0)
        self.note.append(None)
        self.end.append(0.0)
        self.active[name] += 1
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()
        self.active[self.name[idx]] -= 1

    def begin_item(self, item_id):
        self.item_id = item_id
        return self._open(ITEM)

    def end_item(self, idx):
        self._close(idx)

    # -- installation ------------------------------------------------------
    def _timed(self, fn, name):
        probe = _probe(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if probe is not None:
                tracer.note[idx] = probe(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _resolution_steps(self, fn):
        cell = self.counts.setdefault("modules.resolution_steps", [0])

        def wrapper(res, *args, **kwargs):
            before = res.num_diffs
            try:
                return fn(res, *args, **kwargs)
            finally:
                cell[0] += res.num_diffs - before
        wrapper.__wrapped__ = fn
        return wrapper

    def _bind(self, module, qualname, make):
        mod = importlib.import_module(f"injcrit.{module}")
        owner_path, _, attr = qualname.rpartition(".")
        if owner_path:
            owner = mod
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            self._bindings.append((owner, attr, orig))
            setattr(owner, attr, make(orig))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        # rebind every alias, including names imported into other modules
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is orig:
                    self._bindings.append((other, key, orig))
                    setattr(other, key, wrapper)

    def install(self):
        """Wrap every traced function of the already importable injcrit."""
        for module, qualname in TIMED:
            name = _span_name(module, qualname)
            self._bind(module, qualname, lambda f, n=name: self._timed(f, n))
        criteria = importlib.import_module("injcrit.criteria")
        for attr, value in sorted(vars(criteria).items()):
            if (attr.startswith(CRITERIA_PREFIXES) and callable(value)
                    and getattr(value, "__module__", "") == criteria.__name__):
                name = f"criteria.{attr}"
                self._bind("criteria", attr,
                           lambda f, n=name: self._timed(f, n))
        for module, qualname in COUNTED:
            name = _span_name(module, qualname) + ".calls"
            self._bind(module, qualname, lambda f, n=name: self._counted(f, n))
        self._bind("modules", "FreeResolution.extend_to",
                   self._resolution_steps)

    def uninstall(self):
        for owner, attr, orig in reversed(self._bindings):
            setattr(owner, attr, orig)
        self._bindings.clear()

    # -- output ------------------------------------------------------------
    def aggregate(self):
        """Per span name: calls, self_s, incl_s; plus the work counters.

        Self time is a span's duration minus that of its child spans;
        inclusive time sums only spans not nested in one of the same name.
        """
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = {}
        spairs = spairs_zero = cells = 0
        for i in range(n):
            name = self.name[i]
            dur = self.end[i] - self.start[i]
            agg = spans.get(name)
            if agg is None:
                agg = spans[name] = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
            agg["calls"] += 1
            agg["self_s"] += dur - child[i]
            if self.outer[i]:
                agg["incl_s"] += dur
            if name == NF and self.parent[i] >= 0 \
                    and self.name[self.parent[i]] == COMPLETE:
                spairs += 1
                spairs_zero += bool(self.note[i])
            elif name == RREF:
                cells += self.note[i] or 0
        counters = {name: cell[0] for name, cell in self.counts.items()}
        counters["groebner.spairs"] = spairs
        counters["groebner.spairs_zero"] = spairs_zero
        counters["linalg.rref.cells"] = cells
        return {"spans": spans, "counters": counters}

    def write_spans(self, fh, worker):
        """Append one tab-separated line per span to an open text file."""
        t0 = self.start[0] if self.start else 0.0
        for i in range(len(self.name)):
            note = self.note[i]
            fh.write(f"{worker}\t{self.item[i]}\t{i}\t{self.parent[i]}\t"
                     f"{self.name[i]}\t{self.start[i] - t0:.9f}\t"
                     f"{self.end[i] - self.start[i]:.9f}\t"
                     f"{'' if note is None else int(note)}\n")
