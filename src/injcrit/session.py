"""Session documents: a JSON input format tying rings, modules, and
requested criterion checks together, plus the runner that produces
deterministic reports.

A session declares the characteristic, the variables, the ideal, named
module presentations, flags (domain, degree bound, resolution cap,
seed), and a list of checks by criterion id.  The names "R" and "k"
are built in and always denote the ring as a module over itself and
the residue field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import criteria
from .field import ORACLE_PRIME_LIMIT, PrimeField
from .invariants import (UndecidedError, find_regular_sop, invariant_report)
from .modules import (GradedModule, ResolutionCapError, RingPresentation)
from .parse import ParseError
from .poly import PolyRing

BUILTIN_MODULES = ("R", "k")


class SessionError(ValueError):
    """Validation failure; collects all positioned messages."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class SessionFlags:
    domain: bool = False
    degree_bound: int = 10
    res_cap: Optional[int] = None
    seed: int = 1

    def to_dict(self) -> dict:
        return {"domain": self.domain, "degree_bound": self.degree_bound,
                "res_cap": self.res_cap, "seed": self.seed}


@dataclass
class Session:
    ring: RingPresentation
    modules: dict
    flags: SessionFlags
    checks: list = field(default_factory=list)

    def resolve(self, name: str) -> GradedModule:
        if name == "R":
            M = self.ring.as_module()
            M.name = "R"
            return M
        if name == "k":
            M = self.ring.residue_field()
            M.name = "k"
            return M
        if name in self.modules:
            return self.modules[name]
        raise SessionError([f"unknown module name {name!r}"])


_CHECK_ARGS = {
    "L2.1": ("M",),
    "L2.2": ("M", "C"),
    "L2.3": ("M", "C"),
    "T2.4": ("C", "M"),
    "T2.4-moreover": ("C", "M"),
    "Claim": ("C", "M"),
    "C2.6": ("M",),
    "C2.7": ("C",),
    "C2.8": ("C",),
    "C2.9": ("C",),
    "Bass": ("C",),
}


def parse_session(text: str) -> Session:
    errors = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SessionError(
            [f"line {e.lineno}, column {e.colno}: {e.msg}"]) from None
    if not isinstance(doc, dict):
        raise SessionError(["top-level document must be an object"])

    char = doc.get("char", 32003)
    try:
        if char >= ORACLE_PRIME_LIMIT:
            raise ValueError(f"{char} is not below 2^31, the dense "
                             "oracle's int64 limit")
        PrimeField(char)
    except (ValueError, TypeError) as e:
        errors.append(f"char: {e}")
        char = 32003
    variables = doc.get("vars", [])
    if (not isinstance(variables, list) or not variables
            or not all(isinstance(v, str) and v.isidentifier()
                       for v in variables)):
        errors.append("vars: expected a nonempty list of identifiers")
        raise SessionError(errors)
    if len(set(variables)) != len(variables):
        errors.append("vars: duplicate variable names")
        raise SessionError(errors)

    flags_doc = doc.get("flags", {})
    flags = SessionFlags(
        domain=bool(flags_doc.get("domain", False)),
        degree_bound=int(flags_doc.get("degree_bound", 10)),
        res_cap=(int(flags_doc["res_cap"])
                 if flags_doc.get("res_cap") is not None else None),
        seed=int(flags_doc.get("seed", 1)))

    poly_ring = PolyRing(variables, p=char)
    ideal = []
    for idx, s in enumerate(doc.get("ideal", [])):
        try:
            f = poly_ring.from_string(s)
            if not f.is_zero() and not f.is_homogeneous():
                errors.append(f"ideal[{idx}]: inhomogeneous generator {s!r}")
            else:
                ideal.append(f)
        except ParseError as e:
            errors.append(f"ideal[{idx}]: {e}")
    if errors:
        raise SessionError(errors)
    ring = RingPresentation(poly_ring, ideal, domain_flag=flags.domain)

    modules = {}
    for name, spec in doc.get("modules", {}).items():
        if name in BUILTIN_MODULES:
            errors.append(f"modules.{name}: name is reserved")
            continue
        degrees = spec.get("degrees", [])
        if not all(isinstance(d, int) for d in degrees):
            errors.append(f"modules.{name}: degrees must be integers")
            continue
        cover = poly_ring.free_module(tuple(degrees))
        columns = []
        bad = False
        for ci, col in enumerate(spec.get("relations", [])):
            entries = []
            for ei in range(len(degrees)):
                s = col[ei] if ei < len(col) else "0"
                try:
                    entries.append(poly_ring.from_string(s))
                except ParseError as e:
                    errors.append(f"modules.{name}.relations[{ci}][{ei}]: {e}")
                    bad = True
            if not bad:
                columns.append(cover.from_polys(entries))
        if bad:
            continue
        try:
            modules[name] = GradedModule(ring, tuple(degrees), columns,
                                         name=name)
        except ValueError as e:
            errors.append(f"modules.{name}: {e}")

    checks = []
    for ci, chk in enumerate(doc.get("checks", [])):
        cid = chk.get("id")
        if cid not in _CHECK_ARGS:
            errors.append(f"checks[{ci}]: unknown criterion id {cid!r}")
            continue
        entry = {"id": cid}
        for arg in _CHECK_ARGS[cid]:
            val = chk.get(arg)
            if not isinstance(val, str):
                errors.append(f"checks[{ci}]: missing argument {arg!r}")
                continue
            if val not in BUILTIN_MODULES and val not in modules:
                errors.append(f"checks[{ci}]: unknown module {val!r}")
                continue
            entry[arg] = val
        if cid == "T2.4-moreover":
            entry["N"] = list(chk.get("N", sorted(modules) + ["R"]))
            for nm in entry["N"]:
                if nm not in BUILTIN_MODULES and nm not in modules:
                    errors.append(f"checks[{ci}]: unknown module {nm!r}")
        if len(entry) >= 1 + len(_CHECK_ARGS[cid]):
            checks.append(entry)
    if errors:
        raise SessionError(errors)
    return Session(ring, modules, flags, checks)


def _undecided_report(cid: str, inputs: dict, reason: str):
    return criteria.CriterionReport(cid, inputs, [], "",
                                    undecided=[reason])


def run_check(session: Session, chk: dict) -> criteria.CriterionReport:
    cid = chk["id"]
    flags = session.flags
    cap = flags.res_cap
    try:
        if cid in ("L2.1", "L2.2"):
            M = session.resolve(chk["M"])
            cert = find_regular_sop(M, seed=flags.seed)
            if cid == "L2.1":
                return criteria.check_lemma_mult_length(M, cert)
            return criteria.check_regseq_transfer(
                M, session.resolve(chk["C"]), cert,
                degree_bound=flags.degree_bound, cap=cap)
        if cid == "L2.3":
            return criteria.check_finite_length_criterion(
                session.resolve(chk["M"]), session.resolve(chk["C"]),
                cap=cap)
        if cid == "T2.4":
            return criteria.check_main_theorem(
                session.resolve(chk["C"]), session.resolve(chk["M"]),
                cap=cap)
        if cid == "T2.4-moreover":
            others = [session.resolve(n) for n in chk["N"]]
            return criteria.check_moreover_clause(
                session.resolve(chk["C"]), session.resolve(chk["M"]),
                others, degree_bound=flags.degree_bound, cap=cap)
        if cid == "Claim":
            return criteria.check_claim_multiplicity(
                session.resolve(chk["C"]), session.resolve(chk["M"]),
                cap=cap)
        if cid == "C2.6":
            return criteria.check_gorenstein_criterion(
                session.resolve(chk["M"]), cap=cap)
        if cid == "C2.7":
            return criteria.check_mcm_inequality(session.resolve(chk["C"]),
                                                 cap=cap)
        if cid == "C2.8":
            return criteria.check_rank_criterion(session.resolve(chk["C"]),
                                                 cap=cap)
        if cid == "C2.9":
            return criteria.check_self_ext_criterion(
                session.resolve(chk["C"]), cap=cap)
        if cid == "Bass":
            return criteria.verify_finite_injdim_bass(
                session.resolve(chk["C"]), cap=cap)
    except (UndecidedError, ResolutionCapError) as e:
        return _undecided_report(cid, {k: v for k, v in chk.items()
                                       if k != "id"}, str(e))
    raise SessionError([f"unhandled criterion id {cid!r}"])


def run_session(session: Session, with_oracle: bool = False) -> dict:
    """Invariant reports for every named module plus one criterion report
    per requested check; deterministic given the seed."""
    invariants = []
    names = ["R"] + sorted(session.modules)
    for name in names:
        M = session.resolve(name)
        try:
            rep = invariant_report(
                name, M, with_rank=session.ring.domain_flag,
                cap=session.flags.res_cap).to_dict()
        except (UndecidedError, ResolutionCapError) as e:
            rep = {"module": name, "undecided": str(e)}
        invariants.append(rep)
    checks = [run_check(session, chk).to_dict() for chk in session.checks]
    out = {"flags": session.flags.to_dict(),
           "ring": {"char": session.ring.poly_ring.p,
                    "vars": list(session.ring.poly_ring.variables),
                    "ideal": [str(g) for g in session.ring.ideal_gens]},
           "invariants": invariants,
           "checks": checks}
    if with_oracle:
        out["oracle"] = run_oracle(session)
    return out


def run_oracle(session: Session) -> list:
    """Dense-linear-algebra values for each finite-length named module."""
    from .oracle import (TruncationError, oracle_hilbert, oracle_length,
                         oracle_socle_dimension)
    out = []
    bound = max(session.flags.degree_bound, 4)
    names = ["R"] + sorted(session.modules)
    for name in names:
        M = session.resolve(name)
        try:
            out.append({"module": name,
                        "hilbert": {str(d): v for d, v in
                                    sorted(oracle_hilbert(M, bound).items())},
                        "length": oracle_length(M, bound),
                        "socle": oracle_socle_dimension(M, bound)})
        except TruncationError as e:
            out.append({"module": name, "truncated": str(e)})
    return out


# ---------------------------------------------------------------------------
# serialization

def emit_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ": "),
                      indent=1)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def emit_human(report: dict) -> str:
    lines = []
    ring = report["ring"]
    ideal = ", ".join(ring["ideal"]) or "0"
    lines.append(f"ring: GF({ring['char']})[{','.join(ring['vars'])}] "
                 f"/ ({ideal})")
    lines.append("")
    lines.append("invariants:")
    cols = ("module", "dim", "depth", "e", "length", "type", "is_cm", "rank")
    rows = []
    for inv in report["invariants"]:
        rows.append([_fmt(inv.get(c, "-")) if inv.get(c) is not None
                     else "-" for c in cols])
    widths = [max(len(c), *(len(r[i]) for r in rows)) if rows else len(c)
              for i, c in enumerate(cols)]
    lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in rows:
        lines.append("  " + "  ".join(v.ljust(w) for v, w in zip(r, widths)))
    if report.get("checks"):
        lines.append("")
        lines.append("checks:")
        for chk in report["checks"]:
            args = ", ".join(f"{k}={v}" for k, v in
                             sorted(chk["inputs"].items())
                             if isinstance(v, str))
            lines.append(f"  {chk['criterion']}({args}): {chk['verdict']}")
            for h in chk["hypotheses"]:
                lines.append(f"    - {h['name']}: {h['status']}")
            if chk["verification"].get("status") != "skipped":
                lines.append("    verification: "
                             f"{chk['verification']['status']} "
                             f"({chk['verification'].get('method', '')})")
            for reason in chk.get("undecided", ()):
                lines.append(f"    undecided: {reason}")
    if report.get("oracle"):
        lines.append("")
        lines.append("oracle:")
        for o in report["oracle"]:
            if "truncated" in o:
                lines.append(f"  {o['module']}: truncated ({o['truncated']})")
            else:
                lines.append(f"  {o['module']}: length {o['length']}, "
                             f"socle {o['socle']}, hilbert {o['hilbert']}")
    return "\n".join(lines) + "\n"


def emit_report(report: dict, fmt: str = "human") -> str:
    if fmt == "json":
        return emit_json(report)
    return emit_human(report)


def has_undecided(report: dict) -> bool:
    for inv in report.get("invariants", ()):
        if "undecided" in inv:
            return True
    for chk in report.get("checks", ()):
        if chk.get("verdict") == "undecided":
            return True
    for o in report.get("oracle", ()):
        if "truncated" in o:
            return True
    return False
