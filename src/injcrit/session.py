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
from .modules import (GradedModule, ResolutionCapError, RingPresentation,
                      ZeroModuleError)
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


def _sop(session: Session, M: GradedModule):
    return find_regular_sop(M, seed=session.flags.seed)


# criterion id -> (argument names, runner(session, *modules)).  Every
# argument names one module, except "N", which names a list of them and
# defaults to every module.  Runners look their checker up in criteria
# at call time, so a wrapper installed there (bench/tracer.py) sees it.
CHECKS = {
    "L2.1": (("M",), lambda s, M: criteria.check_lemma_mult_length(
        M, _sop(s, M))),
    "L2.2": (("M", "C"), lambda s, M, C: criteria.check_regseq_transfer(
        M, C, _sop(s, M), degree_bound=s.flags.degree_bound,
        cap=s.flags.res_cap)),
    "L2.3": (("M", "C"), lambda s, M, C:
             criteria.check_finite_length_criterion(M, C,
                                                    cap=s.flags.res_cap)),
    "T2.4": (("C", "M"), lambda s, C, M: criteria.check_main_theorem(
        C, M, cap=s.flags.res_cap)),
    "T2.4-moreover": (("C", "M", "N"), lambda s, C, M, N:
                      criteria.check_moreover_clause(
                          C, M, N, degree_bound=s.flags.degree_bound,
                          cap=s.flags.res_cap)),
    "Claim": (("C", "M"), lambda s, C, M: criteria.check_claim_multiplicity(
        C, M, cap=s.flags.res_cap)),
    "C2.6": (("M",), lambda s, M: criteria.check_gorenstein_criterion(
        M, cap=s.flags.res_cap)),
    "C2.7": (("C",), lambda s, C: criteria.check_mcm_inequality(
        C, cap=s.flags.res_cap)),
    "C2.8": (("C",), lambda s, C: criteria.check_rank_criterion(
        C, cap=s.flags.res_cap)),
    "C2.9": (("C",), lambda s, C: criteria.check_self_ext_criterion(
        C, cap=s.flags.res_cap)),
    "Bass": (("C",), lambda s, C: criteria.verify_finite_injdim_bass(
        C, cap=s.flags.res_cap)),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_flags(doc, errors: list) -> SessionFlags:
    flags = SessionFlags()
    if not isinstance(doc, dict):
        errors.append("flags: expected an object")
        return flags
    for key, default in flags.to_dict().items():
        value = doc.get(key, default)
        if key == "domain" and not isinstance(value, bool):
            errors.append(f"flags.domain: expected true or false, "
                          f"got {value!r}")
        elif key != "domain" and not (_is_int(value) or key == "res_cap"
                                      and value is None):
            errors.append(f"flags.{key}: expected an integer, got {value!r}")
        else:
            setattr(flags, key, value)
    return flags


def _parse_modules(doc, ring: RingPresentation, errors: list) -> dict:
    if not isinstance(doc, dict):
        errors.append("modules: expected an object")
        return {}
    poly_ring = ring.poly_ring
    modules = {}
    for name, spec in doc.items():
        where = f"modules.{name}"
        if name in BUILTIN_MODULES:
            errors.append(f"{where}: name is reserved")
            continue
        if not isinstance(spec, dict):
            errors.append(f"{where}: expected an object")
            continue
        degrees = spec.get("degrees", [])
        if not isinstance(degrees, list) or not all(map(_is_int, degrees)):
            errors.append(f"{where}: degrees must be a list of integers")
            continue
        relations = spec.get("relations", [])
        if not isinstance(relations, list) or not all(
                isinstance(col, list) and all(isinstance(e, str)
                                              for e in col)
                for col in relations):
            errors.append(f"{where}.relations: expected a list of lists "
                          "of strings")
            continue
        cover = poly_ring.free_module(tuple(degrees))
        columns = []
        bad = False
        for ci, col in enumerate(relations):
            entries = []
            for ei in range(len(degrees)):
                s = col[ei] if ei < len(col) else "0"
                try:
                    entries.append(poly_ring.from_string(s))
                except ParseError as e:
                    errors.append(f"{where}.relations[{ci}][{ei}]: {e}")
                    bad = True
            if not bad:
                columns.append(cover.from_polys(entries))
        if bad:
            continue
        try:
            modules[name] = GradedModule(ring, tuple(degrees), columns,
                                         name=name)
        except ValueError as e:
            errors.append(f"{where}: {e}")
    return modules


def _parse_checks(doc, modules: dict, errors: list) -> list:
    if not isinstance(doc, list):
        errors.append("checks: expected a list")
        return []
    known = set(BUILTIN_MODULES) | set(modules)
    checks = []
    for ci, chk in enumerate(doc):
        where = f"checks[{ci}]"
        if not isinstance(chk, dict):
            errors.append(f"{where}: expected an object")
            continue
        cid = chk.get("id")
        if not isinstance(cid, str) or cid not in CHECKS:
            errors.append(f"{where}: unknown criterion id {cid!r}")
            continue
        entry = {"id": cid}
        for arg in CHECKS[cid][0]:
            many = arg == "N"
            val = chk.get(arg, sorted(modules) + ["R"] if many else None)
            names = val if many else [val]
            if not (isinstance(names, list)
                    and all(isinstance(nm, str) for nm in names)):
                errors.append(f"{where}: missing argument {arg!r}"
                              if val is None else
                              f"{where}: argument {arg!r} must be a "
                              + ("list of module names" if many
                                 else "module name"))
                continue
            for nm in names:
                if nm not in known:
                    errors.append(f"{where}: unknown module {nm!r}")
            entry[arg] = val
        checks.append(entry)
    return checks


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

    flags = _parse_flags(doc.get("flags", {}), errors)
    poly_ring = PolyRing(variables, p=char)
    ideal = []
    ideal_doc = doc.get("ideal", [])
    if not isinstance(ideal_doc, list):
        errors.append("ideal: expected a list of strings")
        ideal_doc = []
    for idx, s in enumerate(ideal_doc):
        if not isinstance(s, str):
            errors.append(f"ideal[{idx}]: expected a string, got {s!r}")
            continue
        try:
            f = poly_ring.from_string(s)
            if not f.is_zero() and not f.is_homogeneous():
                errors.append(f"ideal[{idx}]: inhomogeneous generator {s!r}")
            else:
                ideal.append(f)
        except ParseError as e:
            errors.append(f"ideal[{idx}]: {e}")
    # modules and checks are still parsed, over the valid generators only,
    # so that one SessionError lists every error of the document
    ring = RingPresentation(poly_ring, ideal, domain_flag=flags.domain)
    modules = _parse_modules(doc.get("modules", {}), ring, errors)
    checks = _parse_checks(doc.get("checks", []), modules, errors)
    if errors:
        raise SessionError(errors)
    return Session(ring, modules, flags, checks)


def run_check(session: Session, chk: dict) -> criteria.CriterionReport:
    cid = chk["id"]
    arg_names, runner = CHECKS[cid]
    inputs = {k: v for k, v in chk.items() if k != "id"}
    try:
        return runner(session, *(
            [session.resolve(nm) for nm in chk[a]] if a == "N"
            else session.resolve(chk[a]) for a in arg_names))
    except (UndecidedError, ResolutionCapError) as e:
        return criteria.CriterionReport(cid, inputs, [], "",
                                        undecided=[str(e)])
    except ZeroModuleError:
        # the zero module has no depth, type or parameter system: the
        # first zero argument fails its precondition
        for a in arg_names:
            if a != "N" and session.resolve(chk[a]).is_zero():
                return criteria.CriterionReport(
                    cid, inputs, [criteria.Hypothesis(f"{a} nonzero", "fail")],
                    "")
        raise


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
