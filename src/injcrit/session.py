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
import sys
from typing import Optional

from . import criteria
from .field import ORACLE_PRIME_LIMIT, PrimeField
from .groebner import MonomialLimitError
from .invariants import find_regular_sop, invariant_report
from .modules import GradedModule, RingPresentation, ZeroModuleError
from .parse import ParseError
from .poly import PolyRing

# each built-in module name and the ring method that builds the module
BUILTIN_MODULES = {"R": RingPresentation.as_module,
                   "k": RingPresentation.residue_field}
TOP_LEVEL_KEYS = ("char", "vars", "ideal", "modules", "flags", "checks")


class SessionError(ValueError):
    """Validation failure; collects all positioned messages."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


# each session flag and its value when the document leaves it out
DEFAULT_FLAGS = {"domain": False, "degree_bound": 10, "res_cap": None,
                 "seed": 1}


class Session:
    def __init__(self, ring: RingPresentation, modules: dict, flags: dict,
                 checks: list):
        self.ring = ring
        self.modules = modules
        self.flags = flags
        self.checks = checks

    def resolve(self, name: str) -> GradedModule:
        if name in BUILTIN_MODULES:
            M = BUILTIN_MODULES[name](self.ring)
            M.name = name
            return M
        if name in self.modules:
            return self.modules[name]
        raise SessionError([f"unknown module name {name!r}"])


# criterion id -> (argument names, runner(session, *modules)).  Every
# argument names one module, except "N", which names a list of them and
# defaults to every module.  Runners look their checker up in criteria
# at call time, so a wrapper installed there (bench/tracer.py) sees it.
CHECKS = {
    "L2.1": (("M",), lambda s, M: criteria.check_lemma_mult_length(
        M, find_regular_sop(M, s.flags["seed"]), s.flags["seed"])),
    "L2.2": (("M", "C"), lambda s, M, C: criteria.check_regseq_transfer(
        M, C, find_regular_sop(M, s.flags["seed"]))),
    "L2.3": (("M", "C"), lambda s, M, C:
             criteria.check_finite_length_criterion(M, C)),
    "T2.4": (("C", "M"), lambda s, C, M: criteria.check_main_theorem(C, M)),
    "T2.4-moreover": (("C", "M", "N"), lambda s, C, M, N:
                      criteria.check_moreover_clause(C, M, N)),
    "Claim": (("C", "M"), lambda s, C, M:
              criteria.check_claim_multiplicity(C, M)),
    "C2.6": (("M",), lambda s, M: criteria.check_gorenstein_criterion(M)),
    "C2.7": (("C",), lambda s, C: criteria.check_mcm_inequality(C)),
    "C2.8": (("C",), lambda s, C: criteria.check_rank_criterion(C)),
    "C2.9": (("C",), lambda s, C: criteria.check_self_ext_criterion(C)),
    "Bass": (("C",), lambda s, C: criteria.verify_finite_injdim_bass(C)),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _reject_unknown(doc: dict, allowed, where: str, errors: list):
    """Report each key of doc outside allowed, under where: a misspelled
    key would otherwise fall back to its default unseen."""
    errors.extend(f"{where}{key}: unknown key"
                  for key in doc if key not in allowed)


# Neither bound means anything below 0: degree_bound is the oracle's
# degree window, and res_cap counts the maps of a resolution over R.
NONNEGATIVE_FLAGS = ("degree_bound", "res_cap")


def _parse_flags(doc, overrides: dict, errors: list) -> dict:
    """The flags of doc, each key of overrides replacing its value; an
    invalid value keeps its default."""
    flags = dict(DEFAULT_FLAGS)
    if not isinstance(doc, dict):
        errors.append("flags: expected an object")
        return flags
    doc = {**doc, **overrides}
    _reject_unknown(doc, DEFAULT_FLAGS, "flags.", errors)
    for key, default in DEFAULT_FLAGS.items():
        value = doc.get(key, default)
        if key == "domain" and not isinstance(value, bool):
            errors.append(f"flags.domain: expected true or false, "
                          f"got {value!r}")
        elif key != "domain" and not (_is_int(value) or key == "res_cap"
                                      and value is None):
            errors.append(f"flags.{key}: expected an integer, got {value!r}")
        elif key in NONNEGATIVE_FLAGS and value is not None and value < 0:
            errors.append(f"flags.{key}: expected a non-negative integer, "
                          f"got {value}")
        else:
            flags[key] = value
    return flags


def _parse_modules(doc, ring: Optional[RingPresentation],
                   errors: list) -> dict:
    """Named modules of the session.  With no ring (the variables are
    invalid) only the shape of each spec is checked, and each name that
    passes maps to None, so that checks can still refer to it."""
    if not isinstance(doc, dict):
        errors.append("modules: expected an object")
        return {}
    modules = {}
    for name, spec in doc.items():
        where = f"modules.{name}"
        if name in BUILTIN_MODULES:
            errors.append(f"{where}: name is reserved")
            continue
        if not isinstance(spec, dict):
            errors.append(f"{where}: expected an object")
            continue
        _reject_unknown(spec, ("degrees", "relations"), f"{where}.", errors)
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
        columns = []
        bad = False
        for ci, col in enumerate(relations):
            if len(col) > len(degrees):
                errors.append(f"{where}.relations[{ci}]: {len(col)} entries "
                              f"for {len(degrees)} generators")
                bad = True
                continue
            if ring is None:
                continue  # the entries are polynomials in the variables
            entries = []
            for ei in range(len(degrees)):
                s = col[ei] if ei < len(col) else "0"
                try:
                    entries.append(ring.poly_ring.from_string(s))
                except ParseError as e:
                    errors.append(f"{where}.relations[{ci}][{ei}]: {e}")
                    bad = True
            columns.append(entries)
        if bad:
            continue
        if ring is None:
            modules[name] = None
            continue
        cover = ring.poly_ring.free_module(tuple(degrees))
        try:
            modules[name] = GradedModule(
                ring, tuple(degrees), [cover.from_polys(e) for e in columns],
                name=name)
        except (ValueError, MonomialLimitError) as e:
            # reducing the relations modulo the ideal can hit the limit
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
        _reject_unknown(chk, ("id",) + CHECKS[cid][0], f"{where}.", errors)
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


def parse_session(text: str, overrides: Optional[dict] = None) -> Session:
    """The session of a JSON document.  overrides maps flag names to
    values that replace the document's, before the ring takes them."""
    errors = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SessionError(
            [f"line {e.lineno}, column {e.colno}: {e.msg}"]) from None
    except RecursionError:
        raise SessionError(["arrays and objects nested too deeply"]) from None
    except ValueError:
        # the only other ValueError of json.loads: an integer literal
        # longer than the interpreter's int-to-string digit limit
        limit = sys.get_int_max_str_digits()
        raise SessionError(
            [f"an integer has more than {limit} digits"]) from None
    if not isinstance(doc, dict):
        raise SessionError(["top-level document must be an object"])
    _reject_unknown(doc, TOP_LEVEL_KEYS, "", errors)

    char = doc.get("char", 32003)
    try:
        if not _is_int(char):
            raise ValueError(f"expected an integer, got {char!r}")
        if char >= ORACLE_PRIME_LIMIT:
            raise ValueError(f"{char} is not below 2^31, the dense "
                             "oracle's int64 limit")
        PrimeField(char)
    except ValueError as e:
        errors.append(f"char: {e}")
        char = 32003
    flags = _parse_flags(doc.get("flags", {}), overrides or {}, errors)
    variables = doc.get("vars", [])
    poly_ring = None
    if (not isinstance(variables, list) or not variables
            or not all(isinstance(v, str) and v.isidentifier()
                       for v in variables)):
        errors.append("vars: expected a nonempty list of identifiers")
    elif len(set(variables)) != len(variables):
        errors.append("vars: duplicate variable names")
    else:
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
        if poly_ring is None:
            continue
        try:
            f = poly_ring.from_string(s)
            if not f.is_zero() and not f.is_homogeneous():
                errors.append(f"ideal[{idx}]: inhomogeneous generator {s!r}")
            else:
                ideal.append(f)
        except ParseError as e:
            errors.append(f"ideal[{idx}]: {e}")
    # modules and checks are still checked, over the valid generators only,
    # or without a ring when the variables are invalid, so that one
    # SessionError lists every error of the document
    ring = (None if poly_ring is None else
            RingPresentation(poly_ring, ideal, domain_flag=flags["domain"],
                             res_cap=flags["res_cap"]))
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
    except criteria.CAPPED as e:
        return criteria.CriterionReport(cid, "").unresolved(inputs, str(e))
    except ZeroModuleError:
        # the zero module has no depth, type or parameter system: the
        # first zero argument fails its precondition
        for a in arg_names:
            if a != "N" and session.resolve(chk[a]).is_zero():
                return criteria.CriterionReport(cid, "").failed(
                    inputs, f"{a} nonzero")
        raise


def run_session(session: Session, with_oracle: bool = False) -> dict:
    """Invariant reports for every named module plus one criterion report
    per requested check; deterministic given the seed."""
    invariants = []
    names = ["R"] + sorted(session.modules)
    for name in names:
        M = session.resolve(name)
        try:
            rep = invariant_report(name, M)
        except criteria.CAPPED as e:
            rep = {"module": name, "undecided": str(e)}
        invariants.append(rep)
    checks = [run_check(session, chk).to_dict() for chk in session.checks]
    out = {"flags": session.flags,
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
    from .oracle import (TruncationError, oracle_hilbert,
                         oracle_socle_dimension)
    out = []
    bound = max(session.flags["degree_bound"], 4)
    names = ["R"] + sorted(session.modules)
    for name in names:
        M = session.resolve(name)
        try:
            hilbert = oracle_hilbert(M, bound)
            out.append({"module": name,
                        "hilbert": {str(d): v
                                    for d, v in sorted(hilbert.items())},
                        "length": sum(hilbert.values()),
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
    for inv in report["invariants"]:
        if "undecided" in inv:
            lines.append(f"  {inv['module']}: undecided ({inv['undecided']})")
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
