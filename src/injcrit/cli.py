"""Command-line interface.

The grammar is fixed and small (see HELP), so `main` reads it with a
table-driven parser instead of argparse: a check call then pays only for
reading the session, the algebra and the output, not for building
parsers or importing argparse, gettext and locale.  Options come before
the verb and take their full names; `--name N` and `--name=N` are both
accepted, and when an option is repeated the last value wins.

Exit codes: 0 all decided, 2 undecided results present, 1 error,
a malformed command line included.
"""

from __future__ import annotations

import sys
from importlib import resources

from .session import (SessionError, emit_human, emit_json, has_undecided,
                      parse_session, run_session)

USAGE = ("usage: injcrit [--json] [--seed N] [--degree-bound N] "
         "[--res-cap N]\n"
         "               (invariants|check|oracle) FILE "
         "| corpus (list | run [NAME])\n")

HELP = USAGE + """
Graded invariants and finite-injective-dimension criteria over GF(p).

verbs:
  invariants FILE     numerical invariants of every named module
  check FILE          invariants plus all requested criterion checks
  oracle FILE         adds dense-linear-algebra debug values
  corpus list         names of the shipped example sessions
  corpus run [NAME]   run `check` over the shipped corpus

options (before the verb, as --name N or --name=N):
  --json              machine-readable canonical JSON output
  --seed N            override the session random seed
  --degree-bound N    override the session degree bound
  --res-cap N         override the session resolution cap
  -h, --help          print this help and exit

exit codes: 0 all decided, 2 undecided results present, 1 error
"""

# each option that takes an integer, and the session flag it replaces
INT_OPTIONS = {"--seed": "seed", "--degree-bound": "degree_bound",
               "--res-cap": "res_cap"}
# the verbs that read one session file: (include checks, with oracle)
FILE_VERBS = {"invariants": (False, False), "check": (True, False),
              "oracle": (True, True)}


class UsageError(Exception):
    """A command line outside the grammar in USAGE."""


def _parse_args(argv: list) -> tuple:
    """(as_json, overrides, verb, operands) of a command line without
    `-h`/`--help`; overrides maps session flag names to integers."""
    as_json, overrides = False, {}
    rest = list(argv)
    while rest and rest[0].startswith("-"):
        arg = rest.pop(0)
        if arg == "--json":
            as_json = True
            continue
        name, eq, value = arg.partition("=")
        if name not in INT_OPTIONS:
            raise UsageError(f"unrecognized option {arg}")
        if not eq:
            if not rest:
                raise UsageError(f"{name} expects a value")
            value = rest.pop(0)
        try:
            overrides[INT_OPTIONS[name]] = int(value)
        except ValueError:
            raise UsageError(
                f"{name}: invalid integer value {value!r}") from None
    if not rest:
        raise UsageError("missing verb")
    verb, operands = rest[0], rest[1:]
    if verb in FILE_VERBS:
        if not operands:
            raise UsageError(f"{verb} expects a FILE")
        extra = operands[1:]
    elif verb == "corpus":
        if not operands or operands[0] not in ("list", "run"):
            raise UsageError("corpus expects list or run")
        extra = operands[1:] if operands[0] == "list" else operands[2:]
    else:
        raise UsageError(f"unknown verb {verb!r}")
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return as_json, overrides, verb, operands


def _corpus_files():
    root = resources.files("injcrit") / "corpus"
    return sorted((entry.name[:-5], entry) for entry in root.iterdir()
                  if entry.name.endswith(".json"))


def _run_file(text: str, as_json: bool, overrides: dict,
              include_checks: bool, with_oracle: bool) -> int:
    # each option given on the command line replaces its session flag
    session = parse_session(text, overrides)
    if not include_checks:
        session.checks = []
    report = run_session(session, with_oracle=with_oracle)
    if as_json:
        sys.stdout.write(emit_json(report))
    else:
        sys.stdout.write(emit_human(report) + "\n")
    return 2 if has_undecided(report) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(HELP)
        return 0
    try:
        as_json, overrides, verb, operands = _parse_args(argv)
    except UsageError as e:
        sys.stderr.write(f"{USAGE}error: {e}\n")
        return 1

    try:
        if verb == "corpus":
            files = _corpus_files()
            if operands[0] == "list":
                for name, _ in files:
                    print(name)
                return 0
            if len(operands) == 2:
                files = [(n, e) for n, e in files if n == operands[1]]
                if not files:
                    print(f"unknown corpus entry {operands[1]!r}",
                          file=sys.stderr)
                    return 1
            code = 0
            for name, entry in files:
                print(f"# {name}", file=sys.stderr)
                code = max(code, _run_file(
                    entry.read_text(encoding="utf-8"), as_json, overrides,
                    include_checks=True, with_oracle=False))
            return code
        path = operands[0]
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as e:
                print(f"error: {path}: not UTF-8 text (byte {e.start}: "
                      f"{e.reason})", file=sys.stderr)
                return 1
        include_checks, with_oracle = FILE_VERBS[verb]
        return _run_file(text, as_json, overrides, include_checks,
                         with_oracle)
    except SessionError as e:
        for msg in e.errors:
            print(f"error: {msg}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
