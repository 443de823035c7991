"""Command-line interface.

Verbs:
  invariants <file>   numerical invariants of every named module
  check <file>        invariants plus all requested criterion checks
  oracle <file>       adds dense-linear-algebra debug values
  corpus list         names of the shipped example sessions
  corpus run [name]   run `check` over the shipped corpus

Exit codes: 0 all decided, 2 undecided results present, 1 error.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .session import (SessionError, emit_report, has_undecided,
                      parse_session, run_session)


def _corpus_files():
    root = resources.files("injcrit") / "corpus"
    return sorted((entry.name[:-5], entry) for entry in root.iterdir()
                  if entry.name.endswith(".json"))


def _run_file(text: str, args, include_checks: bool,
              with_oracle: bool) -> int:
    # each option given on the command line replaces its session flag
    session = parse_session(text, {
        key: getattr(args, key) for key in ("seed", "degree_bound", "res_cap")
        if getattr(args, key) is not None})
    if not include_checks:
        session.checks = []
    report = run_session(session, with_oracle=with_oracle)
    sys.stdout.write(emit_report(report, "json" if args.json else "human"))
    if not args.json:
        sys.stdout.write("\n")
    return 2 if has_undecided(report) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="injcrit",
        description="Graded invariants and finite-injective-dimension "
                    "criteria over GF(p).")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable canonical JSON output")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the session random seed")
    parser.add_argument("--degree-bound", type=int, default=None,
                        help="override the session degree bound")
    parser.add_argument("--res-cap", type=int, default=None,
                        help="override the session resolution cap")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, help_text in (("invariants", "numerical invariants only"),
                            ("check", "invariants and criterion checks"),
                            ("oracle", "adds dense linear-algebra values")):
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("file")
    spc = sub.add_parser("corpus", help="shipped example sessions")
    spc.add_argument("action", choices=["list", "run"])
    spc.add_argument("name", nargs="?", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "corpus":
            files = _corpus_files()
            if args.action == "list":
                for name, _ in files:
                    print(name)
                return 0
            if args.name is not None:
                files = [(n, e) for n, e in files if n == args.name]
                if not files:
                    print(f"unknown corpus entry {args.name!r}",
                          file=sys.stderr)
                    return 1
            code = 0
            for name, entry in files:
                print(f"# {name}", file=sys.stderr)
                code = max(code, _run_file(entry.read_text(), args,
                                           include_checks=True,
                                           with_oracle=False))
            return code
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        return _run_file(text, args,
                         include_checks=args.command != "invariants",
                         with_oracle=args.command == "oracle")
    except SessionError as e:
        for msg in e.errors:
            print(f"error: {msg}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
