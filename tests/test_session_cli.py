"""Session files, JSON reports, and the command-line entry point."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from injcrit.cli import main
from injcrit.groebner import MonomialLimitError
from injcrit.session import (SessionError, emit_json, has_undecided,
                             parse_session, run_session)


GOOD = json.dumps({
    "vars": ["x", "y"],
    "ideal": ["x*y"],
    "modules": {"A": {"degrees": [0], "relations": [["x"]]}},
    "checks": [{"id": "C2.6", "M": "A"},
               {"id": "T2.4", "C": "R", "M": "A"},
               {"id": "Bass", "C": "R"}],
})


def test_parse_good_session():
    s = parse_session(GOOD)
    assert sorted(s.modules) == ["A"]
    assert len(s.checks) == 3
    assert s.ring.poly_ring.p == 32003


def test_parse_reports_positioned_ideal_error():
    with pytest.raises(SessionError) as info:
        parse_session(json.dumps({"vars": ["x", "y"], "ideal": ["x*z"]}))
    msg = str(info.value)
    assert "ideal[0]" in msg and "'z'" in msg and "column" in msg


def test_parse_reports_all_module_and_check_errors():
    bad = json.dumps({
        "vars": ["x", "y"],
        "ideal": ["x*y"],
        "modules": {"R": {"degrees": [0]},
                    "B": {"degrees": [0], "relations": [["x +"]]}},
        "checks": [{"id": "nope"}, {"id": "T2.4", "C": "R", "M": "missing"}],
    })
    with pytest.raises(SessionError) as info:
        parse_session(bad)
    msg = str(info.value)
    assert "modules.R" in msg and "reserved" in msg
    assert "modules.B.relations[0][0]" in msg
    assert "unknown criterion id" in msg
    assert "unknown module 'missing'" in msg


def test_parse_bounds_char_by_the_oracle_limit():
    doc = json.loads(GOOD)
    doc["char"] = 2 ** 31 - 1  # the largest prime below the limit
    assert parse_session(json.dumps(doc)).ring.poly_ring.p == 2 ** 31 - 1
    doc["char"] = 4294967311
    with pytest.raises(SessionError) as info:
        parse_session(json.dumps(doc))
    assert info.value.errors == [
        "char: 4294967311 is not below 2^31, the dense oracle's int64 limit"]


@pytest.mark.parametrize("patch,message", [
    ({"modules": {"A": "oops"}}, "modules.A: expected an object"),
    ({"modules": []}, "modules: expected an object"),
    ({"modules": {"A": {"degrees": [0], "relations": "xy"}}},
     "modules.A.relations: expected a list of lists of strings"),
    ({"modules": {"A": {"degrees": 0}}},
     "modules.A: degrees must be a list of integers"),
    ({"checks": ["Bass"]}, "checks[0]: expected an object"),
    ({"checks": {"id": "Bass"}}, "checks: expected a list"),
    ({"checks": [{"id": ["Bass"]}]}, "checks[0]: unknown criterion id"),
    ({"checks": [{"id": "T2.4-moreover", "C": "R", "M": "R", "N": "AR"}]},
     "checks[0]: argument 'N' must be a list of module names"),
    ({"checks": [{"id": "Bass", "C": 3}]},
     "checks[0]: argument 'C' must be a module name"),
    ({"flags": [1]}, "flags: expected an object"),
    ({"flags": {"degree_bound": "ten"}},
     "flags.degree_bound: expected an integer, got 'ten'"),
    ({"flags": {"domain": "false"}},
     "flags.domain: expected true or false, got 'false'"),
    ({"ideal": "xy"}, "ideal: expected a list of strings"),
    ({"ideal": [7]}, "ideal[0]: expected a string, got 7"),
    ({"modules": {"A": {"degrees": [0], "relations": [["x", "y"]]}}},
     "modules.A.relations[0]: 2 entries for 1 generators"),
    ({"char": 3.0}, "char: expected an integer, got 3.0"),
    ({"char": "7"}, "char: expected an integer, got '7'"),
    ({"char": None}, "char: expected an integer, got None"),
    ({"char": [2]}, "char: expected an integer, got [2]"),
    ({"check": [{"id": "Bass", "C": "R"}]}, "check: unknown key"),
    ({"flags": {"degre_bound": 3}}, "flags.degre_bound: unknown key"),
    ({"modules": {"A": {"degrees": [0], "degree": [1]}}},
     "modules.A.degree: unknown key"),
    ({"checks": [{"id": "Bass", "C": "R", "m": "A"}]},
     "checks[0].m: unknown key"),
])
def test_parse_rejects_mistyped_fields(patch, message, tmp_path, capsys):
    doc = dict(json.loads(GOOD), **patch)
    with pytest.raises(SessionError) as info:
        parse_session(json.dumps(doc))
    assert any(e.startswith(message) for e in info.value.errors)
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    assert main(["check", str(f)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


REGULAR_PLANE = (resources.files("injcrit") / "corpus"
                 / "regular_plane.json").read_text()


@pytest.mark.parametrize("key", ["degree_bound", "res_cap"])
def test_parse_rejects_negative_bounds(key):
    """A negative bound is rejected: degree_bound is the oracle's degree
    window and res_cap counts the maps of a resolution over R.  (No check
    reads degree_bound; L2.2 compares exact Hilbert series.)"""
    doc = json.loads(REGULAR_PLANE)
    doc["flags"][key] = -50
    with pytest.raises(SessionError) as info:
        parse_session(json.dumps(doc))
    assert info.value.errors == [
        f"flags.{key}: expected a non-negative integer, got -50"]


@pytest.mark.parametrize("flag", ["--degree-bound", "--res-cap"])
def test_cli_rejects_negative_bound_overrides(flag, tmp_path, capsys):
    f = tmp_path / "regular_plane.json"
    f.write_text(REGULAR_PLANE)
    assert main(["--json", flag, "-50", "check", str(f)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    key = flag[2:].replace("-", "_")
    assert out.err == \
        f"error: flags.{key}: expected a non-negative integer, got -50\n"
    assert main(["--json", flag, "0", "check", str(f)]) in (0, 2)


def test_res_cap_override_bounds_resolutions_over_r_only(tmp_path, capsys):
    """Over R = k[x,y] with --res-cap 0, A = R/(x) gets its depth and its
    type from its resolution over S, which is never capped, so its row is
    decided; its Bass number Ext^3(k, A) needs a fourth map of the
    resolution of k over R, past the cap."""
    f = tmp_path / "ambient.json"
    f.write_text(json.dumps({
        "vars": ["x", "y"], "ideal": [],
        "modules": {"A": {"degrees": [0], "relations": [["x"]]}},
        "checks": [{"id": "Bass", "C": "A"}]}))
    assert main(["--json", "--res-cap", "0", "check", str(f)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["flags"]["res_cap"] == 0
    assert report["invariants"][1] == {
        "module": "A", "dim": 1, "depth": 1, "e": 1, "length": "infinite",
        "type": 1, "is_cm": True}
    bass, = report["checks"]
    assert bass["verdict"] == "undecided"
    assert bass["undecided"] == ["resolution needs 4 steps but the cap is 0"]


def test_parse_reports_type_errors_together():
    doc = dict(json.loads(GOOD), ideal="xy", flags=[1], modules=[],
               checks=["Bass"])
    with pytest.raises(SessionError) as info:
        parse_session(json.dumps(doc))
    assert [e.split(":")[0] for e in info.value.errors] == [
        "flags", "ideal", "modules", "checks[0]"]


@pytest.mark.parametrize("doc,errors", [
    ({"vars": 5, "chek": 1, "flags": {"x": 1},
      "checks": [{"id": "Bass", "C": "R", "m": 1}]},
     ["chek: unknown key", "flags.x: unknown key",
      "vars: expected a nonempty list of identifiers",
      "checks[0].m: unknown key"]),
    ({"vars": ["x", "x"], "ideal": ["x^2", 3],
      "modules": {"A": {"degrees": [0], "relations": [["x", "1"]],
                        "degree": 0},
                  "B": {"degrees": [0], "relations": [["x +"]]}},
      "checks": [{"id": "T2.4", "C": "B", "M": "A"}]},
     ["vars: duplicate variable names",
      "ideal[1]: expected a string, got 3",
      "modules.A.degree: unknown key",
      "modules.A.relations[0]: 2 entries for 1 generators",
      "checks[0]: unknown module 'A'"]),
])
def test_parse_reports_every_error_when_vars_is_invalid(doc, errors):
    """Without valid variables no polynomial can be parsed, but every other
    field is still checked, and module names still resolve."""
    with pytest.raises(SessionError) as info:
        parse_session(json.dumps(doc))
    assert info.value.errors == errors


def test_parse_rejects_bad_json():
    with pytest.raises(SessionError) as info:
        parse_session("{ not json")
    assert "line 1" in str(info.value)


def test_parse_rejects_a_top_level_array():
    with pytest.raises(SessionError) as info:
        parse_session(json.dumps([{"vars": ["x"]}]))
    assert info.value.errors == ["top-level document must be an object"]


def test_parse_rejects_inhomogeneous_ideal():
    with pytest.raises(SessionError, match="inhomogeneous"):
        parse_session(json.dumps({"vars": ["x"], "ideal": ["x^2 + x"]}))


def test_run_session_shape():
    s = parse_session(GOOD)
    report = run_session(s)
    assert set(report) >= {"flags", "ring", "invariants", "checks"}
    names = [inv["module"] for inv in report["invariants"]]
    assert names == ["R", "A", "k"] or names[0] == "R"
    verdicts = {c["criterion"]: c["verdict"] for c in report["checks"]}
    assert verdicts == {"C2.6": "pass", "T2.4": "pass", "Bass": "pass"}
    assert not has_undecided(report)


def test_run_session_deterministic():
    a = emit_json(run_session(parse_session(GOOD)))
    b = emit_json(run_session(parse_session(GOOD)))
    assert a == b


def test_emit_json_is_canonical():
    out = emit_json(run_session(parse_session(GOOD)))
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, indent=1)


def test_cli_check_json(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(GOOD)
    code = main(["--json", "check", str(f)])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert {c["verdict"] for c in doc["checks"]} == {"pass"}


def test_cli_invariants_human(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(GOOD)
    code = main(["invariants", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert "depth" in out and "A" in out
    assert "checks" not in json.dumps(out) or "criterion" not in out


def test_cli_undecided_exit_code(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({
        "vars": ["x", "y"],
        "ideal": ["x*y"],
        "flags": {"res_cap": 0},
        "checks": [{"id": "C2.7", "C": "R"}],
    }))
    code = main(["--json", "check", str(f)])
    doc = json.loads(capsys.readouterr().out)
    verdicts = [c["verdict"] for c in doc["checks"]]
    if "undecided" in verdicts:
        assert code == 2
    else:
        assert code == 0


def test_packed_monomial_limit_is_undecided(tmp_path, capsys):
    """x^40000 is past the largest degree a packed monomial holds: each
    computation that meets it is undecided, with the limit as its reason,
    and the run exits 2 without a traceback.  A module over that ring
    fails to parse, as its relations are reduced modulo the ideal."""
    doc = {"vars": ["x"], "ideal": ["x^40000"],
           "checks": [{"id": "T2.4", "C": "R", "M": "R"},
                      {"id": "Bass", "C": "R"}]}
    reason = str(MonomialLimitError())
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    assert main(["--json", "check", str(f)]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    report = json.loads(out.out)
    assert report["invariants"] == [{"module": "R", "undecided": reason}]
    for chk in report["checks"]:
        assert chk["verdict"] == "undecided"
        assert reason in chk["undecided"]
    assert main(["check", str(f)]) == 2
    assert "undecided: " + reason in capsys.readouterr().out
    # the human invariant table says why its row is undecided
    assert main(["invariants", str(f)]) == 2
    assert (f"  R: undecided ({reason})"
            in capsys.readouterr().out.splitlines())
    doc["modules"] = {"M": {"degrees": [0], "relations": [["x"]]}}
    with pytest.raises(SessionError) as e:
        parse_session(json.dumps(doc))
    assert e.value.errors == [f"modules.M: {reason}"]


def test_precondition_failure_is_one_checks_verdict(tmp_path, capsys):
    """dim R = 1 > depth k = 0 and l(R) infinite are reported as not
    applicable, next to a passing check, instead of aborting the run."""
    f = tmp_path / "s.json"
    f.write_text(json.dumps({
        "vars": ["x", "y"],
        "ideal": ["x*y"],
        "checks": [{"id": "T2.4", "C": "k", "M": "R"},
                   {"id": "Bass", "C": "R"},
                   {"id": "L2.3", "M": "R", "C": "R"}],
    }))
    assert main(["--json", "check", str(f)]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["criterion"], c["verdict"]) for c in checks] == [
        ("T2.4", "not_applicable"), ("Bass", "pass"),
        ("L2.3", "not_applicable")]
    assert checks[0]["hypotheses"] == [
        {"name": "dim M <= depth C", "status": "fail",
         "values": {"r": 0, "s": 1}}]


ZERO = json.dumps({
    "vars": ["x", "y"],
    "ideal": ["x*y"],
    "modules": {"A": {"degrees": [0], "relations": [["x"]]},
                "Z": {"degrees": [0], "relations": [["1"]]}},
    "checks": [{"id": "Bass", "C": "Z"}, {"id": "C2.6", "M": "Z"},
               {"id": "C2.7", "C": "Z"}, {"id": "C2.8", "C": "Z"},
               {"id": "C2.9", "C": "Z"}, {"id": "Claim", "C": "R", "M": "Z"},
               {"id": "L2.1", "M": "Z"}, {"id": "L2.2", "M": "Z", "C": "R"},
               {"id": "T2.4", "C": "R", "M": "Z"},
               {"id": "L2.3", "M": "k", "C": "Z"},
               {"id": "T2.4", "C": "Z", "M": "A"},
               {"id": "L2.3", "M": "Z", "C": "R"},
               {"id": "T2.4-moreover", "C": "R", "M": "A"},
               {"id": "Bass", "C": "R"}],
})


def test_zero_module_argument_is_one_checks_verdict(tmp_path, capsys):
    """A zero module argument makes its own check not applicable, through
    one failing "<argument> nonzero" hypothesis, instead of aborting the
    run; T2.4-moreover skips a zero N by its dimension."""
    nonzero = [("Bass", "C"), ("C2.6", "M"), ("C2.7", "C"), ("C2.8", "C"),
               ("C2.9", "C"), ("Claim", "M"), ("L2.1", "M"), ("L2.2", "M"),
               ("T2.4", "M"), ("L2.3", "C"), ("T2.4", "C")]
    in_process = json.loads(emit_json(run_session(parse_session(ZERO))))
    f = tmp_path / "zero.json"
    f.write_text(ZERO)
    assert main(["--json", "check", str(f)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    checks = json.loads(out.out)["checks"]
    assert checks == in_process["checks"]
    for chk, (cid, arg) in zip(checks, nonzero):
        assert (chk["criterion"], chk["verdict"]) == (cid, "not_applicable")
        assert chk["hypotheses"] == [
            {"name": f"{arg} nonzero", "status": "fail", "values": {}}]
    length_check, moreover, bass = checks[len(nonzero):]
    assert length_check["verdict"] == "not_applicable"
    assert length_check["hypotheses"] == [
        {"name": "0 < l(M) < infinity", "status": "fail",
         "values": {"length_M": 0}}]
    assert moreover["verdict"] == "pass"
    assert moreover["inputs"]["modules"] == ["A", "Z", "R"]
    assert moreover["verification"]["modules"][1] == {
        "module": "Z", "skipped": "not CM of dimension 1"}
    assert bass["verdict"] == "pass"


def test_cli_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().err
    assert main(["check", str(tmp_path / "absent.json")]) == 1


@pytest.mark.parametrize("argv", [
    ["check"],
    ["--seed", "x", "check", "FILE"],
    ["frobnicate", "FILE"],
    [],
    # an abbreviation of an option is not the option
    ["--deg", "3", "check", "FILE"],
])
def test_cli_usage_error_exit_code(argv, tmp_path, capsys):
    """A malformed command line is an input error (1), never the exit
    code of an undecided verdict (2)."""
    f = tmp_path / "s.json"
    f.write_text(GOOD)
    assert main([str(f) if a == "FILE" else a for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: injcrit ")
    assert out.err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_cli_help(flag, capsys):
    assert main([flag]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: injcrit ") and out.err == ""
    assert all(name in out.out for name in (
        "--json", "--seed", "--degree-bound", "--res-cap", "corpus run"))


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{", "{path}: not UTF-8 text (byte 0: invalid start byte)"),
    (b"[" * 100000 + b"]" * 100000, "arrays and objects nested too deeply"),
    (b'{"char": 1' + b"0" * 5000,
     f"an integer has more than {sys.get_int_max_str_digits()} digits"),
], ids=["not_utf8", "deep_nesting", "long_integer"])
def test_cli_malformed_file_is_one_error_line(content, message, tmp_path,
                                              capsys):
    f = tmp_path / "bad.json"
    f.write_bytes(content)
    assert main(["check", str(f)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message.format(path=f)}\n"


def test_cli_check_imports_no_argparse_locale_or_numpy():
    """A check call stays lean: no argument-parsing, locale or dataclass
    machinery (dataclasses pulls in inspect), and the dense oracle's numpy
    only when the oracle runs."""
    session = resources.files("injcrit") / "corpus" / "regular_line.json"
    code = ("import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from injcrit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['--json', 'check', sys.argv[1]])\n"
            "added = set(sys.modules) - before\n"
            "print(code, sorted(added & {'argparse', 'dataclasses',\n"
            "                            'gettext', 'inspect', 'locale',\n"
            "                            'numpy'}))\n")
    src = str(Path(main.__code__.co_filename).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, str(session)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "0 []\n"


def test_cli_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "gorenstein_node" in names and len(names) == 10


def test_cli_corpus_run_single(capsys):
    code = main(["--json", "corpus", "run", "hypersurface_dim0"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert all(c["verdict"] in ("pass", "not_applicable")
               for c in doc["checks"])


def test_cli_corpus_run_unknown_entry(capsys):
    assert main(["--json", "corpus", "run", "nosuch"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "unknown corpus entry 'nosuch'\n"


TYPE2_CHECK_LINES = [
    "ring: GF(32003)[x,y] / (x^2, x*y, y^2)",
    "",
    "invariants:",
    "  module  dim  depth  e  length  type  is_cm  rank",
    "  R       0    0      3  3       2     yes    -   ",
    "  E       0    0      3  3       1     yes    -   ",
    "",
    "checks:",
    "  C2.7(C=E): pass",
    "    - R Cohen-Macaulay: pass",
    "    - C maximal Cohen-Macaulay: pass",
    "    - r(C) e(R) <= e(C): pass",
    "    verification: pass (bass number vanishing)",
    "  C2.7(C=R): not_applicable",
    "    - R Cohen-Macaulay: pass",
    "    - C maximal Cohen-Macaulay: pass",
    "    - r(C) e(R) <= e(C): fail",
    "  C2.9(C=E): pass",
    "    - C Cohen-Macaulay: pass",
    "    - r(C) e(C) <= e(End(C)): pass",
    "    - Ext^i(C,C) = 0 for 1 <= i <= n+1: pass",
    "    verification: pass (bass number vanishing)",
    "  C2.9(C=R): not_applicable",
    "    - C Cohen-Macaulay: pass",
    "    - r(C) e(C) <= e(End(C)): fail",
    "    - Ext^i(C,C) = 0 for 1 <= i <= n+1: pass",
    "  L2.3(C=E, M=k): pass",
    "    - r(C) l(M) <= l(Ext^r(M,C)): pass",
    "    - Ext^{r+1}(M,C) = 0: pass",
    "    verification: pass (direct Bass-number computation)",
    "  L2.3(C=R, M=k): not_applicable",
    "    - r(C) l(M) <= l(Ext^r(M,C)): pass",
    "    - Ext^{r+1}(M,C) = 0: fail",
    "  Bass(C=E): pass",
    "    - R Cohen-Macaulay: pass",
    "    - C maximal Cohen-Macaulay: pass",
    "    - Ext^{dim R + 1}(k, C) = 0: pass",
    "    verification: pass (bass number vanishing)",
    "  Bass(C=R): not_applicable",
    "    - R Cohen-Macaulay: pass",
    "    - C maximal Cohen-Macaulay: pass",
    "    - Ext^{dim R + 1}(k, C) = 0: fail",
]
TYPE2_ORACLE_LINES = [
    "",
    "oracle:",
    "  R: length 3, socle 2, hilbert {'0': 1, '1': 2}",
    "  E: length 3, socle 1, hilbert {'0': 2, '1': 1}",
]


def test_cli_human_check_and_oracle_output(tmp_path, capsys):
    """The human report lists each check's hypotheses and, when one ran,
    its verification; `oracle` appends the dense values per module."""
    f = tmp_path / "type2_artinian.json"
    f.write_text((resources.files("injcrit") / "corpus"
                  / "type2_artinian.json").read_text())
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr().out == "\n".join(TYPE2_CHECK_LINES) + "\n\n"
    assert main(["oracle", str(f)]) == 0
    assert capsys.readouterr().out == "\n".join(
        TYPE2_CHECK_LINES + TYPE2_ORACLE_LINES) + "\n\n"


def test_cli_seed_override(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({
        "vars": ["x", "y"],
        "ideal": ["x*y"],
        "checks": [{"id": "L2.1", "M": "R"}],
    }))
    outs = []
    # --name N and --name=N both work, and a repeated option's last wins
    for options in (["--seed", "1"], ["--seed", "2"], ["--seed=2"],
                    ["--seed", "1", "--seed=2"]):
        assert main(["--json", *options, "check", str(f)]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    for doc in outs:
        assert doc["checks"][0]["verdict"] == "pass"
    assert [doc["flags"]["seed"] for doc in outs] == [1, 2, 2, 2]
