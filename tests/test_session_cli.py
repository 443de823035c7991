"""Session files, JSON reports, and the command-line entry point."""

import json

import pytest

from injcrit.cli import main
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


def test_parse_reports_type_errors_together():
    doc = dict(json.loads(GOOD), ideal="xy", flags=[1], modules=[],
               checks=["Bass"])
    with pytest.raises(SessionError) as info:
        parse_session(json.dumps(doc))
    assert [e.split(":")[0] for e in info.value.errors] == [
        "flags", "ideal", "modules", "checks[0]"]


def test_parse_rejects_bad_json():
    with pytest.raises(SessionError) as info:
        parse_session("{ not json")
    assert "line 1" in str(info.value)


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


def test_cli_seed_override(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({
        "vars": ["x", "y"],
        "ideal": ["x*y"],
        "checks": [{"id": "L2.1", "M": "R"}],
    }))
    outs = []
    for seed in (1, 2):
        assert main(["--json", "--seed", str(seed), "check", str(f)]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    for doc in outs:
        assert doc["checks"][0]["verdict"] == "pass"
    assert outs[0]["flags"]["seed"] == 1 and outs[1]["flags"]["seed"] == 2
