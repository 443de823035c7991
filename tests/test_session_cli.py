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
