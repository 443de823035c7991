"""The canonical ``--json check`` output of every session, pinned.

``bench/golden`` holds the byte-exact output of the ten corpus sessions
and of the two heavier sessions in ``bench/sessions``, as captured by
``bench/make_golden.py``.  A change to the engine that is meant to be
output-neutral, such as a speed-up or a refactor, must leave it
unchanged.  The same sessions run with a small resolution cap exercise
the ``undecided`` paths that the uncapped output never reaches; those
outputs are pinned by their sha256, and so is the ``--json oracle``
output of the corpus sessions, whose dense cross-check values reach the
engine only through the Matlis dual's presentation.  Files under
``bench`` are only read here.  The four stress sessions in
``tests/sessions``, whose Bass numbers and resolutions take far more
work, are pinned byte for byte in ``tests/golden``, with their exit
codes.

The thirteen capped digests in ``RETYPED`` were re-pinned when type came
to be read off the resolution over the ambient ring, which no cap
bounds: a type or an invariant row that read ``undecided`` under the cap
now has a value, and ``three_lines`` at cap 0 now exits 0.  The
nineteen in ``REBASSED`` were re-pinned when the Bass number of a maximal
Cohen-Macaulay C over a Cohen-Macaulay ring came to be read off
Hom(C, omega), which needs no resolution step over R beyond the
presentation of C: a Bass number that read ``undecided`` under the cap
now has a value.  Both sets of re-pinned runs are checked against the
uncapped run below.
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from injcrit.cli import main

from conftest import STRESS

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = BENCH / "golden"
CORPUS = sorted((entry.name[:-5], entry) for entry in
                (resources.files("injcrit") / "corpus").iterdir()
                if entry.name.endswith(".json"))
HEAVY = sorted((path.stem, path) for path in
               (BENCH / "sessions").glob("*.json"))
SESSIONS = dict(CORPUS + HEAVY)
TESTS = Path(__file__).resolve().parent
STRESS_EXIT = json.loads((TESTS / "golden" / "exit_codes.json").read_text())

# (session, res_cap): (exit code, sha256 of ``--json --res-cap N check``)
CAPPED = {
    ("gorenstein_node", 0): (2,
        "fff78773e1d3b4b78b99316797d31db5c02312fecd96f4f52104876d77a3c4c6"),
    ("hypersurface_cubic", 0): (2,
        "cfa7e09ba5dbcd492851136723b050f822f0282cddca4617880c75d8edb7d500"),
    ("hypersurface_dim0", 0): (2,
        "fb1c551f5954ffe04eb4f56a3a4986475b39becca79c686dc8e83698ca38ec41"),
    ("hypersurface_domain", 0): (0,
        "913b205af13285d6973e1787ec2029204840f52e2485d6a8d439f35d98942a89"),
    ("noncm_plane", 0): (2,
        "8d63c84311c5aa797a4c27a0ee1c5b39558cca170897989b4955d57bf8fa1c75"),
    ("quadric_cone", 0): (0,
        "f15a064b6687088ba3649be0fa6b36f9517dbdc7c63769448ec9ff2b7ec87a8d"),
    ("regular_line", 0): (0,
        "25ffd4fbc2d4658fd443de00021ce8b52794eb66370a08c79fdc85bbb658fe3b"),
    ("regular_plane", 0): (2,
        "1e418d06b25831e8e537108a89171c34d88c43af18fcb1c00161489a2c404f1e"),
    ("three_lines", 0): (0,
        "bbecef228d15a7a6098029ce9958aa476f37adf0ca1edb41129724be7970fb54"),
    ("type2_artinian", 0): (2,
        "112d4f3763ae77303a7f5fa0a55a61a6d95a51eb4ba4e79e7cf1a78908f2cb8f"),
    ("ci_two_quadrics", 0): (0,
        "2295473d5f28119dc92ce98155c59a3106a3b5897d8874e6a5aeecf02de60832"),
    ("segre_quadric_modules", 0): (2,
        "dfc9c1b5bb277dd021edca793031f3434354b2f4f7de2d83a00c418adeecde1d"),
    ("gorenstein_node", 2): (2,
        "6831ace5f3bee0bc12d5231b710a186b704e09771e359036ff7105706b97bf26"),
    ("hypersurface_cubic", 2): (0,
        "5b2e043c81fa90b820de8c6e4a51bea1de677496ff05f35dba9f5a0adae2adc4"),
    ("hypersurface_dim0", 2): (0,
        "03d02c5610c91fc455ec3e363fdef65611c945d31b21b8202518e31a220705e8"),
    ("hypersurface_domain", 2): (0,
        "f1bc517da4bc50579b65c2a15dd18d17f146e6dcd9bcf9426e52d2d1bd1715b2"),
    ("noncm_plane", 2): (2,
        "d5a302c20c45e613e53a110217871c3efa2cde3f0acb07ab6ee32af5812e1f8a"),
    ("quadric_cone", 2): (0,
        "9e6792835de3a200bc562549280376ef6cf415a8bbeeb4d76dc703c3d4dce0fb"),
    ("regular_line", 2): (0,
        "f1e441497a48356e3a2be22a89ddfce0befe9f1ed20c9de2ddcccd2f20b0df41"),
    ("regular_plane", 2): (2,
        "4ce78ba5ea4e05b221e265ce4ea138075f908b1b234a20fb5542e5518d9daff9"),
    ("three_lines", 2): (0,
        "4ca9e616e3a8589b411a992dd758b181f23f9f007d470adc1143198d2c9ced86"),
    ("type2_artinian", 2): (0,
        "25297d67644645c266cb4bfe9193210f7ca250e083ca2233d0a45ed3b4ceaa41"),
    ("ci_two_quadrics", 2): (0,
        "2e0774b77763d263bb0edb6cef87c6ab9962d9f3256bef5f7a298bda49e1a844"),
    ("segre_quadric_modules", 2): (2,
        "b189ab7b8abe1034e642c03ef33708fd5acb5f34b8a8212379429a5bf16534ce"),
    ("gorenstein_node", 3): (0,
        "8f38c4200be751f41f0cd880244f504bdbcb49dcfdbe522a7a51e4e0c33bab17"),
    ("hypersurface_cubic", 3): (0,
        "ab498ab12c92e84a6c8fb177f6b4a36d7efb20f24126d7ad36f483f3b72d7ba8"),
    ("hypersurface_dim0", 3): (0,
        "2484f297f29566cddde2e5de77f5e7097925a779329969c5b26bee3936e6e227"),
    ("hypersurface_domain", 3): (0,
        "b32a108c7b5e27ca5a2cb7417ff7f6097c0597b628ec3e0382aa03cb81d2ffa2"),
    ("noncm_plane", 3): (0,
        "7409a14412b766a60e28d62a2ab6e0a114ea1bcb2193e542b39fdbcb90126a3e"),
    ("quadric_cone", 3): (0,
        "f891750816be8483654872c5789fc7e5a272c420b671b6bb205dda3e153ca542"),
    ("regular_line", 3): (0,
        "4f740c075e5bf08cb36fce99694bb096538ed894da4597bd89fc6be3e9943a40"),
    ("regular_plane", 3): (0,
        "f99e2a62e226e7e437544271aae1e7d497315238e4f1aeeea848c488bc43de1f"),
    ("three_lines", 3): (0,
        "0ebd725246886866635e8a77ee7e52806cf8cff13bc180e5dd0281ab1442abc9"),
    ("type2_artinian", 3): (0,
        "7ad2a481e989dd07b1b73957d925acbe5ad592b3de8d6305c1af92a8e0598f42"),
    ("ci_two_quadrics", 3): (0,
        "71b2e93a97ed9eebaf0377ae0f66c32249a3ab55d4fe7f208ada9b7600d9e03a"),
    ("segre_quadric_modules", 3): (2,
        "5462f81677541f2ada22d692b22d897bf9c3f65cb8f604cd8328484d8ce3400d"),
}

# the capped runs whose digests changed when type came to be read off the
# resolution over S, which no cap bounds: a type or an invariant row that
# read undecided under the cap now has a value
RETYPED = sorted(
    [(name, 0) for name in ("ci_two_quadrics", "gorenstein_node",
                            "hypersurface_domain", "quadric_cone",
                            "regular_line", "regular_plane",
                            "segre_quadric_modules", "three_lines")]
    + [(name, 2) for name in ("ci_two_quadrics", "quadric_cone",
                              "regular_plane", "segre_quadric_modules")]
    + [("segre_quadric_modules", 3)])

# the capped runs whose digests changed when the Bass number of a maximal
# Cohen-Macaulay C over a Cohen-Macaulay ring came to be read off
# Hom(C, omega), which no cap bounds: a Bass number that read undecided
# under the cap now has a value
REBASSED = sorted(
    [(name, 0) for name in ("ci_two_quadrics", "gorenstein_node",
                            "hypersurface_cubic", "hypersurface_dim0",
                            "hypersurface_domain", "quadric_cone",
                            "regular_line", "regular_plane",
                            "segre_quadric_modules", "type2_artinian")]
    + [(name, 2) for name in ("ci_two_quadrics", "gorenstein_node",
                              "hypersurface_domain", "quadric_cone",
                              "regular_plane", "segre_quadric_modules")]
    + [(name, 3) for name in ("ci_two_quadrics", "quadric_cone",
                              "segre_quadric_modules")])

# session: (exit code, sha256 of ``--json oracle``), corpus sessions only
ORACLE = {
    "gorenstein_node": (2,
        "0b44c94c9fbc0afbaa5e01a2d4995aae14063feb5f7187083f393d610980d6b1"),
    "hypersurface_cubic": (0,
        "0f56005b5ba48a3a8ac99ea2bf986352cfd96d297d8a2ee935eaeafceaf45b4e"),
    "hypersurface_dim0": (0,
        "f2e32e03e41f198297f8d3156517ed37f977cf571a734516ac662364695f2c87"),
    "hypersurface_domain": (2,
        "413b8264be928caf3c6705a0c2a5a72e7dc0ceacb857a85d6d0a0221c9bd9dd8"),
    "noncm_plane": (2,
        "f98a9af0b03b7cdaa6db20d457b61595e4f6e1b15f069b59a2e33dfe2dd1b6ee"),
    "quadric_cone": (2,
        "0dcc73c47cbe7c5517a401c407460703e1ced2f597cac87fef9576655320c197"),
    "regular_line": (2,
        "948d840906f7680a364bae85578551eb013780d5ca81cf56c6407f78b7d8667d"),
    "regular_plane": (2,
        "a8cb8bea83d47254ab4ea5a190c5e3822a4a24a84fefe0f4e8c999365bb95a08"),
    "three_lines": (2,
        "d0fbf8ee021a3b09456a6e68c66a01e670ed2eac150310ae28333ef166fdec4e"),
    "type2_artinian": (0,
        "e9432991fdb35feaf84f21a6c73ddd8c0fc9749e6ae6736e13c659bc0e91eb09"),
}


def _check_json(path, *flags):
    return main(["--json", *flags, "check", str(path)])


def test_corpus_is_the_expected_ten_sessions():
    assert len(CORPUS) == 10
    assert len(HEAVY) == 2
    assert sorted(STRESS_EXIT) == [name for name, _ in STRESS] == [
        "quad3", "rnc4", "segre12", "segre12b"]


@pytest.mark.parametrize("name,path", CORPUS + HEAVY,
                         ids=[n for n, _ in CORPUS + HEAVY])
def test_check_json_matches_golden(name, path, capsys):
    code = _check_json(path)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name,path", STRESS, ids=[n for n, _ in STRESS])
def test_stress_check_json_matches_golden(name, path, capsys):
    code = _check_json(path)
    out = capsys.readouterr().out
    assert code == STRESS_EXIT[name]
    assert out.encode("utf-8") == (TESTS / "golden" / f"{name}.json"
                                   ).read_bytes()


@pytest.mark.parametrize("name,cap", sorted(CAPPED),
                         ids=[f"{n}-cap{c}" for n, c in sorted(CAPPED)])
def test_capped_check_json_matches_digest(name, cap, capsys):
    code = _check_json(SESSIONS[name], "--res-cap", str(cap))
    out = capsys.readouterr().out.encode("utf-8")
    assert (code, hashlib.sha256(out).hexdigest()) == CAPPED[name, cap]


def _entries(node, match, path=()):
    """(path, value) of every entry of a check report whose key matches."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    if not isinstance(node, dict):
        return
    for key, value in node.items():
        if match(str(key)):
            yield path + (key,), value
        else:
            yield from _entries(value, match, path + (key,))


def _type_values(node):
    """(path, value) of every "type" or "type_*" entry of a check report."""
    return _entries(node, lambda key: key == "type" or key.startswith("type_"))


@pytest.mark.parametrize("name,cap", RETYPED,
                         ids=[f"{n}-cap{c}" for n, c in RETYPED])
def test_retyped_capped_run_agrees_with_the_uncapped_run(name, cap, capsys):
    """Each re-pinned capped run decides what the uncapped run decides
    about type: every invariant row is decided and equal, every type value
    in the checks is decided and equal, and a check that reaches a verdict
    under the cap reaches the uncapped one."""
    _check_json(SESSIONS[name], "--res-cap", str(cap))
    capped = json.loads(capsys.readouterr().out)
    assert _check_json(SESSIONS[name]) == 0
    full = json.loads(capsys.readouterr().out)
    assert capped["invariants"] == full["invariants"]
    assert len(capped["checks"]) == len(full["checks"])
    for rep, ref in zip(capped["checks"], full["checks"]):
        ref_types = dict(_type_values(ref))
        for path, value in _type_values(rep):
            assert value is not None and value == ref_types[path]
        assert rep["verdict"] in ("undecided", ref["verdict"])


@pytest.mark.parametrize("name,cap", REBASSED,
                         ids=[f"{n}-cap{c}" for n, c in REBASSED])
def test_rebassed_capped_run_agrees_with_the_uncapped_run(name, cap, capsys):
    """Each re-pinned capped run decides nothing the uncapped run decides
    otherwise: every decided bass_length and every bass block equals the
    uncapped one, every verdict is undecided or the uncapped verdict, and
    the invariant rows are unchanged."""
    _check_json(SESSIONS[name], "--res-cap", str(cap))
    capped = json.loads(capsys.readouterr().out)
    assert _check_json(SESSIONS[name]) == 0
    full = json.loads(capsys.readouterr().out)
    assert capped["invariants"] == full["invariants"]
    assert len(capped["checks"]) == len(full["checks"])
    decided = 0
    for rep, ref in zip(capped["checks"], full["checks"]):
        ref_bass = dict(_entries(ref, lambda key: key in ("bass_length",
                                                          "bass")))
        for path, value in _entries(rep, lambda key: key in ("bass_length",
                                                             "bass")):
            if value is not None:
                decided += 1
                assert value == ref_bass[path]
        ref_verdicts = dict(_entries(ref, lambda key: key == "verdict"))
        for path, value in _entries(rep, lambda key: key == "verdict"):
            assert value in ("undecided", ref_verdicts[path])
    assert decided


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_oracle_json_matches_digest(name, capsys):
    code = main(["--json", "oracle", str(SESSIONS[name])])
    out = capsys.readouterr().out.encode("utf-8")
    assert (code, hashlib.sha256(out).hexdigest()) == ORACLE[name]
