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
``bench`` are only read here.

The thirteen capped digests in ``RETYPED`` were re-pinned when type came
to be read off the resolution over the ambient ring, which no cap
bounds: a type or an invariant row that read ``undecided`` under the cap
now has a value, and ``three_lines`` at cap 0 now exits 0.  Their
re-pinned runs are checked against the uncapped run below.
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from injcrit.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = BENCH / "golden"
CORPUS = sorted((entry.name[:-5], entry) for entry in
                (resources.files("injcrit") / "corpus").iterdir()
                if entry.name.endswith(".json"))
HEAVY = sorted((path.stem, path) for path in
               (BENCH / "sessions").glob("*.json"))
SESSIONS = dict(CORPUS + HEAVY)

# (session, res_cap): (exit code, sha256 of ``--json --res-cap N check``)
CAPPED = {
    ("gorenstein_node", 0): (2,
        "fc1da507c6db3d89d6bc41a8a911fa1df21be80f8789e0a9aa5af10afd19c6e9"),
    ("hypersurface_cubic", 0): (2,
        "5e7222c14750958868af7bd8d3dea349289dcf76fa4e4382ec070007e7a440bd"),
    ("hypersurface_dim0", 0): (2,
        "0c3d522ed59690e8d47828604545468bf75b06c21bc31cf86b48126f4c5f23bd"),
    ("hypersurface_domain", 0): (2,
        "3f348bb3e5385295a7f6c8056cd90d539eb928dd8aaf1bd3795c23043cce17cd"),
    ("noncm_plane", 0): (2,
        "8d63c84311c5aa797a4c27a0ee1c5b39558cca170897989b4955d57bf8fa1c75"),
    ("quadric_cone", 0): (2,
        "93ecefbc92f783baf9a06c0b627c4edb889a46363b7ae6b22b0859e14487ba39"),
    ("regular_line", 0): (2,
        "498fa4d12230924a2893429bfe4a3b39773964bad90a424f7c6363d6586afb97"),
    ("regular_plane", 0): (2,
        "dfccf1c076c9d6a24b198747014332c3f3f68af42b64c897d16793b203b2f775"),
    ("three_lines", 0): (0,
        "bbecef228d15a7a6098029ce9958aa476f37adf0ca1edb41129724be7970fb54"),
    ("type2_artinian", 0): (2,
        "0a9c9aac937cba4bc789c6f72c3f38640434dd2a987274bcbf0904e9de4a86bc"),
    ("ci_two_quadrics", 0): (2,
        "21afe63c1826358e7d499f6a34249a6b1bfd51bf2460abc7f676ea82bf0e8669"),
    ("segre_quadric_modules", 0): (2,
        "2b20c8ec6a82f70e5f967091725031e58adaddbb6647435370641ba71ab39cd1"),
    ("gorenstein_node", 2): (2,
        "3fc209f555a388ad74b47f8cdb40dcb01d756a8ad6924f3ced9a99f7fca8c8ec"),
    ("hypersurface_cubic", 2): (0,
        "5b2e043c81fa90b820de8c6e4a51bea1de677496ff05f35dba9f5a0adae2adc4"),
    ("hypersurface_dim0", 2): (0,
        "03d02c5610c91fc455ec3e363fdef65611c945d31b21b8202518e31a220705e8"),
    ("hypersurface_domain", 2): (2,
        "3d6c076f28679a17807edfa011fdd3b6e14e8657afca57d76095e601d1a31377"),
    ("noncm_plane", 2): (2,
        "d5a302c20c45e613e53a110217871c3efa2cde3f0acb07ab6ee32af5812e1f8a"),
    ("quadric_cone", 2): (2,
        "8839b67bd8bf476b34302dfa660934e19a9a9267b12886d63ba190ef154a389a"),
    ("regular_line", 2): (0,
        "f1e441497a48356e3a2be22a89ddfce0befe9f1ed20c9de2ddcccd2f20b0df41"),
    ("regular_plane", 2): (2,
        "488b6aed589d565d9424368a2f216418d7676d4b943eb1dff29df4ef8a12c522"),
    ("three_lines", 2): (0,
        "4ca9e616e3a8589b411a992dd758b181f23f9f007d470adc1143198d2c9ced86"),
    ("type2_artinian", 2): (0,
        "25297d67644645c266cb4bfe9193210f7ca250e083ca2233d0a45ed3b4ceaa41"),
    ("ci_two_quadrics", 2): (2,
        "27b82ff9ebd61046f4170e873d7de7b3e7de98dbb53b82bb37b0719701c589e7"),
    ("segre_quadric_modules", 2): (2,
        "c839b647071d1be2ec0f9839bcc4e7babd6002da3307b4729eff448d5e9ef53e"),
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
    ("quadric_cone", 3): (2,
        "4e35880b18d0f2b581cc9b999af54eb3ce2a313ccccea67859885e9d58f1078e"),
    ("regular_line", 3): (0,
        "4f740c075e5bf08cb36fce99694bb096538ed894da4597bd89fc6be3e9943a40"),
    ("regular_plane", 3): (0,
        "f99e2a62e226e7e437544271aae1e7d497315238e4f1aeeea848c488bc43de1f"),
    ("three_lines", 3): (0,
        "0ebd725246886866635e8a77ee7e52806cf8cff13bc180e5dd0281ab1442abc9"),
    ("type2_artinian", 3): (0,
        "7ad2a481e989dd07b1b73957d925acbe5ad592b3de8d6305c1af92a8e0598f42"),
    ("ci_two_quadrics", 3): (2,
        "c7c5629d2778f7fc037a92aa701c0542e19fb7731343b644bd56d4583ae98f3a"),
    ("segre_quadric_modules", 3): (2,
        "904c2e2860fd9d53510a15f5a8ddab97ba6bce3e0ae4664cc33f1e32a0cae0ba"),
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


@pytest.mark.parametrize("name,path", CORPUS + HEAVY,
                         ids=[n for n, _ in CORPUS + HEAVY])
def test_check_json_matches_golden(name, path, capsys):
    code = _check_json(path)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name,cap", sorted(CAPPED),
                         ids=[f"{n}-cap{c}" for n, c in sorted(CAPPED)])
def test_capped_check_json_matches_digest(name, cap, capsys):
    code = _check_json(SESSIONS[name], "--res-cap", str(cap))
    out = capsys.readouterr().out.encode("utf-8")
    assert (code, hashlib.sha256(out).hexdigest()) == CAPPED[name, cap]


def _type_values(node, path=()):
    """(path, value) of every "type" or "type_*" entry of a check report."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    if not isinstance(node, dict):
        return
    for key, value in node.items():
        if key == "type" or str(key).startswith("type_"):
            yield path + (key,), value
        else:
            yield from _type_values(value, path + (key,))


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


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_oracle_json_matches_digest(name, capsys):
    code = main(["--json", "oracle", str(SESSIONS[name])])
    out = capsys.readouterr().out.encode("utf-8")
    assert (code, hashlib.sha256(out).hexdigest()) == ORACLE[name]
