"""The canonical ``--json check`` output of every session, pinned.

``bench/golden`` holds the byte-exact output of the ten corpus sessions
and of the two heavier sessions in ``bench/sessions``, as captured by
``bench/make_golden.py``.  A change to the engine that is meant to be
output-neutral, such as a speed-up or a refactor, must leave it
unchanged.  The same sessions run with a small resolution cap exercise
the ``undecided`` paths that the uncapped output never reaches; those
outputs are pinned by their sha256.  Files under ``bench`` are only
read here.
"""

import hashlib
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
        "96f5d669703e351fd1c5be91cdf1fc20bf67fca0220bb0064f1ad080a1507deb"),
    ("hypersurface_cubic", 0): (2,
        "5e7222c14750958868af7bd8d3dea349289dcf76fa4e4382ec070007e7a440bd"),
    ("hypersurface_dim0", 0): (2,
        "0c3d522ed59690e8d47828604545468bf75b06c21bc31cf86b48126f4c5f23bd"),
    ("hypersurface_domain", 0): (2,
        "d490ed3d8c8fc5f0c1fdf861ebbd545ab4842400dee23e396b446264baea65e5"),
    ("noncm_plane", 0): (2,
        "8d63c84311c5aa797a4c27a0ee1c5b39558cca170897989b4955d57bf8fa1c75"),
    ("quadric_cone", 0): (2,
        "a484a73df8af5aca0decf3676ac460b36545bd0a8a2055726139ac3f4810bf54"),
    ("regular_line", 0): (2,
        "7469b92f60685cecb68d9ebaf031c73281d6320076d12c4474641dbf028a4196"),
    ("regular_plane", 0): (2,
        "8a1fbdc7910dbb6b27602478be94ec65a855bd2f384e949d6ccfeb54100bfd81"),
    ("three_lines", 0): (2,
        "7e45fcc164faa675720040091ee61898e3fcc764cda677d801d2b40c7a08a8d1"),
    ("type2_artinian", 0): (2,
        "0a9c9aac937cba4bc789c6f72c3f38640434dd2a987274bcbf0904e9de4a86bc"),
    ("ci_two_quadrics", 0): (2,
        "a4d47b85551113e94f95d1edffefc7913be19eaac3f33c409acc2bc0bc8bfa44"),
    ("segre_quadric_modules", 0): (2,
        "8e95e7bc5955940164545049246c829d33b1183a0ea2558bc4047f92a870d61c"),
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
        "1ea3d2fdbf9b18ba5d61ce98b8f6329c2de14e449ad6f7f24be4e6c9cd8c2725"),
    ("regular_line", 2): (0,
        "f1e441497a48356e3a2be22a89ddfce0befe9f1ed20c9de2ddcccd2f20b0df41"),
    ("regular_plane", 2): (2,
        "2f88a6a4d18db6f7ebfd85576b61774b878cdf1bb19e28ecdfaf3a8650b38385"),
    ("three_lines", 2): (0,
        "4ca9e616e3a8589b411a992dd758b181f23f9f007d470adc1143198d2c9ced86"),
    ("type2_artinian", 2): (0,
        "25297d67644645c266cb4bfe9193210f7ca250e083ca2233d0a45ed3b4ceaa41"),
    ("ci_two_quadrics", 2): (2,
        "81df05b9de9b0e82b3452fbeeef192b6ed62887938b8130ac8970a31d547a995"),
    ("segre_quadric_modules", 2): (2,
        "da5bd9c84fa8ed05252acfcf1f72db43e9c6fc8eed497d2550aadb426bd3f139"),
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
        "fd7a016b5793c4c94544c430aee089490e3cbf1694f0cddb5be835d18839c543"),
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
