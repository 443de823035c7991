"""The canonical ``--json check`` output of the shipped corpus, pinned.

``bench/golden`` holds the byte-exact output of every corpus session, as
captured by ``bench/make_golden.py``.  A change to the engine that is
meant to be output-neutral, such as a speed-up, must leave it unchanged.
The golden files are only read here.
"""

from importlib import resources
from pathlib import Path

import pytest

from injcrit.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"
CORPUS = sorted((entry.name[:-5], entry) for entry in
                (resources.files("injcrit") / "corpus").iterdir()
                if entry.name.endswith(".json"))


def test_corpus_is_the_expected_ten_sessions():
    assert len(CORPUS) == 10


@pytest.mark.parametrize("name,path", CORPUS, ids=[n for n, _ in CORPUS])
def test_check_json_matches_golden(name, path, capsys):
    code = main(["--json", "check", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()
