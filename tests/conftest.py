"""Shared fixtures and helpers: the shipped corpus sessions, common rings,
and the image of a vector under a map given by its columns."""

import pytest
from importlib import resources

from injcrit.poly import PolyRing, Vec
from injcrit.modules import RingPresentation
from injcrit.session import parse_session


def load_corpus():
    out = {}
    root = resources.files("injcrit") / "corpus"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = parse_session(entry.read_text())
    return out


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


def named_modules(session):
    """All addressable modules of a session: builtins plus declared."""
    names = ["R", "k"] + sorted(session.modules)
    return [(n, session.resolve(n)) for n in names]


@pytest.fixture(scope="session")
def node_ring():
    S = PolyRing(["x", "y"])
    x, y = S.gens()
    return RingPresentation(S, [x * y])


@pytest.fixture(scope="session")
def type2_ring():
    S = PolyRing(["x", "y"])
    x, y = S.gens()
    return RingPresentation(S, [x * x, x * y, y * y])


@pytest.fixture(scope="session")
def dual_numbers():
    S = PolyRing(["x"])
    x, = S.gens()
    return RingPresentation(S, [x * x])


def apply_columns(columns, v: Vec) -> Vec:
    """Image of v under the map whose j-th generator goes to columns[j]."""
    if not columns:
        raise ValueError("empty column list has no target")
    out = columns[0].module.zero()
    for (pos, m), c in v.terms.items():
        out = out + columns[pos].mono_mul(m, c)
    return out
