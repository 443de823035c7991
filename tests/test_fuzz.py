"""A session fuzzer with one metamorphic relation.

Random small sessions (2 or 3 variables, characteristic 7 or 32003,
resolution cap 6) must give the same ``--json check`` bytes and exit code
when every module is presented less economically: a multiple of one of
its relations is added, an extra generator, at a random position, is
killed by a relation with a unit entry there, and the relations are
shuffled.  The module is the same up to isomorphism, so no verdict, no
invariant and no value a report prints may change; a presentation that
leaks into the output, such as a generator that minimalize_presentation
drops without renumbering the rest, shows up as a difference.  The
examples are drawn derandomized, so every run tries the same sessions.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from injcrit.cli import main
from injcrit.session import CHECKS

VARS = "xyz"
CHARS = (7, 32003)


def draw_form(draw, variables, p, degree):
    """A homogeneous form of the given degree with one or two terms, as
    the session grammar writes it."""
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        factors = [str(draw(st.integers(1, p - 1)))]
        factors += [draw(st.sampled_from(variables)) for _ in range(degree)]
        terms.append("*".join(factors))
    return " + ".join(terms)


def draw_column(draw, variables, p, degrees, degree):
    """A homogeneous relation column of the given degree: each entry is 0
    or a form of degree `degree` minus its generator's degree."""
    return [draw_form(draw, variables, p, degree - a)
            if a <= degree and draw(st.booleans()) else "0"
            for a in degrees]


@st.composite
def sessions(draw):
    n = draw(st.integers(2, 3))
    p = draw(st.sampled_from(CHARS))
    variables = list(VARS[:n])
    ideal = [draw_form(draw, variables, p, draw(st.integers(2, 3)))
             for _ in range(draw(st.integers(0, 2)))]
    modules = {}
    for name in ("A", "B")[:draw(st.integers(1, 2))]:
        degrees = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
        relations = [draw_column(draw, variables, p, degrees,
                                 draw(st.sampled_from(degrees))
                                 + draw(st.integers(0, 1)))
                     for _ in range(draw(st.integers(0, 3)))]
        modules[name] = {"degrees": degrees, "relations": relations}
    names = ["R", "k", *modules]
    checks = []
    for _ in range(3):
        cid = draw(st.sampled_from(sorted(CHECKS)))
        checks.append({"id": cid, **{arg: draw(st.sampled_from(names))
                                     for arg in CHECKS[cid][0]
                                     if arg != "N"}})
    return {"char": p, "vars": variables, "ideal": ideal, "modules": modules,
            "flags": {"res_cap": 6}, "checks": checks}


def redundant(draw, doc, spec):
    """spec presented with a multiple of a relation added, an extra
    generator killed by a unit relation, and the relations shuffled."""
    variables, p = doc["vars"], doc["char"]
    degrees = list(spec["degrees"])
    relations = [list(col) for col in spec["relations"]]
    if relations:
        col = draw(st.sampled_from(relations))
        factor = draw_form(draw, variables, p, draw(st.integers(0, 1)))
        relations.append([f"({factor})*({e})" for e in col])
    at = draw(st.integers(0, len(degrees)))
    extra = draw(st.integers(0, 2))
    kill = draw_column(draw, variables, p, degrees, extra)
    kill.insert(at, str(draw(st.integers(1, p - 1))))
    for col in relations:
        col.insert(at, "0")
    degrees.insert(at, extra)
    relations = draw(st.permutations(relations + [kill]))
    return {"degrees": degrees, "relations": relations}


def check_json(path, doc):
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", "check", str(path)])
    return code, out.getvalue()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_a_redundant_presentation_changes_no_output(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "session.json"
    doc = data.draw(sessions())
    twin = dict(doc, modules={name: redundant(data.draw, doc, spec)
                              for name, spec in doc["modules"].items()})
    assert check_json(path, twin) == check_json(path, doc)
