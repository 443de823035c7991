"""No module of the package imports a name it leaves unused, and nothing
it defines goes unreferenced.

There is no linter in the toolchain, so this walks the syntax trees.  An
import that is kept on purpose (a re-export) carries `# noqa: F401` and a
comment line right above it that says why.  A function, method or class
of the package must be read by name somewhere in the package or in
bench/; the few that only tests read are listed, each with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import injcrit

NOQA = "# noqa: F401"


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the source never reads, unless
    the import is marked NOQA with a comment line above it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        explained = (any(NOQA in line for line in span) and node.lineno > 1
                     and lines[node.lineno - 2].lstrip().startswith("#"))
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and not explained:
                out.append((node.lineno, name))
    return sorted(out)


def test_package_imports_nothing_it_leaves_unused():
    root = Path(injcrit.__file__).parent
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(root.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_unused_import_check_catches_leftovers():
    source = ("from .poly import (ModuleOrder, Poly, Vec,\n"
              "                   mono_deg)\n"
              "import random\n"
              "\n"
              "def f(p: Poly):\n"
              "    return mono_deg(p), random.random()\n")
    assert unused_imports(source) == [(1, "ModuleOrder"), (1, "Vec")]
    # a noqa mark needs a comment above it that says why
    marked = "from .groebner import buchberger  # noqa: F401\n"
    assert unused_imports(marked) == [(1, "buchberger")]
    assert unused_imports("# re-exported for callers\n" + marked) == []


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# definitions that only tests read, and why they stay
TEST_REFERENCES = {
    "hom_module": "Hom(M, C) built directly, the reference for ext(M, C, 0)",
    "betti_numbers": "engine and oracle Betti numbers, compared with each "
                     "other in the oracle's Betti agreement test",
}


def references(tree) -> Counter:
    """How often a syntax tree reads each identifier: as a name, as an
    attribute, or as a word of a dotted-name string such as
    "GBuilder.complete", the form in which bench/tracer.py names what it
    wraps."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def unreferenced_definitions(defining: dict, others=()) -> list:
    """(file, name) of every function, method and class defined in
    `defining` (file name -> source) whose name no source, there or in
    `others`, reads outside the definition itself.  Dunder methods are
    called by the language and are skipped."""
    trees = {path: ast.parse(text) for path, text in defining.items()}
    reads = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        reads.update(references(tree))
    defs = [(path, node) for path, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, DEFS)]
    for _, node in defs:
        reads[node.name] -= references(node)[node.name]
    return sorted((path, node.name) for path, node in defs
                  if not node.name.startswith("__") and reads[node.name] <= 0)


def test_package_defines_nothing_it_leaves_unreferenced():
    root = Path(injcrit.__file__).parent
    bench = root.parents[1] / "bench"
    found = unreferenced_definitions(
        {path.name: path.read_text() for path in sorted(root.glob("*.py"))},
        [path.read_text() for path in sorted(bench.glob("*.py"))])
    assert {name for _, name in found} == set(TEST_REFERENCES)


def test_unreferenced_definition_check_catches_leftovers():
    source = ("class Ring:\n"
              "    def gens(self):\n"
              "        return self.gens()\n"
              "    def __eq__(self, other):\n"
              "        return isinstance(other, Ring)\n"
              "def used():\n"
              "    return Ring\n"
              "def helper():\n"
              "    return helper()\n")
    # Ring is read by used; a read inside its own definition counts for
    # nothing, so gens and helper, recursive as they are, are reported
    assert unreferenced_definitions({"m.py": source}) == [
        ("m.py", "gens"), ("m.py", "helper"), ("m.py", "used")]
    # a read in another source, or by a dotted name in a string, counts
    assert unreferenced_definitions(
        {"m.py": source}, ["used()", "WRAPPED = ['Ring.gens']"]) == \
        [("m.py", "helper")]
