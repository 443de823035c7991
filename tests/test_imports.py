"""No module of the package imports a name it leaves unused.

There is no linter in the toolchain, so this walks the syntax trees.  An
import that is kept on purpose (a re-export) carries `# noqa: F401` and a
comment line right above it that says why.
"""

import ast
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
