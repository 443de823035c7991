"""No module of the package imports a name it leaves unused, annotates
with a name it does not define, leaves anything it defines unreferenced,
or has a parameter whose default every call leaves in place.

There is no linter in the toolchain, so this walks the syntax trees.  An
import that is kept on purpose (a re-export) carries `# noqa: F401` and a
comment line right above it that says why.  A function, method or class
of the package must be read by name somewhere in the package or in
bench/; a method counts as read only as an attribute or in a dotted
string, since a local variable of its name reads something else.  The
few definitions that only tests read are listed, each with its reason,
and so are the few defaults that only tests vary.
"""

import ast
import builtins
import re
from collections import Counter, defaultdict
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCTIONS, ast.ClassDef)


def module_bindings(tree) -> set:
    """Every name the module binds outside its function and class bodies:
    definitions, imports and assignment targets."""
    bound, todo = set(), [tree]
    while todo:
        for node in ast.iter_child_nodes(todo.pop()):
            if isinstance(node, DEFS):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {alias.asname or alias.name.split(".")[0]
                          for alias in node.names}
            else:
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Store):
                    bound.add(node.id)
                todo.append(node)
    return bound


def annotation_names(note):
    """Every name an annotation reads, also inside a quoted one."""
    for node in ast.walk(note):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from annotation_names(ast.parse(node.value, mode="eval"))


def undefined_annotation_names(source: str) -> list:
    """(line, name) of every name read in an annotation that the module
    neither binds nor gets from the builtins.  Under `from __future__
    import annotations` no annotation is evaluated, so nothing else
    reports a name that a refactor left behind."""
    tree = ast.parse(source)
    known = module_bindings(tree) | set(dir(builtins))
    notes = [node.annotation for node in ast.walk(tree)
             if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    notes += [fn.returns for fn in ast.walk(tree)
              if isinstance(fn, FUNCTIONS) and fn.returns]
    return sorted((note.lineno, name) for note in notes
                  for name in annotation_names(note) if name not in known)


def test_package_annotations_name_only_what_modules_define():
    root = Path(injcrit.__file__).parent
    found = {path.name: undefined_annotation_names(path.read_text())
             for path in sorted(root.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_undefined_annotation_check_catches_leftovers():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .poly import Vec\n"
              "Table = dict\n"
              "class Ring:\n"
              "    size: int\n"
              "    def lift(self, v: Vec, t: _ActionTable) -> 'Ring':\n"
              "        return v\n"
              "def f(a: np.ndarray, *r: Table, **kw: 'Gone') -> list[Ring]:\n"
              "    local: Optional[int] = 1\n"
              "    return a\n")
    # imports, classes and module-level assignments define a name, and
    # builtins need no definition; a quoted annotation is read as well
    assert undefined_annotation_names(source) == [
        (7, "_ActionTable"), (9, "Gone"), (10, "Optional")]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# definitions that only tests read, and why they stay
TEST_REFERENCES = {}


def references(tree) -> tuple:
    """How often a syntax tree reads each identifier as a plain name, and
    how often as an attribute or as a word of a dotted-name string such
    as "GBuilder.complete", the form in which bench/tracer.py names what
    it wraps."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            attributes.update(node.value.split("."))
    return names, attributes


def unreferenced_definitions(defining: dict, others=()) -> list:
    """(file, name) of every function, method and class defined in
    `defining` (file name -> source) whose name no source, there or in
    `others`, reads outside the definition itself; a method counts only
    reads as an attribute or in a dotted string.  Dunder methods are
    called by the language and are skipped."""
    trees = {path: ast.parse(text) for path, text in defining.items()}
    names, attributes = Counter(), Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        tree_names, tree_attributes = references(tree)
        names.update(tree_names)
        attributes.update(tree_attributes)
    defs = [(path, node) for path, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, DEFS)]
    methods = {node for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, DEFS)}
    for _, node in defs:
        # a read inside the definition itself counts for nothing: a method
        # calls itself as an attribute of self, anything else by its name
        own_names, own_attributes = references(node)
        if node in methods:
            attributes[node.name] -= own_attributes[node.name]
        else:
            names[node.name] -= own_names[node.name]

    def read(node) -> bool:
        plain = 0 if node in methods else names[node.name]
        return plain + attributes[node.name] > 0

    return sorted((path, node.name) for path, node in defs
                  if not node.name.startswith("__") and not read(node))


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
              "    def lead(self):\n"
              "        return 1\n"
              "def used():\n"
              "    return Ring\n"
              "def helper():\n"
              "    return helper()\n"
              "def shadow():\n"
              "    lead = 1\n"
              "    return lead\n")
    # Ring is read by used; a read inside its own definition counts for
    # nothing, so gens and helper, recursive as they are, are reported;
    # so is lead, as the local variable lead of shadow reads no method
    assert unreferenced_definitions({"m.py": source}) == [
        ("m.py", "gens"), ("m.py", "helper"), ("m.py", "lead"),
        ("m.py", "shadow"), ("m.py", "used")]
    # a read in another source, or by a dotted name in a string, counts
    assert unreferenced_definitions(
        {"m.py": source},
        ["used(), shadow(), Ring().lead()", "WRAPPED = ['Ring.gens']"]) == \
        [("m.py", "helper")]


# method names that another class of the package, or a module-level
# function, also defines.  unreferenced_definitions counts a method as read
# when any attribute of its name is read, so one of these can be dead while
# its homonym is live: a new name here is traced by hand before it is added
HOMONYMS = {"_ensure", "act", "basis", "cache_key", "contains", "degree",
            "dims", "is_homogeneous", "is_zero", "multiplicity",
            "scale", "to_dict", "zero"}


def method_homonyms(defining: dict) -> set:
    """Every non-dunder method name that two or more classes of `defining`
    (file name -> source) define, or that a module-level function of it
    also has."""
    owners, functions = defaultdict(set), set()
    for path, text in defining.items():
        tree = ast.parse(text)
        functions |= {node.name for node in tree.body
                      if isinstance(node, FUNCTIONS)}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if (isinstance(node, FUNCTIONS)
                            and not node.name.startswith("__")):
                        owners[node.name].add((path, cls.name))
    return {name for name, classes in owners.items()
            if len(classes) > 1 or name in functions}


def test_package_method_homonyms_are_pinned():
    root = Path(injcrit.__file__).parent
    assert method_homonyms(
        {path.name: path.read_text()
         for path in sorted(root.glob("*.py"))}) == HOMONYMS


def test_method_homonym_check_catches_shared_names():
    source = ("class Poly:\n"
              "    def degree(self):\n"
              "        return 1\n"
              "    def lead(self):\n"
              "        return 1\n"
              "    def __eq__(self, other):\n"
              "        return True\n"
              "class Vec:\n"
              "    def degree(self):\n"
              "        return 2\n"
              "    def __eq__(self, other):\n"
              "        return True\n"
              "def lead(p):\n"
              "    return p.lead()\n")
    # degree is defined by two classes, lead by a class and a function;
    # dunders are the language's, and a module-level function alone is none
    assert method_homonyms({"m.py": source}) == {"degree", "lead"}
    # the classes may live in different files
    assert method_homonyms({"a.py": "class A:\n    def f(self): pass\n",
                            "b.py": "class B:\n    def f(self): pass\n"}) \
        == {"f"}


# parameters with a default that no call in the package or in bench/
# passes, (function, parameter) -> why they stay
KEPT_DEFAULTS = {
    ("matlis_dual", "bound"): "the dual's degree bound: tests raise it to "
                              "dualize modules generated far from degree 0",
}


def call_arguments(trees) -> dict:
    """For each name that is called, as a plain name or as an attribute,
    what each call passes: (number of positional arguments, keywords), or
    None when a * or ** argument may pass anything."""
    calls = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls[name].append(None if starred else (
                len(node.args), {k.arg for k in node.keywords}))
    return calls


def unpassed_defaults(defining: dict, callers=()) -> list:
    """(file, function, parameter) of every parameter with a default that
    no call in `defining` (file name -> source) or in `callers` passes, by
    keyword or by position.  Calls match by name alone, so a call of any
    function of the same name counts; a call through a class name counts
    for its __init__, whose self, like any method's, no call passes."""
    trees = {path: ast.parse(text) for path, text in defining.items()}
    calls = call_arguments([*trees.values(), *map(ast.parse, callers)])
    out = []
    for path, tree in trees.items():
        owner = {fn: cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(fn)
            positional = fn.args.posonlyargs + fn.args.args
            qualname, callee = fn.name, fn.name
            if cls is not None:
                positional = positional[1:]
                qualname = f"{cls.name}.{fn.name}"
                if fn.name == "__init__":
                    callee = cls.name
            first = len(positional) - len(fn.args.defaults)
            params = [(i, p.arg) for i, p in enumerate(positional)
                      if i >= first]
            params += [(None, p.arg) for p, default
                       in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if default is not None]
            out += [(path, qualname, arg) for i, arg in params
                    if not any(call is None or arg in call[1]
                               or i is not None and i < call[0]
                               for call in calls[callee])]
    return sorted(out)


def test_package_passes_every_default_somewhere():
    root = Path(injcrit.__file__).parent
    bench = root.parents[1] / "bench"
    found = unpassed_defaults(
        {path.name: path.read_text() for path in sorted(root.glob("*.py"))},
        [path.read_text() for path in sorted(bench.glob("*.py"))])
    assert {(fn, arg) for _, fn, arg in found} == set(KEPT_DEFAULTS)


def test_unpassed_default_check_catches_constants():
    source = ("class Tester:\n"
              "    def __init__(self, gens, order='pot', cap=9):\n"
              "        self.gens = gens\n"
              "    def reduce(self, v, full=True, *, limit=None):\n"
              "        return v\n"
              "def search(m, seed=1, tries=50):\n"
              "    return m\n"
              "def run(args, opts):\n"
              "    t = Tester([], 'lex')\n"
              "    t.reduce(1, limit=3)\n"
              "    return search(1, seed=2)\n")
    # Tester([], 'lex') passes order by position, not self; reduce's
    # full and search's tries keep their defaults at every call
    assert unpassed_defaults({"m.py": source}) == [
        ("m.py", "Tester.__init__", "cap"), ("m.py", "Tester.reduce", "full"),
        ("m.py", "search", "tries")]
    # a call in another source counts, and * or ** passes everything
    assert unpassed_defaults(
        {"m.py": source},
        ["Tester(*args)", "search(1, 2, 3)", "x.reduce(1, **opts)"]) == []
