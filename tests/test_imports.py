"""Every top-level import of a library module is used in that module."""

import ast
from pathlib import Path

import pytest

import quiverarr

MODULES = sorted(p for p in Path(quiverarr.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == [(1, "os"), (2, "c")]


# -- no function re-imports a sibling module imported at top level -------------------

def local_reimports(source):
    """(line, module) of every relative import inside a function from a
    module that the file already imports from at top level."""
    tree = ast.parse(source)
    top = {(n.level, n.module) for n in tree.body
           if isinstance(n, ast.ImportFrom) and n.level}
    funcs = [n for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = {(n.lineno, n.module) for f in funcs for n in ast.walk(f)
             if isinstance(n, ast.ImportFrom) and (n.level, n.module) in top}
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_local_reimport_of_a_top_level_import(path):
    assert local_reimports(path.read_text(encoding="utf-8")) == []


def test_local_reimport_is_caught():
    source = ("from .a import x\nfrom . import c\n\n"
              "def f():\n    from .a import y\n    return x, y\n\n"
              "class C:\n    def g(self):\n        def h():\n"
              "            from . import c\n        from .b import z\n"
              "        return h, z\n")
    assert local_reimports(source) == [(5, "a"), (11, None)]


# -- every function and method is referenced -----------------------------------------

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ([Path(quiverarr.__file__).parent / "__init__.py"] + MODULES
           + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))


def _references(tree):
    """Names read as a variable, an attribute or an imported name."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]


def _definitions(tree):
    """The module-level functions and the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (n for n in node.body
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _count(name, body):
    """How often `name` is referenced in the statements `body`."""
    return sum(1 for r in _references(ast.Module(body=body, type_ignores=[])) if r == name)


def _nested(func):
    """The functions defined inside func, at any depth, each with the
    function whose body defines it."""
    todo = [(n, func) for n in func.body]
    while todo:
        node, outer = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, outer
            todo.extend((n, node) for n in node.body)
        else:
            todo.extend((n, outer) for n in ast.iter_child_nodes(node))


def unreferenced(library, others=()):
    """(file, line, name) of every function or method defined in the
    `library` sources that no source references outside the bodies of the
    definitions of that name, and of every function nested in one of them
    that its enclosing function's body references only inside its own.
    Dunder methods are called by Python."""
    trees = {name: ast.parse(text) for name, text in [*library, *others]}
    refs = {}
    for tree in trees.values():
        for name in _references(tree):
            refs[name] = refs.get(name, 0) + 1
    defs = [(name, d) for name, _ in library for d in _definitions(trees[name])]
    own = {}
    for _, d in defs:
        own[d.name] = own.get(d.name, 0) + _count(d.name, d.body)
    out = [(name, d.lineno, d.name) for name, d in defs
           if not (d.name.startswith("__") and d.name.endswith("__"))
           and refs.get(d.name, 0) - own[d.name] <= 0]
    out += [(name, f.lineno, f.name) for name, d in defs for f, outer in _nested(d)
            if _count(f.name, outer.body) - _count(f.name, f.body) <= 0]
    return sorted(out)


def test_every_function_and_method_is_referenced():
    library = [(p.name, p.read_text(encoding="utf-8")) for p in MODULES]
    others = [(str(p), p.read_text(encoding="utf-8")) for p in SOURCES
              if p not in MODULES]
    assert unreferenced(library, others) == []


def test_unreferenced_function_is_caught():
    lib = ("m.py", "def used():\n    return 1\n\n"
                   "def unused():\n    return unused()\n\n"
                   "class C:\n    def __init__(self):\n        pass\n\n"
                   "    def gone(self):\n        return 2\n")
    other = ("t.py", "from m import used\nused()\n")
    assert unreferenced([lib], [other]) == [("m.py", 4, "unused"), ("m.py", 11, "gone")]


def test_unreferenced_nested_function_is_caught():
    lib = ("m.py", "def f():\n"
                   "    def used():\n        return 1\n"
                   "    def unused(n):\n        return unused(n - 1)\n"
                   "    def deeper():\n"
                   "        def gone():\n            return 2\n"
                   "        return 3\n"
                   "    for _ in ():\n"
                   "        def in_loop():\n            return 4\n"
                   "    return used() + deeper() + in_loop()\n")
    other = ("t.py", "from m import f\nf()\n")
    assert unreferenced([lib], [other]) == [("m.py", 4, "unused"), ("m.py", 7, "gone")]
