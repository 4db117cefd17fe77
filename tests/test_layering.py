"""Modules of the package reach each other only through public names.

A name with a leading underscore belongs to the module that defines it.
Another module may neither import it (``from .m import _name``) nor read
it off an object (``obj._name``) unless it defines that name itself, as a
class does for attributes read from another instance of the class.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "copulaproc")


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined_names(tree):
    """Every name the module binds: defs, classes, assignment targets."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def layering_violations(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    own = _defined_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [(node.lineno, f"imports {alias.name}")
                      for alias in node.names if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and not (isinstance(node.value, ast.Name)
                       and node.value.id in ("self", "cls"))
              and node.attr not in own):
            found.append((node.lineno, f"reads .{node.attr}"))
    return found


def test_no_module_reaches_into_another_modules_private_names():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    violations = [f"{os.path.basename(path)}:{line}: {what}"
                  for path in paths for line, what in layering_violations(path)]
    assert violations == []


def test_checker_flags_private_imports_and_reads(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from .other import _hidden, visible\n"
        "class Own:\n"
        "    def __init__(self):\n"
        "        self._mine = 1\n"
        "    def peer(self, other):\n"
        "        return other._mine + self._x + other.__class__.__name__\n"
        "def leak(family):\n"
        "    return family._theirs\n")
    assert layering_violations(source) == [(1, "imports _hidden"),
                                           (8, "reads ._theirs")]
