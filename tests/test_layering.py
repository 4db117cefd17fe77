"""Modules of the package reach each other only through public names, and
only in one direction.

A name with a leading underscore belongs to the module that defines it.
Another module may neither import it (``from .m import _name``) nor read
it off an object (``obj._name``) unless it defines that name itself, as a
class does for attributes read from another instance of the class.

The modules form one ordered list, ``LAYERS``: each imports only modules
before it, so the numeric layers never reach the I/O of ``serialize`` or
the CLI.
"""

import ast
import glob
import os
import re

import copulaproc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "copulaproc")


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


#: every module of the package, each importing only modules before it
LAYERS = ("errors", "grid", "rng", "_quadrature", "marginals", "copulas", "sklar",
          "kl", "transport", "robustness", "serialize", "_kstest", "__init__",
          "cli", "__main__")


def imported_modules(path):
    """Package modules a module names in its relative imports; a name that
    ``from . import`` takes off the package itself counts as ``__init__``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is not None:
                found.add(node.module)
            else:
                found |= {alias.name if alias.name in LAYERS else "__init__"
                          for alias in node.names}
    return found


def test_each_module_imports_only_the_modules_before_it():
    names = sorted(os.path.basename(path)[:-3]
                   for path in glob.glob(os.path.join(SRC, "*.py")))
    assert names == sorted(LAYERS)
    upward = [f"{name} imports {other}" for i, name in enumerate(LAYERS)
              for other in sorted(imported_modules(os.path.join(SRC, name + ".py")))
              if other not in LAYERS[:i]]
    assert upward == []


def readme_public_names():
    """The names of each bullet of the README's "Public names" section, as
    (deleted, kept only by tests): the backquoted names before its colon."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Public names\n")[1].split("\n## ")[0]
    deleted, kept = section.split("\nKept although only tests call them:\n")
    return [{name for line in part.splitlines() if line.startswith("- ")
             for name in re.findall(r"`(\w+)`", line.split(":")[0])}
            for part in (deleted, kept)]


def test_readme_records_the_public_names_kept_and_deleted():
    deleted, kept = readme_public_names()
    assert deleted and kept
    assert kept <= set(copulaproc.__all__)
    sources = ""
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            sources += fh.read()
    assert not {name for name in deleted
                if name in copulaproc.__all__ or name in sources}
