"""A ratchet on the size of ``src/driftguard``: its line count and its
public top-level names may not grow.

The measure is the one ROADMAP aim 2 reads progress from: the lines of
every ``src/driftguard/*.py`` module (``wc -l``), and the names each module
binds at top level (functions, classes and assigned names, found with
``ast``) that do not start with an underscore.

A change that must grow ``src/`` raises the bound here in the same diff
and says why in CHANGES.md.  A change that shrinks it may lower the bound.

A module that no session loads is an API only tests call, so a fresh
``import driftguard.cli`` must load every module but the named exceptions.
"""

import ast
import glob
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "driftguard")

MAX_LINES = 3043
MAX_PUBLIC_NAMES = 105

# Modules that ``cli`` does not load yet: ROADMAP item 9 wires ``metrics``
# into the CLI.
NOT_LOADED_BY_CLI = {"metrics"}


def _modules() -> list[str]:
    return sorted(glob.glob(os.path.join(SRC, "*.py")))


def _public_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def test_src_lines_within_bound():
    lines = 0
    for path in _modules():
        with open(path, encoding="utf-8") as fh:
            lines += len(fh.read().splitlines())
    assert lines <= MAX_LINES, (
        f"src/driftguard has {lines} lines, over the bound {MAX_LINES}")


def test_public_names_within_bound():
    names = []
    for path in _modules():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        module = os.path.basename(path)[:-3]
        names += [f"{module}.{n}" for n in _public_names(tree)]
    assert len(_modules()) > 0
    assert len(names) <= MAX_PUBLIC_NAMES, (
        f"src/driftguard has {len(names)} public top-level names, over the "
        f"bound {MAX_PUBLIC_NAMES}")


def test_cli_loads_every_module():
    # A fresh interpreter, so modules that pytest or other tests import
    # cannot stand in for the CLI's own imports.
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, driftguard.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": os.path.dirname(SRC)},
        capture_output=True, text=True, check=True).stdout.split()
    modules = {os.path.basename(p)[:-3] for p in _modules()}
    missing = {m for m in modules - NOT_LOADED_BY_CLI - {"__init__"}
               if f"driftguard.{m}" not in loaded}
    assert not missing, f"import driftguard.cli leaves out {sorted(missing)}"
