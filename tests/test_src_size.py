"""A ratchet on the size of ``src/driftguard``: its line count and its
public top-level names may not grow.

The measure is the one ROADMAP aim 2 reads progress from: the lines of
every ``src/driftguard/*.py`` module (``wc -l``), and the names each module
binds at top level (functions, classes and assigned names, found with
``ast``) that do not start with an underscore.

A change that must grow ``src/`` raises the bound here in the same diff
and says why in CHANGES.md.  A change that shrinks it may lower the bound.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "driftguard")

MAX_LINES = 3214
MAX_PUBLIC_NAMES = 116


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
