"""The package's own sources: every private name they define is also used."""

import ast
import re
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "resonet").glob("*.py"))


def _defined(tree: ast.Module) -> set:
    """The functions, classes and methods a module defines at any depth, and its module-level names."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {node.name for node in ast.walk(tree) if isinstance(node, kinds)}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _exported(tree: ast.Module) -> set:
    """The names listed in a module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_unexported_name_is_used():
    # A name that is neither exported nor a dunder must appear as a whole word at least twice in the
    # package: its definition and one use.  A deleted path then leaves no orphan helper behind.
    assert SOURCES
    texts = {path: path.read_text() for path in SOURCES}
    everything = "\n".join(texts.values())
    unused = []
    for path, text in texts.items():
        tree = ast.parse(text, filename=str(path))
        for name in sorted(_defined(tree) - _exported(tree)):
            if name.startswith("__") and name.endswith("__"):
                continue
            if len(re.findall(rf"\b{re.escape(name)}\b", everything)) < 2:
                unused.append(f"{path.name}: {name}")
    assert unused == []
