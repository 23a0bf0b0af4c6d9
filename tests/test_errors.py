"""Callers handle an error in two ways, so the package has two exception
classes: ConfigError (exit 2) and MouseAuthError (everything else, exit 1).
A new class nothing tells apart, or a raise of a built-in type, fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mouseauth"
CLASSES = {"ConfigError", "MouseAuthError"}


def test_errors_module_defines_two_classes():
    tree = ast.parse((SRC / "errors.py").read_text())
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == CLASSES


def test_every_raise_names_one_of_the_two_classes():
    others = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare re-raise
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in CLASSES):
                others.append(f"{path.name}:{node.lineno}: {ast.unparse(node.exc)}")
    assert others == []
