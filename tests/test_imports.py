"""Module boundaries: no module of the package imports a private name
of another, and no code reads a private attribute of anything but its
own instance or class."""

import ast
from pathlib import Path

import mmpass

PACKAGE = Path(mmpass.__file__).resolve().parent


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_private_names_imported_across_modules():
    offenders = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{name}: from {'.' * node.level}"
                              f"{node.module or ''} import {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert not offenders, "\n".join(offenders)


def test_no_private_attributes_of_other_objects():
    offenders = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.endswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                offenders.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, "\n".join(offenders)
