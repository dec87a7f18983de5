"""Module boundaries: no module of the package imports a private name
of another."""

import ast
from pathlib import Path

import mmpass

PACKAGE = Path(mmpass.__file__).resolve().parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}"
                              f"{node.module or ''} import {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert not offenders, "\n".join(offenders)
