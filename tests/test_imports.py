"""Module boundaries: no module of the package imports a private name
of another, no code reads a private attribute of anything but its own
instance or class, and every public name has a caller in the package."""

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


# Public names that nothing in the package calls because something
# outside it does, each with the reason.
ENTRY_POINTS = {
    "cli.main": "the console script `mmpass` (pyproject.toml)",
}


class _References(ast.NodeVisitor):
    """Public definitions of one module and every name it reads.

    A module-level function or class is keyed ("name", module, name); a
    method or property ("attr", name), since without types a call
    ``obj.meth()`` can only be matched by the attribute name.  Each
    reference is recorded with the dotted names of the definitions that
    enclose it.
    """

    def __init__(self, module, imports):
        self.module, self.imports = module, imports
        self.stack = []   # (dotted name, is a class) of enclosing defs
        self.defs = {}    # dotted name -> reference key
        self.refs = []    # (reference key, enclosing dotted names)

    def _define(self, node):
        is_class = isinstance(node, ast.ClassDef)
        if not self.stack:
            key = ("name", self.module, node.name)
        elif self.stack[-1][1] and not is_class:
            key = ("attr", node.name)
        else:
            key = None
        dotted = (self.stack[-1][0] if self.stack else self.module)
        dotted += "." + node.name
        if key and not node.name.startswith("_"):
            self.defs[dotted] = key
        self.stack.append((dotted, is_class))
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def _read(self, key):
        self.refs.append((key, frozenset(d for d, _ in self.stack)))

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(self.imports.get(node.id,
                                        ("name", self.module, node.id)))

    def visit_Attribute(self, node):
        self._read(("attr", node.attr))
        if isinstance(node.value, ast.Name):  # module.name
            self._read(("name", node.value.id, node.attr))
        self.generic_visit(node)


def _unreferenced():
    """Public functions, classes, methods and properties that no code
    of the package outside ``__init__.py`` reads, other than their own
    bodies and the bodies of names that are themselves unreferenced."""
    defs, refs = {}, []
    for name, tree in _trees():
        if name == "__init__.py":
            continue
        imports = {alias.asname or alias.name: ("name", node.module,
                                                alias.name)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   for alias in node.names}
        scan = _References(name[:-3], imports)
        scan.visit(tree)
        defs.update(scan.defs)
        refs += scan.refs
    dead = set()
    while True:
        new = {d for d, key in defs.items()
               if d not in dead and d not in ENTRY_POINTS
               and not any(k == key and d not in where and not where & dead
                           for k, where in refs)}
        if not new:
            return sorted(dead)
        dead |= new


def test_every_public_name_has_a_caller_in_the_package():
    """Public API that no pipeline stage, driver or CLI command uses is
    deleted, or moved into the tests when it serves as an oracle.  A
    method sharing its name with a used method of another class passes
    unseen."""
    unused = _unreferenced()
    assert not unused, "unreferenced public names:\n" + "\n".join(unused)
