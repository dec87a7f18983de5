"""Module boundaries: no module of the package imports a private name
of another, no code reads a private attribute of anything but its own
instance or class, every public name has a caller in the package,
every dataclass field and every instance attribute has a reader and
every defaulted parameter a caller that sets it, no module imports
a name it does not use, and the package runs without scipy."""

import ast
import subprocess
import sys
from pathlib import Path

import mmpass

PACKAGE = Path(mmpass.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


# Dataclass fields that nothing in the package reads and defaulted
# parameters that nothing in the package sets, because something
# outside it does, each with the reason.
READ_OUTSIDE = {
    "bench.LobeMetrics.peak_db": "perfbench fingerprints vars(lobe)",
    "placement.TwoUserSolution.used_fallback":
        "the perfbench tracer counts pair solves in which a lane ran the "
        "search",
    "geometry.SphericalBasis.upsilon": "it completes the orthonormal triad",
    "multiuser.SlotSolution.rx":
        "tests recompose a slot's channel from its receive vectors",
    "multiuser.PrecoderFactorization.chi":
        "tests read it; it belongs in a run record",
    "multiuser.fp_precoding(max_iter)":
        "perfbench binds it by signature to count capped FP runs",
    "bench.run_field_map(port_pitch)":
        "the perfbench figures workload draws the pitch per drop",
    "cli.main(argv)": "tests drive the CLI in process",
}


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


class _Reads(ast.NodeVisitor):
    """Attribute names read in some modules: ``self.<name>`` reads per
    innermost enclosing class, every other read for all classes."""

    def __init__(self):
        self.anywhere = set()
        self.by_class = {}   # ClassDef node -> names read on self
        self.classes = []

    def visit_ClassDef(self, node):
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            if (self.classes and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                self.by_class.setdefault(self.classes[-1], set()).add(
                    node.attr)
            else:
                self.anywhere.add(node.attr)
        self.generic_visit(node)

    def of(self, cls):
        """The names a field or attribute of ``cls`` may be read by."""
        return self.anywhere | self.by_class.get(cls, set())


def _reads(trees):
    reads = _Reads()
    for tree in trees.values():
        reads.visit(tree)
    return reads


def _unread_fields(trees):
    """Fields of the dataclasses of ``trees`` (module file name -> AST)
    that no attribute read carries: a read of ``self.<name>`` counts
    only for the class it occurs in."""
    reads = _reads(trees)
    return {f"{name[:-3]}.{cls.name}.{stmt.target.id}"
            for name, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            and any(map(_is_dataclass, cls.decorator_list))
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in reads.of(cls)}


def _unread_instance_attributes(trees):
    """Attributes that a method of a plain (non-dataclass) class of
    ``trees`` sets on ``self`` and that no attribute read carries, with
    ``self.<name>`` reads counted as in ``_unread_fields``."""
    reads = _reads(trees)
    return sorted(
        f"{name[:-3]}.{cls.name}.{node.attr}"
        for name, tree in trees.items() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and not any(map(_is_dataclass, cls.decorator_list))
        for method in cls.body if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr not in reads.of(cls))


class _Defaults(ast.NodeVisitor):
    """Defaulted parameters of every function and method of one module,
    as (dotted name, callee name, parameter, position after self/cls or
    None for keyword-only).  A method ``__init__`` is called by its
    class name."""

    def __init__(self, module):
        self.stack = [(module, False)]
        self.params = []

    def visit_ClassDef(self, node):
        self.stack.append((f"{self.stack[-1][0]}.{node.name}", True))
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node):
        parent, in_class = self.stack[-1]
        callee = node.name
        if in_class and node.name == "__init__":
            callee = parent.rsplit(".", 1)[1]
        args = node.args
        positional = args.posonlyargs + args.args
        skip = int(in_class and not any(
            getattr(d, "id", None) == "staticmethod"
            for d in node.decorator_list))
        first = len(positional) - len(args.defaults)
        dotted = f"{parent}.{node.name}"
        for i, arg in enumerate(positional[first:], start=first):
            self.params.append((dotted, callee, arg.arg, i - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self.params.append((dotted, callee, arg.arg, None))
        self.stack.append((dotted, False))
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def _unset_parameters():
    """Defaulted parameters that no call of the package sets by keyword
    or by position; a call with ``*`` or ``**`` sets every one."""
    params, calls = [], []
    for name, tree in _trees():
        scan = _Defaults(name[:-3])
        scan.visit(tree)
        params += scan.params
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                starred = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                calls.append((callee, len(node.args), starred,
                              {k.arg for k in node.keywords}))
    return {f"{dotted}({param})" for dotted, callee, param, pos in params
            if not any(c == callee and (starred or param in keywords
                                        or (pos is not None and n > pos))
                       for c, n, starred, keywords in calls)}


def _check_allowed(found, params, label):
    """``found`` has no names beyond READ_OUTSIDE, and every entry of
    READ_OUTSIDE of its kind (parameters if ``params``, else fields) is
    in ``found``."""
    extra = sorted(found - set(READ_OUTSIDE))
    assert not extra, f"{label}:\n" + "\n".join(extra)
    stale = sorted({k for k in READ_OUTSIDE if ("(" in k) == params} - found)
    assert not stale, "used in the package after all:\n" + "\n".join(stale)


def test_every_dataclass_field_is_read_in_the_package():
    """A field that nothing reads is deleted.  Reads match by attribute
    name, so a field sharing its name with an attribute read outside
    ``self`` passes unseen; a read of ``self.<name>`` counts only for
    its own class."""
    _check_allowed(_unread_fields(dict(_trees())), False,
                   "unread dataclass fields")


def test_every_instance_attribute_is_read_in_the_package():
    """State that a plain class keeps on its instances (``_SlotSolver``,
    ``PortResponse``) and that nothing reads is deleted.  Reads match by
    attribute name, as for dataclass fields."""
    unread = _unread_instance_attributes(dict(_trees()))
    assert not unread, "unread instance attributes:\n" + "\n".join(unread)


SELF_READS = """
from dataclasses import dataclass


@dataclass
class Slot:
    rx: float
    gain: float
    lam: float


class Solver:
    def __init__(self):
        self.rx = self.gain = self.spare = 0.0

    def rate(self, slot):
        return self.rx * slot.gain
"""


def test_a_self_read_counts_only_for_its_own_class():
    # Solver reads its own rx, which leaves Slot.rx unread; slot.gain is
    # read outside self, so it counts for both classes
    trees = {"synthetic.py": ast.parse(SELF_READS)}
    assert _unread_fields(trees) == {"synthetic.Slot.rx", "synthetic.Slot.lam"}
    assert _unread_instance_attributes(trees) == ["synthetic.Solver.spare"]


def test_every_defaulted_parameter_is_set_in_the_package():
    """An option that no caller sets becomes a constant.  Calls match
    by callee name, as methods do above."""
    _check_allowed(_unset_parameters(), True,
                   "defaulted parameters that no caller sets")


def test_no_unused_imports():
    """Every imported name is used in its module; ``__init__.py``
    re-exports and ``from __future__`` imports are exempt."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            offenders += [f"{path.parent.name}/{path.name}:{node.lineno}: "
                          f"{name}" for name in bound if name not in used]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


def test_package_imports_no_scipy():
    """scipy is a test oracle only: importing the package, its CLI and
    its drivers loads no scipy module."""
    code = ("import sys, mmpass, mmpass.cli, mmpass.bench; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=PACKAGE.parent).stdout
    assert out.strip() == "[]", out


def test_default_scenario_loads_no_yaml():
    """The YAML parser is imported by ``config.load_config`` alone:
    importing the package, its CLI and its drivers and building the
    default scenario loads no yaml module."""
    code = ("import sys, mmpass, mmpass.cli, mmpass.bench; "
            "from mmpass import config; "
            "config.build_scenario(config.ScenarioConfig()); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('yaml', '_yaml')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=PACKAGE.parent).stdout
    assert out.strip() == "[]", out


def test_scenario_setup_loads_only_the_scenario_layer():
    """The benchmark's set-up path, ``from mmpass import config`` and one
    ``build_scenario``, loads the scenario layer alone: the package
    re-exports lazily.  Every exported name then resolves to the object
    of the module that defines it."""
    code = ("import sys; from mmpass import config; "
            "config.build_scenario(config.ScenarioConfig()); "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'mmpass')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=PACKAGE.parent).stdout
    assert out.split() == ["mmpass", "mmpass.config", "mmpass.geometry",
                           "mmpass.scenario", "mmpass.waveguide"], out
    assert len(set(mmpass.__all__)) == len(mmpass.__all__) == 38
    for name in mmpass.__all__:
        value = getattr(mmpass, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
