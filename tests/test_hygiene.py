"""Source hygiene checks that need only the standard library.

Every module of the package (``__init__.py`` aside, whose imports are its
re-exports) must use each name it imports.  A name counts as used when it
appears in the code or inside a string annotation such as ``"KMatrix"``.

No module but ``equations.py`` reads the attribute ``conn``: the package
works on connection arrays, and ``Equation.conn`` is a view kept for the
benchmark's oracle.  Under ``tests/`` one test alone reads it, to check it
against ``conftest.conn_of``; the oracles read connections through
``conn_of``.  Nor does any other module read ``array`` or ``denom`` of an
equation: they read connections through ``Equation.integral`` and
``Equation.scalars``, so an induced equation's array is only gathered where
it is needed.  Likewise every matrix over k but the connection view is one
array: no module but ``equations.py`` defines, imports or reads ``KMatrix``
or ``Fn``, the view defines nothing but what the benchmark wraps, neither
name is exported, and no module builds a matrix from one scalar matrix per
point.

Outside ``linalg.py`` no module reads from ``linalg`` anything but the
elimination kernels: every other matrix is an array.

Every function and method that the benchmark's traced mode wraps by dotted
path (``perfbench/layers.py``) must exist in the package, and the benchmark's
correctness oracle (``perfbench/oracle.py``), which reads groups and
connections directly, must still agree with the expected dimensions.
"""

import ast
import importlib
import os

import pytest

import gdiff
from conftest import PERFBENCH, perfbench_module
from gdiff.equations import KMatrix

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "gdiff")
MODULES = sorted(f for f in os.listdir(PACKAGE)
                 if f.endswith(".py") and f != "__init__.py")


def parse(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=module)


def imported_names(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= used_names(ast.parse(n.value, mode="eval"))
    return used


def test_used_names_resolve_string_annotations():
    tree = ast.parse('from .equations import KMatrix\n'
                     'def f(x: "KMatrix") -> "Optional[int]": pass\n')
    assert {"KMatrix", "Optional", "int"} <= used_names(tree)
    assert set(imported_names(tree)) == {"KMatrix"}


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    tree = parse(module)
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{module} imports names it never uses: {unused}"


def attribute_reads(tree, attr):
    """Line numbers where the attribute ``attr`` of anything is read."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == attr)


def test_attribute_reads_finds_chains():
    tree = ast.parse("x = eq.conn[0]\ny = f(a.b).conn\nconn = 1\n")
    assert attribute_reads(tree, "conn") == [1, 2]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "equations.py"])
def test_only_equations_reads_the_kmatrix_view(module):
    # Equation.conn is a view built on first use for code that reads scalars
    # one at a time (the test oracles, the benchmark's oracle); the package
    # itself reads the connection arrays
    tree = parse(module)
    assert not attribute_reads(tree, "conn"), \
        f"{module} reads .conn at lines {attribute_reads(tree, 'conn')}"


def connection_reads(tree):
    """Line numbers where the attribute ``array`` or ``denom`` of anything
    but the name ``np`` is read: ``np.array`` is numpy's constructor."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("array", "denom")
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id == "np"))


def test_connection_reads_skip_numpy():
    tree = ast.parse("a = np.array(x)\nb = eq.array[0]\nc = f(e).denom\n")
    assert connection_reads(tree) == [2, 3]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "equations.py"])
def test_only_equations_reads_the_stored_connection(module):
    # an induced equation gathers its (|G|, |S|, n, n) array on first read;
    # the package reads the cells it needs through Equation.integral
    tree = parse(module)
    assert not connection_reads(tree), \
        f"{module} reads .array or .denom at lines {connection_reads(tree)}"


@pytest.mark.parametrize("module", [m for m in MODULES + ["__init__.py"]
                                    if m != "equations.py"])
def test_morphism_modules_use_no_pointwise_matrices(module):
    # morphisms, operator coefficients, skew group algebra elements,
    # coordinates and parsed matrices are arrays of scalars: no module but
    # the one that defines the connection view builds a matrix over k or a
    # function on the space as a tuple
    tree = parse(module)
    for name in ("KMatrix", "Fn"):
        assert name not in imported_names(tree), f"{module} imports {name}"
        assert not attribute_reads(tree, name), f"{module} reads .{name}"
        assert name not in used_names(tree), f"{module} reads {name}"
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    and node.name == name], f"{module} defines {name}"


def test_kmatrix_is_a_view_with_the_wrapped_names():
    # besides the view it builds on construction, KMatrix defines the three
    # methods the benchmark's traced mode wraps, and nothing else
    wrapped = {row[0].rsplit(".", 1)[1]
               for row in perfbench_module("layers")["TARGETS"]
               if row[0].startswith("gdiff.equations.KMatrix.")}
    assert wrapped == {"mul", "g_act", "inverse"}
    assert {k for k in vars(KMatrix) if not k.startswith("__")} == wrapped


def test_pointwise_names_are_not_exported():
    assert not {"KMatrix", "Fn"} & set(gdiff.__all__)


TESTS = os.path.dirname(os.path.abspath(__file__))


def conn_readers():
    """(file, top-level function) of every read of the attribute ``conn``
    under tests/, with (file, None) for a read outside any function."""
    found = set()
    for name in sorted(os.listdir(TESTS)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in tree.body:
            if attribute_reads(node, "conn"):
                found.add((name, getattr(node, "name", None)))
    return found


def test_one_test_reads_the_connection_view():
    # the oracles read connections through conftest.conn_of; only the test
    # of the view itself reads Equation.conn
    assert conn_readers() == {("test_equations.py",
                               "test_conn_view_matches_the_oracle")}


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_matrix_is_built_point_by_point(module):
    assert not attribute_reads(parse(module), "from_point_matrices")


# What ``linalg`` offers the rest of the package: the elimination kernels,
# which take nested lists, the batched singularity test on arrays, and the
# type names of the kernels' interface.
LINALG_KERNELS = {"rank", "nullspace", "nullspace_form", "solve", "inv", "det",
                  "RowSpace", "row_space_basis", "charpoly", "rational_roots",
                  "any_singular", "Matrix", "Vector"}


def linalg_names(tree):
    """The names a module reads from ``linalg``: attributes of the name
    ``linalg`` and names imported from it."""
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "linalg"}
    return read | {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "linalg" for alias in node.names}


def test_linalg_names_ignore_numpy_linalg():
    tree = ast.parse("from .linalg import solve\n"
                     "x = linalg.rank(a) + np.linalg.norm(a)\n")
    assert linalg_names(tree) == {"solve", "rank"}


@pytest.mark.parametrize("module", [m for m in MODULES if m != "linalg.py"])
def test_only_linalg_kernels_are_read(module):
    # every matrix outside the kernels is an array: no module does matrix
    # arithmetic on nested lists through linalg
    extra = linalg_names(parse(module)) - LINALG_KERNELS
    assert not extra, f"{module} reads linalg.{sorted(extra)}"


@pytest.mark.parametrize(
    "path", [row[0] for row in perfbench_module("layers")["TARGETS"]])
def test_traced_target_exists(path):
    # a path is gdiff.module.function or gdiff.module.Class.method
    parts = path.split(".")
    assert parts[0] == "gdiff" and len(parts) in (3, 4), path
    module = importlib.import_module(".".join(parts[:2]))
    assert os.path.dirname(os.path.abspath(module.__file__)) == PACKAGE
    if len(parts) == 3:
        assert callable(getattr(module, parts[2], None)), path
    else:
        owner = vars(module).get(parts[2])
        assert isinstance(owner, type), path
        assert parts[3] in vars(owner), path


def test_benchmark_oracle_agrees(tmp_path, monkeypatch):
    # the oracle imports its sibling module ``workloads`` by name
    monkeypatch.syspath_prepend(PERFBENCH)
    oracle = perfbench_module("oracle")
    workloads = perfbench_module("workloads")
    assert oracle["check"](workloads["involution"](1), str(tmp_path)) == {}
