"""Rules that the package source must keep.

Every failure reaches the command line as a typed PerturbLabError (exit
codes 0-4, never a traceback): no handler may catch everything and carry
on, no check may be an assert, which python -O strips, and no error may be
a bare ValueError, which the command line does not map to an exit code.

A command starts lean: scipy is no runtime dependency, and mpmath loads
only inside the functions that compute in extended precision.
"""

import ast
from pathlib import Path

import pytest

import perturblab

SOURCES = sorted(Path(perturblab.__file__).parent.glob("*.py"))


def offences(tree):
    """(line, what) of each bare except, except Exception/BaseException
    (alone or in a tuple), assert statement and raise ValueError (the class
    or an instance) in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = (node.exc.func if isinstance(node.exc, ast.Call)
                   else node.exc)
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append((node.lineno, "raise ValueError"))
        elif isinstance(node, ast.ExceptHandler):
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            for t in types:
                if t is None:
                    found.append((node.lineno, "bare except"))
                elif (isinstance(t, ast.Name)
                      and t.id in ("Exception", "BaseException")):
                    found.append((node.lineno, f"except {t.id}"))
    return found


def test_rules_are_detected():
    code = ("try:\n    pass\nexcept:\n    pass\n"
            "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
            "try:\n    pass\nexcept ValueError:\n    pass\n"
            "assert True\n"
            "raise ValueError('x')\n"
            "raise ValueError\n"
            "raise KeyError('x')\n")
    assert sorted(offences(ast.parse(code))) == [
        (3, "bare except"), (7, "except Exception"), (13, "assert"),
        (14, "raise ValueError"), (15, "raise ValueError")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_catch_all_or_assert(path):
    assert offences(ast.parse(path.read_text(encoding="utf-8"))) == []


#: top-level names that no module of the package loads, and why each stays
KEPT_UNREACHED = {
    "clark_transform": "acceptance criterion 06 builds its Clark field",
    "gauge_check": "acceptance criterion 03 checks the gauge law with it",
    "adjoint_data": "acceptance criterion 04 builds L* from it, and the "
                    "Section-4 operator against its adjoint (ROADMAP item 3) "
                    "is to use it",
    "serialize_problem": "the tests write their problem files with it",
    "kernel_k": "acceptance criterion 06 checks the reproducing formula "
                "with it",
}


def definitions(tree):
    """(line, name) of each top-level function, class and constant of a
    parsed module that has no decorator; dunder names are metadata."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found += [(name.lineno, name.id) for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def loads(tree):
    """The names a parsed module reads: ast.Name in Load context, the
    attribute of each ast.Attribute and each name an import brings in."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unreached(trees, kept=()):
    """(module, line, name) of each definition (see definitions) that no
    module of trees, a {module: parsed module} map, loads, less kept."""
    loaded = set().union(*map(loads, trees.values()))
    return [(module, line, name) for module, tree in sorted(trees.items())
            for line, name in definitions(tree)
            if name not in loaded and name not in kept]


def unused_imports(tree):
    """(line, name) of each name an import binds in a parsed module that
    no ast.Name of the module reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(node.lineno, alias.asname or alias.name.split(".")[0])
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in read]


def test_reachability_rules_are_detected():
    lib = ast.parse("import os\n"
                    "import numpy as np\n"
                    "from math import pi, tau\n"
                    "LIMIT = 1\n"
                    "LOW, HIGH = 2, 3\n"
                    "__version__ = '0'\n"
                    "def used():\n    return np.sqrt(pi) + HIGH\n"
                    "def orphan():\n    return LOW\n"
                    "def kept():\n    pass\n"
                    "@decorated\ndef command():\n    pass\n"
                    "class Report:\n    pass\n"
                    "class Method:\n    def used(self):\n        pass\n")
    app = ast.parse("from lib import used, Report\n"
                    "used(Report)\n")
    assert unreached({"lib": lib, "app": app}, kept={"kept"}) == [
        ("lib", 4, "LIMIT"), ("lib", 9, "orphan"), ("lib", 18, "Method")]
    assert unused_imports(lib) == [(1, "os"), (3, "tau")]
    assert unused_imports(app) == []


def test_every_definition_is_reached():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    assert unreached(trees, KEPT_UNREACHED) == []


def test_kept_names_exist_and_stay_unreached():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    defined = {name for tree in trees.values()
               for _, name in definitions(tree)}
    assert set(KEPT_UNREACHED) <= defined
    assert {name for _, _, name in unreached(trees)} >= set(KEPT_UNREACHED)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def heavy_imports(tree):
    """(line, what) of each import of scipy in a parsed module, and of each
    import of mpmath outside a function body."""
    in_functions = {id(inner) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        if "scipy" in roots:
            found.append((node.lineno, "import scipy"))
        if "mpmath" in roots and id(node) not in in_functions:
            found.append((node.lineno, "module-level import mpmath"))
    return found


def test_heavy_imports_are_detected():
    code = ("import scipy.optimize\n"
            "from scipy import integrate\n"
            "import mpmath as mp\n"
            "from mpmath import mpf\n"
            "from . import mpmath_free\n"
            "def extended():\n    import mpmath\n"
            "def solve():\n    from scipy.optimize import brentq\n"
            "class Holder:\n    import mpmath\n")
    assert heavy_imports(ast.parse(code)) == [
        (1, "import scipy"), (2, "import scipy"),
        (3, "module-level import mpmath"), (4, "module-level import mpmath"),
        (9, "import scipy"), (11, "module-level import mpmath")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_and_no_eager_mpmath(path):
    assert heavy_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
