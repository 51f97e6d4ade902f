"""Rules of the error contract that the package source must keep.

Every failure reaches the command line as a typed PerturbLabError (exit
codes 0-4, never a traceback): no handler may catch everything and carry
on, no check may be an assert, which python -O strips, and no error may be
a bare ValueError, which the command line does not map to an exit code.
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
