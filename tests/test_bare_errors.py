"""A ratchet on bare ``ValueError`` and ``TypeError`` raises in projgeo.

A typed error from :mod:`projgeo.errors` names what went wrong; a bare
builtin does not.  ``BARE_SITES`` lists every bare raise left in
``src/projgeo``, one entry per ``raise`` statement.  A new bare raise fails
the test, and so does a listed one that is gone, so the list only shrinks,
and only on purpose.
"""

import ast
import math
from pathlib import Path

import pytest

import projgeo
from projgeo.errors import InvalidInput

BARE = ("ValueError", "TypeError")
BARE_SITES = [  # (module, enclosing function, exception)
    ("jsonio", "_write", "TypeError"),
    ("jsonio", "encode", "TypeError"),
]


def _bare_raises(tree: ast.AST, module: str) -> list[tuple[str, str, str]]:
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in BARE:
                    sites.append((module, ".".join(scope), exc.id))
            visit(child, inner)

    visit(tree, ())
    return sites


def test_bare_error_sites_only_shrink():
    found = []
    for path in sorted(Path(projgeo.__file__).parent.glob("*.py")):
        found += _bare_raises(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == sorted(BARE_SITES)


def test_the_ratchet_sees_methods_nested_functions_and_bare_names():
    code = (
        "class A:\n    def f(self):\n        raise ValueError('x')\n"
        "def g():\n    def h():\n        raise TypeError\n    raise KeyError('y')\n"
    )
    assert _bare_raises(ast.parse(code), "m") == [
        ("m", "A.f", "ValueError"), ("m", "g.h", "TypeError")]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: projgeo.Tolerance(eps_abs=0.0), "eps_abs must be positive and finite, got 0.0"),
        (lambda: projgeo.Tolerance(cond_max=1.0), "cond_max must be greater than 1 and finite, got 1.0"),
        (lambda: projgeo.Tolerance(cond_max=math.nan), "cond_max must be greater than 1 and finite, got nan"),
        (lambda: projgeo.numerics.dtype_for("quaternion"), "unknown field 'quaternion'"),
        (lambda: projgeo.sphere_to_cp1([0.0, 0.0, 2.0]), "expected a unit vector of R^3, got norm 2.0"),
    ],
    ids=["eps", "cond", "cond-nan", "field", "sphere"],
)
def test_former_bare_raises_are_invalid_input_naming_the_value(call, message):
    with pytest.raises(InvalidInput) as info:
        call()
    assert str(info.value) == message
