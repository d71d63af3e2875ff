"""A ratchet on bare ``ValueError`` and ``TypeError`` raises in projgeo.

A typed error from :mod:`projgeo.errors` names what went wrong; a bare
builtin does not.  ``BARE_SITES`` lists every bare raise left in
``src/projgeo``, one entry per ``raise`` statement.  A new bare raise fails
the test, and so does a listed one that is gone, so the list only shrinks,
and only on purpose.
"""

import ast
from pathlib import Path

import projgeo

BARE = ("ValueError", "TypeError")
BARE_SITES = [  # (module, enclosing function, exception)
    ("hopf_fibration", "sphere_to_cp1", "ValueError"),
    ("hopf_manifold", "HopfPoint.__post_init__", "ValueError"),
    ("jsonio", "_write", "TypeError"),
    ("jsonio", "encode", "TypeError"),
    ("numerics", "Tolerance.__post_init__", "ValueError"),
    ("numerics", "Tolerance.__post_init__", "ValueError"),
    ("numerics", "dtype_for", "ValueError"),
    ("projective", "_frozen_canonical", "ValueError"),
    ("projective", "_frozen_canonical", "ValueError"),
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
