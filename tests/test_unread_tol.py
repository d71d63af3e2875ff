"""A ratchet on parameters that decide nothing.

A public function of projgeo must read every parameter it takes, or pass it
on: a knob that changes no answer misleads its caller, and ``tol`` was the
usual case.  The scan parses every module of ``src/projgeo`` and fails on a
public function, or a public method of a public class, with a parameter that
its body never names.
"""

import ast
from pathlib import Path

import projgeo


def _unread_params(tree: ast.AST, module: str) -> list[str]:
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and not child.name.startswith("_"):
                visit(child, (*scope, child.name))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name.startswith("_"):
                    continue
                args = child.args
                params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                          args.vararg, args.kwarg) if a is not None]
                names = {n.id for n in ast.walk(child) if isinstance(n, ast.Name)}
                name = ".".join((module, *scope, child.name))
                found.extend(f"{name}({p})" for p in params if p not in names)

    visit(tree, ())
    return found


def test_every_public_parameter_is_read():
    found = []
    for path in sorted(Path(projgeo.__file__).parent.glob("*.py")):
        found += _unread_params(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == []


def test_the_ratchet_sees_functions_and_methods_and_skips_private_ones():
    code = (
        "def f(x, tol=None):\n    return x\n"
        "def g(x, tol=None):\n    return h(x, tol)\n"
        "def _p(x, tol=None):\n    return x\n"
        "class A:\n    def m(self, *, tol=None):\n        return 1\n"
        "class _B:\n    def m(self, tol=None):\n        return 1\n"
        "def k(x, tol=None):\n    return tol.eps_abs * x\n"
        "def d(n, field='real', *rest, **opts):\n    return n + len(rest)\n"
    )
    assert _unread_params(ast.parse(code), "mod") == [
        "mod.f(tol)", "mod.A.m(self)", "mod.A.m(tol)", "mod.d(field)", "mod.d(opts)",
    ]
