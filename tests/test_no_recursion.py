"""Only the rewriting specification calls itself.

Every other walk in ``src/csl`` is a loop or a :func:`csl.terms.fold`, so the
depth of a term or of an input is bounded by memory, not by the interpreter's
recursion limit. This test finds the functions that call themselves by name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "csl"

# rewrite_step is the specification that rewrite_np is tested against.
ALLOWED = {("terms.py", "rewrite_step")}


def self_calls(tree):
    """Names of the functions in ``tree`` that call themselves by name, as
    ``name(...)`` or, in a method, as ``self.name(...)`` / ``cls.name(...)``."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                yield fn.name
            elif (isinstance(f, ast.Attribute) and f.attr == fn.name
                  and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                yield fn.name


def test_self_calls_finds_recursion():
    source = """
def walk(t):
    return [walk(c) for c in t]

class Node:
    def depth(self):
        return 1 + self.depth()

def loop(t):
    return len(t)
"""
    assert set(self_calls(ast.parse(source))) == {"walk", "depth"}


def test_only_rewrite_step_calls_itself():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {
        (path.name, name)
        for path in paths
        for name in self_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == ALLOWED
