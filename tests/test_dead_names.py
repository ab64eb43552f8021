"""Every function and class that ``src/csl`` defines is used.

A module-level definition must be named somewhere outside its own body: in
``src/``, ``tests/`` or ``perfbench/``, by a call, an import, an attribute
or a string such as a monkeypatch target. Docstrings do not count, so a
helper that only its own documentation mentions is reported.

A second tier asks more: a definition that no code in ``src/`` names, one
that only tests or the benchmark keep alive, must be listed in
:data:`OUTSIDE_ONLY` with the reason it stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Definitions in src/ that only tests or the benchmark name, each with why it stays.
OUTSIDE_ONLY = {
    "hull_witness": "the benchmark's tracer wraps it, and the kernel's tests solve one-shot systems with it",
}


def references(tree):
    """The names ``tree`` refers to: names, attributes, imported names and
    the words of its strings other than docstrings."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *DEFINITIONS)) and ast.get_docstring(node) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            yield from re.findall(r"\w+", node.value)


def dead_names(defining, others):
    """The module-level functions and classes of the trees ``defining`` that
    no tree of ``defining`` or ``others`` names outside their own body."""
    total = Counter(name for tree in [*defining, *others] for name in references(tree))
    return {node.name for tree in defining for node in tree.body
            if isinstance(node, DEFINITIONS) and total[node.name] == Counter(references(node))[node.name]}


def test_dead_names_finds_definitions_named_nowhere_else():
    module = ast.parse('''
def used():
    """Calls helper."""

def helper():
    return 1

def only_documented():
    return 2

def recursive(n):
    return recursive(n - 1)

def patched():
    pass

class Kept:
    pass
''')
    caller = ast.parse('''
"""Calls only_documented."""
import m
from m import Kept
m.used()
helper_value = m.helper()
monkeypatch.setattr("m.patched", None)
''')
    assert dead_names([module], [caller]) == {"only_documented", "recursive"}


def parsed(folder):
    paths = sorted((ROOT / folder).glob("**/*.py"))
    assert paths, folder
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def test_every_definition_in_src_is_named_elsewhere():
    assert dead_names(parsed("src/csl"), parsed("tests") + parsed("perfbench")) == set()


def test_a_definition_that_only_tests_or_the_benchmark_name_is_listed_with_its_reason():
    assert dead_names(parsed("src/csl"), []) == set(OUTSIDE_ONLY)
    assert all(reason.strip() and "\n" not in reason for reason in OUTSIDE_ONLY.values())
