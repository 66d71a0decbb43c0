"""The test modules themselves: no definition silently replaces another.

A second ``class TestX:`` or ``def test_x`` at a module's top level, or a
second method of one name in a class, rebinds the name: pytest collects
only the later one and reports nothing about the first.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

MODULES = sorted(Path(__file__).parent.glob("*.py"))


def _repeats(body) -> list:
    """Names bound more than once by the function and class definitions of body."""
    names = Counter(node.name for node in body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    return sorted(name for name, count in names.items() if count > 1)


def _module_repeats(source: str) -> dict:
    """{scope: repeated names}: "<module>" for the top level, else the class name."""
    tree = ast.parse(source)
    found = {"<module>": _repeats(tree.body)}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):  # a repeated class's bodies are each checked
            found[node.name] = found.get(node.name, []) + _repeats(node.body)
    return {scope: names for scope, names in found.items() if names}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_definition_is_repeated(path):
    assert _module_repeats(path.read_text(encoding="utf-8")) == {}


def test_the_guard_sees_repeats():
    source = ("class TestA:\n    def test_x(self): pass\n    def test_x(self): pass\n"
              "class TestA:\n    pass\n"
              "def test_y(): pass\n")
    assert _module_repeats(source) == {"<module>": ["TestA"], "TestA": ["test_x"]}
    assert MODULES and Path(__file__) in MODULES
