"""Static checks over the package source."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tamelab").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that nothing in the
    module reads, `__all__` included."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


# private helpers that only tests call, with the reason each is kept
_TEST_ONLY_HELPERS = {
    "core._require_finite": "the reference validator in tests/test_core.py calls it",
}


def _unreferenced_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """`module.name` of each top-level function whose name starts with `_`
    that no module reads: as a name, an attribute or an imported name."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and node.name not in used
    ]


def test_sources_are_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_plain_aliased_and_reexported_names():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom a import b, c as d\nfrom e import f\n"
        "__all__ = ['f']\nnp.zeros(d)\n"
    )
    assert _unused_imports(tree) == ["os", "b"]


def test_every_private_helper_is_reached_from_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert sorted(_unreferenced_helpers(trees)) == sorted(_TEST_ONLY_HELPERS)


def test_the_helper_scan_sees_calls_attributes_and_imports():
    trees = {
        "a": ast.parse(
            "def _called():\n    pass\n\ndef _dead():\n    pass\n\n"
            "def _imported():\n    pass\n\ndef _by_attribute():\n    pass\n\n"
            "def public():\n    return _called()\n"
        ),
        "b": ast.parse("from .a import _imported\nimport a\n\nx = a._by_attribute\n"),
        "c": ast.parse("class K:\n    def _method(self):\n        pass\n"),
    }
    assert _unreferenced_helpers(trees) == ["a._dead"]


def _attribute_reads(tree: ast.Module, name: str) -> list[int]:
    """Line numbers, in walk order, where the module reads an attribute
    called `name`."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == name
        and isinstance(node.ctx, ast.Load)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_package_reads_points_from_the_array(path):
    # `DiscreteSequence.points` builds a tuple of row views on every read
    assert _attribute_reads(ast.parse(path.read_text(encoding="utf-8")), "points") == []


def test_the_attribute_scan_sees_reads_but_not_stores_keys_or_names():
    tree = ast.parse(
        "a = d.points\nfor p in s.points[1:]:\n    pass\n"
        "d.points = 1\nx = doc['points']\npoints = 2\ny = d.points_seen\n"
    )
    assert sorted(_attribute_reads(tree, "points")) == [1, 2]


def _callers(trees: dict[str, ast.Module], name: str) -> set[str]:
    """`module.function` of each top-level function or method that calls
    `name`, as a plain or an attribute call; `module` alone for a call
    outside any function."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                found.add(owner)
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and "." not in owner:
                inner = f"{owner}.{child.name}"
            visit(child, inner)

    for module, tree in trees.items():
        visit(tree, module)
    return found


def test_only_the_draw_block_generator_and_the_single_draw_call_the_batch_sampler():
    # estimators draw through `_draw_blocks`, which bounds the draws held at once
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _callers(trees, "haar_su_batch") == {
        "generic_projection._draw_blocks",
        "generic_projection.haar_su",
    }


def test_the_caller_scan_sees_plain_attribute_nested_and_module_calls():
    trees = {
        "a": ast.parse(
            "def f():\n    return g(1)\n\n"
            "def h():\n    def inner():\n        return m.g(2)\n    return inner\n\n"
            "class K:\n    def k(self):\n        return [g(x) for x in ()]\n\n"
            "def quiet():\n    return g\n\n"
            "x = g(3)\n"
        ),
    }
    assert _callers(trees, "g") == {"a.f", "a.h", "a.k", "a"}
