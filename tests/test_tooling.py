"""The traced benchmark run and the package exports name what exists.

perfbench/tracer.py names its targets as (module, attribute) pairs; a
deleted or renamed function would break the traced run, so each pair must
resolve in the package.  A stale name in asmref.__all__ would break
`from asmref import *` in the same way.  A helper that two modules share,
such as polynomials.apply_axis, is public within the package: no module
imports an underscore-prefixed name from another.  Every Budget field is
read by the module whose computation it caps, so a cap nothing reads fails.
Verifiers state their equations as cases, so only reports.py builds a Witness.
Sizes pass combinat.as_size, so no other module states an order's or a
depth's range itself.  The README's library example prints what its comments say.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import asmref
from asmref.config import Budget

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = Path(asmref.__file__).resolve().parent


_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("module_name, attr, span", tracer.TARGETS)
def test_traced_target_resolves(module_name, attr, span):
    module = importlib.import_module(f"asmref.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
    assert span.split(".")[0] in tracer.MODULES


@pytest.mark.parametrize("name", asmref.__all__)
def test_exported_name_resolves(name):
    assert hasattr(asmref, name)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_across_modules(path):
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "asmref")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Budget)])
def test_every_budget_field_is_read(name):
    readers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "config.py"
        and any(
            isinstance(node, ast.Attribute) and node.attr == name
            for node in ast.walk(ast.parse(path.read_text()))
        )
    ]
    assert readers


def test_only_reports_builds_witnesses():
    builders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(
            isinstance(node, ast.Call)
            and "Witness" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(path.read_text()))
        )
    ]
    assert builders == ["reports.py"]


#: how as_size words a refused size; a message outside combinat.py may not start so
SIZE_WORDING = (
    "order must", "depth must", "column index must", "subset size must", "first index must",
    "second index must", "number of points must", "degree bound must",
)


def _message_head(node: ast.expr) -> str:
    """The literal text a message starts with, "" when it starts with a value."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def test_only_combinat_states_a_size_range():
    stated = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "combinat.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ValidationError"
        and node.exc.args
        and _message_head(node.exc.args[0]).startswith(SIZE_WORDING)
    ]
    assert stated == []


def test_readme_library_example_prints_its_comments():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
        if isinstance(statement, ast.Expr) and comment:
            assert repr(eval(code, namespace)) == comment, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 5
