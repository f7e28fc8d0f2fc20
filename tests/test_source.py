"""Static checks on the package source."""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

from finposet import dimension

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finposet"
ORACLES = Path(__file__).resolve().with_name("oracles.py")


def test_no_assert_statements():
    # python -O strips assert statements, so validation must raise instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def private_finposet_imports(source: str) -> list[str]:
    """Underscore names (modules or members) that source imports from finposet."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "finposet":
            parts = node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [p for alias in node.names if alias.name.split(".")[0] == "finposet" for p in alias.name.split(".")]
        else:
            continue
        found += [p for p in parts if p.startswith("_")]
    return found


def test_oracles_share_no_private_code():
    # an oracle that reuses the package's internals would repeat its mistakes
    assert private_finposet_imports("from finposet.core import Poset, _down_sets") == ["_down_sets"]
    assert private_finposet_imports("import finposet._x") == ["_x"]
    assert private_finposet_imports(ORACLES.read_text(encoding="utf-8")) == []


def test_readme_quotes_cover_constants():
    # README states the selector's constants in prose; a changed constant must change the text
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    quoted = re.findall(r"`(COVER_LIMIT|COVER_MIN_SIZE)`\s*(?:\(|=\s*)(\d+)", readme)
    assert {name for name, _ in quoted} == {"COVER_LIMIT", "COVER_MIN_SIZE"}
    for name, value in quoted:
        assert int(value) == getattr(dimension, name), name


def test_benchmark_span_metrics_name_public_functions():
    # the traced run wraps public functions by name; a renamed one would zero its metrics
    spec = json.loads((PACKAGE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    aggregate = ("census.check.", "census.dim.", "io.format.", "trace.")
    spans = {
        tuple(m["name"].split(".")[:2])
        for m in spec["per_layer"]
        if not m["name"].startswith(aggregate) and m["name"].count(".") == 2
    }
    assert len(spans) > 10
    for module, function in spans:
        mod = importlib.import_module(f"finposet.{module}")
        fn = getattr(mod, function, None)
        assert not function.startswith("_") and inspect.isfunction(fn), f"{module}.{function}"
        assert fn.__module__ == mod.__name__, f"{module}.{function}"
