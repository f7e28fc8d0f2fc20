"""The demo scripts run to completion and import only exported names."""

import ast
import contextlib
import io
import runpy
from pathlib import Path

import pytest

import finposet

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_on_exported_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "finposet"
        for alias in node.names
    }
    assert imported and imported <= set(finposet.__all__)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
