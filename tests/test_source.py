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


def module_guards() -> dict[str, int]:
    """Every module-level ``*_GUARD`` constant of the package, by name."""
    return {
        target.id: getattr(importlib.import_module(f"finposet.{stem}"), target.id)
        for stem, tree in parsed_modules().items()
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name) and target.id.endswith("_GUARD")
    }


def test_readme_quotes_colour_constants():
    # README states the selector's constants and every cap in prose; a changed constant must change the text
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    constants = {name: getattr(dimension, name) for name in ("COLOUR_LIMIT", "COLOUR_MIN_SIZE")} | module_guards()
    constants["TRANSPOSE_MIN_DEGREE"] = importlib.import_module("finposet.core").TRANSPOSE_MIN_DEGREE
    assert {"SIZE_GUARD", "ISO_GUARD", "HYPERCUBE_GUARD"} < set(constants)
    quoted = re.findall(rf"`({'|'.join(constants)})`\s*(?:\(|=\s*)(\d+)", readme)
    assert {name for name, _ in quoted} == set(constants)
    for name, value in quoted:
        assert int(value) == constants[name], name


def test_core_name_is_the_function_and_importlib_reaches_the_module():
    # README, "The finposet.core name": the package attribute shadows the submodule
    import finposet.core as bound

    from finposet import homotopy

    assert bound is homotopy.core and inspect.isfunction(bound)
    module = importlib.import_module("finposet.core")
    assert inspect.ismodule(module) and module.__name__ == "finposet.core"
    assert module.Poset.__module__ == "finposet.core"
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    assert 'importlib.import_module("finposet.core")' in readme


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


def parsed_modules() -> dict[str, ast.Module]:
    paths = sorted(PACKAGE.glob("*.py"))
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}


def referenced_names(node: ast.AST) -> set[str]:
    """Every name node reads, as a bare name, an attribute or an imported member."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unused_imports(tree: ast.Module) -> list[str]:
    """Names that tree imports and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return [name for name in imported if name not in used]


def unreferenced_private_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """Private top-level functions and classes that no other statement of the package reads."""
    statements = [(stem, stmt) for stem, tree in modules.items() for stmt in tree.body]
    found = []
    for stem, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or not stmt.name.startswith("_"):
            continue
        if not any(stmt.name in referenced_names(other) for _, other in statements if other is not stmt):
            found.append(f"{stem}.{stmt.name}")
    return found


def test_no_unused_imports():
    # a consolidation must not leave an import behind that nothing reads
    assert unused_imports(ast.parse("from x import a, b\nimport c.d\nprint(a)")) == ["b", "c"]
    modules = parsed_modules()
    assert len(modules) > 5
    modules.pop("__init__")  # it imports to re-export
    assert [f"{stem}: {name}" for stem, tree in modules.items() for name in unused_imports(tree)] == []


def test_no_unreferenced_private_definitions():
    # nor a private helper that nothing calls
    demo = {"m": ast.parse("def _a(): return _a()\ndef _b(): pass\ndef c(): return _b()")}
    assert unreferenced_private_definitions(demo) == ["m._a"]
    assert unreferenced_private_definitions(parsed_modules()) == []


def ambient_state(tree: ast.Module) -> list[int]:
    """Lines where tree creates a ContextVar, has a global statement, or caches
    a function that takes parameters (functools.cache or lru_cache)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global) or (
            isinstance(node, ast.Call) and "ContextVar" in referenced_names(node.func)
        ):
            lines.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg:
                lines += [d.lineno for d in node.decorator_list if referenced_names(d) & {"cache", "lru_cache"}]
    return sorted(lines)


def test_no_ambient_state():
    # a result must depend on the arguments of a call, not on state a caller left behind
    demo = (
        "import contextvars\nV = contextvars.ContextVar('v')\ndef f():\n    global V\nW = ContextVar('w')\n"
        "@functools.lru_cache(maxsize=1)\ndef g(P): pass\n@cache\ndef h(): pass\n@cache\ndef k(*a): pass"
    )
    assert ambient_state(ast.parse(demo)) == [2, 4, 5, 6, 10]
    modules = parsed_modules()
    assert [f"{stem}:{line}" for stem, tree in modules.items() for line in ambient_state(tree)] == []


def permutation_uses(modules: dict[str, ast.Module]) -> list[str]:
    """Lines that read or import ``permutations`` anywhere but in census._orbit
    (census may import the name itself, unaliased)."""
    found = []
    for stem, tree in modules.items():
        allowed = {
            id(node)
            for fn in tree.body
            if stem == "census" and isinstance(fn, ast.FunctionDef) and fn.name == "_orbit"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names if a.name == "permutations" and (stem != "census" or a.asname)]
            elif isinstance(node, ast.Name):
                names = [node.id] if id(node) not in allowed else []
            elif isinstance(node, ast.Attribute):
                names = [node.attr] if id(node) not in allowed else []
            else:
                continue
            if "permutations" in names:
                found.append(f"{stem}:{node.lineno}")
    return found


def test_permutations_only_list_labeled_orbits():
    # a brute-force automorphism search over n! relabelings must not slip into the enumeration
    demo = {
        "census": ast.parse(
            "from itertools import permutations\nimport itertools\n"
            "def _orbit(r): return permutations(r)\ndef _iso(r): return itertools.permutations(r)"
        ),
        "core": ast.parse("from itertools import permutations as p"),
    }
    assert permutation_uses(demo) == ["census:4", "core:1"]
    assert permutation_uses(parsed_modules()) == []
