"""Source rules for the package: no `assert` statement (``python -O``
strips them, so an invariant checked by one is not checked at all), no
random-number generator (results rest on exact arithmetic, not on sampling
or seeded retries), no `eval` or `exec` (data strings are parsed against
a grammar, never run as code), no unused top-level import, no module that
the table diff cannot reach through relative imports, and every console
script declared in ``pyproject.toml`` resolves to a callable."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gcr").glob("*.py"))

RANDOM = re.compile(r"\bnp\.random\b|\bnumpy\.random\b|^\s*(import|from)\s+random\b",
                    re.MULTILINE)


def test_sources_found():
    assert any(path.name == "modrep.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_or_random(path):
    text = path.read_text()
    asserts = [node.lineno for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.Assert)]
    assert not asserts, f"{path.name}: assert statements at lines {asserts}"
    rngs = [text.count("\n", 0, m.start()) + 1 for m in RANDOM.finditer(text)]
    assert not rngs, f"{path.name}: random-number generator at lines {rngs}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_eval_or_exec(path):
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("eval", "exec")]
    assert not calls, f"{path.name}: eval or exec called at lines {calls}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_module_reachable_from_tables():
    # gcr.tables holds diff_badx, the end of every table result; follow its
    # `from .x import ...` lines, function-local ones included
    by_name = {path.stem: path for path in SOURCES}
    reached, todo = set(), ["tables"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(node.module for node in ast.walk(ast.parse(by_name[name].read_text()))
                    if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module)
    orphans = sorted(f"{name}.py" for name in by_name.keys() - reached - {"__init__"})
    assert not orphans, f"modules no table result imports: {orphans}"


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        func = getattr(importlib.import_module(module), attr)
        assert callable(func), f"console script {name} = {target!r} is not callable"
