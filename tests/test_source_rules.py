"""Source rules for the package: no `assert` statement (``python -O``
strips them, so an invariant checked by one is not checked at all), no
random-number generator (results rest on exact arithmetic, not on sampling
or seeded retries), no `eval` or `exec` (data strings are parsed against
a grammar, never run as code), no unused top-level import in the package
or its tests, no module that the table diff cannot reach through relative
imports, no module that imports another module's underscore name (a name
one module shares with another is public), no module that imports numpy
(nor does a cold scan, diff or cocycle run load it), no function or method that no
table result, cross-check or benchmark entry point reaches (helpers that
only check the package live in ``tests/oracles.py``, so no root names a
function that only tests call), and every console script declared in
``pyproject.toml`` resolves to a callable."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gcr").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound(scope) -> set[str]:
    """The names a function, lambda, class or comprehension binds in its own
    body: its arguments and the targets of its assignments, loops,
    comprehensions, imports and ``with ... as``, less those it declares
    global or nonlocal.  Nested scopes are not entered."""
    names, free = set(), set()
    args = getattr(scope, "args", None)
    if args is not None:
        names |= {a.arg for a in ast.walk(args) if isinstance(a, ast.arg)}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            free.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        if isinstance(node, _SCOPES):
            names.add(getattr(node, "name", ""))
        elif not isinstance(node, ast.arguments):
            todo.extend(ast.iter_child_nodes(node))
    return names - free


def unused_imports(text: str) -> dict[str, int]:
    """name -> line of every top-level import in text whose name no code
    reads.  A read counts only where no enclosing function, lambda, class
    or comprehension binds the name itself: a comprehension variable that
    reuses an imported name reads the variable, not the import.  A scope's
    defaults, decorators and first iterable count as inside it, so the rule
    may call an import unused that only they read under a name the scope
    rebinds."""
    tree = ast.parse(text)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used, todo = set(), [(tree, frozenset())]
    while todo:
        node, shadowed = todo.pop()
        if isinstance(node, _SCOPES):
            shadowed = shadowed | _bound(node)
        if isinstance(node, ast.Name) and node.id not in shadowed:
            used.add(node.id)
        todo.extend((child, shadowed) for child in ast.iter_child_nodes(node))
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: path.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports {unused}"


def test_unused_import_rule_names_planted_imports():
    planted = ("import os\nfrom gcr.rings import rank, rref\nimport re, json\n"
               "CASES = [rank for rank in range(3)]\n"
               "def f(os, n=json.dumps):\n    return [os for _ in rref(n)]\n"
               "class C:\n    re = 1\n    def g(self):\n        return self.re\n"
               "def h():\n    global json\n    json = None\n")
    assert unused_imports(planted) == {"os": 1, "rank": 2, "re": 3}
    assert unused_imports("import re\ndef g():\n    return lambda s: re.escape(s)\n") == {}


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


def private_imports(sources: dict[str, str]) -> list[str]:
    """``module: name`` of every underscore name that a module of
    ``sources`` (module name -> text) imports from another module of the
    package, function-local imports included."""
    return sorted(f"{module}: {alias.name}" for module, text in sources.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                  and (node.level or (node.module or "").split(".")[0] == "gcr")
                  for alias in node.names if alias.name.startswith("_"))


def test_no_private_imports_across_modules():
    found = private_imports(_sources())
    assert not found, f"underscore names imported from another module: {found}"


def test_private_import_rule_names_planted_imports():
    sources = {"planted": "from .h1scan import scan_group, _class_memo\n"
                          "def late():\n    from gcr.a1coh import _strip\n",
               "fine": "from __future__ import annotations\nfrom .a1coh import h1_term\n"}
    assert private_imports(sources) == ["planted: _class_memo", "planted: _strip"]


def numpy_imports(text: str) -> list[int]:
    """Lines of every import of numpy or of a numpy submodule in text,
    function-local imports included."""
    return sorted(node.lineno for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Import)
                  and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[0] == "numpy")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_numpy_import(path):
    lines = numpy_imports(path.read_text())
    assert not lines, f"{path.name}: numpy imported at lines {lines}"


def test_numpy_rule_names_planted_imports():
    planted = ("import numpy as np\nfrom numpy.linalg import matrix_rank\n"
               "def late():\n    import numpy.random\n    from .rings import rank\n")
    assert numpy_imports(planted) == [1, 2, 4]


def test_cold_scan_diff_and_cocycle_load_no_numpy():
    code = ("import sys\n"
            "import gcr.tables\n"
            "from gcr.h1scan import scan_group\n"
            "from gcr.modrep import h1_module_a1, tensor, tilting_module, twist\n"
            "diff = gcr.tables.diff_badx('E6', 5, scan=scan_group('E6', 5))\n"
            "h1 = h1_module_a1(tensor(tilting_module(12, 7), twist(tilting_module(6, 7), 1)))\n"
            "print(diff.ok, h1, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.split() == ["True", "0", "[]"]


# the functions a table result, a cross-check or the benchmark starts from,
# as (module, qualified name); every leaf of the tracer's TRACED joins them.
# A function that only tests call is no root: it lives in tests/oracles.py
ROOTS = (
    ("h1scan", "scan_group"),
    ("tables", "diff_badx"),
    ("tables", "render_diff"),
    ("tables", "diff_to_json"),
    ("parabolic", "verify_levels"),
    ("modrep", "tilting_module"),
    ("modrep", "twist"),
    ("modrep", "h1_module_a1"),
    ("modrep", "freudenthal"),
)


def _traced_roots() -> tuple:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tuple(tracer.TRACED)


def unreachable(sources: dict[str, str], roots) -> list[str]:
    """``module.qualname`` of every top-level function and non-dunder method
    in ``sources`` (module name -> text) that no root reaches.

    Module-level statements run on import, so they are walked from the start.
    A walked body reaches a top-level function or a class by a name or an
    attribute, and a method by an attribute only: a bare name such as
    ``roots`` is as often a local variable.  Reaching a class walks its class
    body, dunder methods included."""
    by_name: dict[str, list[str]] = {}    # reached by a name or an attribute
    by_attr: dict[str, list[str]] = {}    # reached by an attribute only
    bodies: dict[str, list[ast.AST]] = {"": []}    # "": import-time code
    checked = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            qual = f"{module}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef):
                by_name.setdefault(node.name, []).append(qual)
                bodies[qual] = [node]
                checked.append(qual)
            elif isinstance(node, ast.ClassDef):
                by_name.setdefault(node.name, []).append(qual)
                bodies[qual] = node.bases + node.decorator_list
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        by_attr.setdefault(item.name, []).append(f"{qual}.{item.name}")
                        bodies[f"{qual}.{item.name}"] = [item]
                        checked.append(f"{qual}.{item.name}")
                    else:
                        bodies[qual].append(item)
            else:
                bodies[""].append(node)
    todo = [f"{module}.{name}" for module, name in roots]
    missing = sorted(set(todo) - set(checked))
    assert not missing, f"roots that name no function or method: {missing}"
    reached: set[str] = set()
    todo.append("")
    while todo:
        qual = todo.pop()
        if qual in reached:
            continue
        reached.add(qual)
        for node in (n for body in bodies[qual] for n in ast.walk(body)):
            if isinstance(node, ast.Name):
                todo += by_name.get(node.id, [])
            elif isinstance(node, ast.Attribute):
                todo += by_name.get(node.attr, []) + by_attr.get(node.attr, [])
    return sorted(set(checked) - reached)


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in SOURCES}


def test_every_function_reachable():
    orphans = unreachable(_sources(), ROOTS + _traced_roots())
    assert not orphans, f"functions no result, check or benchmark reaches: {orphans}"


def test_reachability_rule_names_planted_orphans():
    sources = _sources()
    sources["planted"] = ("def stray_function():\n    return 1\n\n\n"
                          "class Stray:\n    def stray_method(self):\n        return 2\n")
    sources["rootsystem"] += ("\n\ndef stray_root_helper(rs):\n"
                              "    return rs.positive[0]\n")
    assert unreachable(sources, ROOTS + _traced_roots()) == [
        "planted.Stray.stray_method", "planted.stray_function",
        "rootsystem.stray_root_helper"]


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        func = getattr(importlib.import_module(module), attr)
        assert callable(func), f"console script {name} = {target!r} is not callable"
