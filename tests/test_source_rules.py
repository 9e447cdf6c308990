"""Source rules for the package: no `assert` statement (``python -O``
strips them, so an invariant checked by one is not checked at all), no
random-number generator (results rest on exact arithmetic, not on sampling
or seeded retries) and no `eval` or `exec` (data strings are parsed against
a grammar, never run as code)."""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gcr").glob("*.py"))

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
