"""Result coverage: every executable line of ``src/gcr`` either runs when the
package computes its results, sits in a ``raise`` statement or an
``except`` handler (a loud failure, each with its own test), or is named in
``ALLOWED`` with its reason and the test that checks it.

The results run in one cold subprocess under ``sys.settrace``, a stdlib
line tracer:
- the four golden tables (E6/5, E7/5, E7/7, E8/7), scanned and diffed at
  tmax 2 with the scan handed to the diff, and at tmax 3 with the diff
  running its own scan
- each diff rendered by ``render_diff`` and ``diff_to_json``
- the benchmark's crosscheck job from ``perfbench/workloads.py``:
  ``verify_levels`` on every E7 parabolic, and the matrix-cocycle oracle
  against ``h1_dim``

A line is executable when a code object of its module has bytecode on it.
An ``ALLOWED`` entry names a function by its qualified name and gives the
exact number of its executable lines that no result runs and no ``raise``
or ``except`` holds.  The count must match both ways: a newly dead line
fails the rule, and so does an entry whose lines a result now runs.

The subprocess takes about 2 s, most of it the traced scans.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gcr").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("test_*.py"))

_TRACED = ("TRACED in perfbench/tracer.py, which binds it by name: it stays "
           "until the tracer names what replaced it")
_DONKIN = "Donkin split above 2p - 2: no golden table's term reaches it"

# "module.qualified name": (lines no result runs, reason, test that runs them)
ALLOWED = {
    "a1coh.h1_term": (3, _DONKIN + ", as the largest layer weight sum is "
                      "at most 2p - 2 there", "test_h1_term_values_p5"),
    "a1coh._hom": (2, _DONKIN + " in the Hom recursion",
                   "test_hom_matches_explicit_operators"),
    "h1scan.e7_factor_candidates": (
        1, "E7 chains at p other than 7: an E7 factor sits in an E8 Levi, and "
        "only the negative controls scan E8 at p = 11 and 13",
        "test_negative_controls_flag_nothing"),
    "h1scan._node": (1, "a trivial weight: the scan restricts live factors "
                     "only", "test_level_h1_memo_is_sound_on_e6_p5"),
    "h1scan.factor_restriction_terms": (
        1, "the trivial factor's one term: the scan restricts live factors "
        "only", "test_level_h1_memo_is_sound_on_e6_p5"),
    "modrep.A1Module._flat": (
        4, "entries to reduce mod p, which the crosscheck's builders never "
        "hand over: weyl_module(m, p) with m >= p, whose divided-power "
        "coefficients vanish mod p (test_h1_weyl_module_w8, "
        "test_dual_and_twist_compose, test_tensor_matches_kron_reference), "
        "and the signed transpose of oracles.dual", "test_dual_is_signed_transpose"),
    "modrep._submodule_restriction": (
        1, "records a basis whose span is no submodule, for the error",
        "test_submodule_restriction_errors"),
    "modrep.tilting_module": (2, _DONKIN + " or the crosscheck's weights",
                              "test_h1_vanishes_on_tilting"),
    "modrep._atom_is_tilting": (
        3, "twisted, tilting and rank-one atoms of module_is_tilting's rule: "
        "the scan asks only about untwisted simple G2 actions, and only "
        "test_module_is_tilting (all three) and test_tilting_prune_closure "
        "(tilting and rank-one) ask about these", "test_module_is_tilting"),
    "parabolic.levi_components": (1, _TRACED, "test_components_split_and_order"),
    "parabolic.component_type": (3, _TRACED, "test_component_d4_inside_e6"),
    "parabolic.radical_levels": (6, _TRACED, "test_radical_size_is_complementary"),
    "parabolic.decompose_level": (21, _TRACED, "test_e6_d4_levi_levels"),
    "rootsystem.RootSystem.pairing": (4, _TRACED,
                                      "test_pairing_is_integral_and_matches_cartan"),
    "rootsystem.RootSystem.form": (1, _TRACED, "test_norms_against_model"),
    "rootsystem.RootSystem.format_root": (
        1, "names a root in error messages only",
        "test_level_summands_name_a_weight_that_is_not_dominant"),
    "tables._golden_units": (1, "a D4 row whose class count is not its "
                             "action's", "test_diff_reports_missing_rows"),
    "tables._frame_match": (2, "D4 rows that no relabelling matches",
                            "test_diff_reports_missing_rows"),
    "tables.diff_badx": (10, "a golden row the scan does not give, and a "
                         "direct D4 match that no relabelling confirms while "
                         "scan rows are left over", "test_diff_reports_missing_rows"),
}

_RUN = """
import json, sys
src = sys.argv[1]
hits = {}

def line(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return line

def call(frame, event, arg):
    name = frame.f_code.co_filename
    if name.startswith(src):
        hits.setdefault(name, set())
        return line
    return None

sys.settrace(call)
import gcr.tables as tables
from gcr.h1scan import scan_group
import workloads
for tmax in (2, 3):
    for group, p in (("E6", 5), ("E7", 5), ("E7", 7), ("E8", 7)):
        scan = scan_group(group, p, tmax) if tmax == 2 else None
        diff = tables.diff_badx(group, p, tmax, scan=scan)
        assert diff.ok, (group, p, tmax)
        tables.render_diff(diff)
        json.dumps(tables.diff_to_json(diff))
job = workloads.CrosscheckJob(workloads.cocycle_cases(0))
job.setup()
attempted, failures = job.run()
assert not failures, failures
sys.settrace(None)
print(json.dumps({name: sorted(lines) for name, lines in hits.items()}))
"""


@pytest.fixture(scope="module")
def reached() -> dict[str, set[int]]:
    """Module name -> the lines of src/gcr that the results run."""
    src = ROOT / "src" / "gcr"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])}
    out = subprocess.run([sys.executable, "-c", _RUN, str(src) + os.sep],
                         capture_output=True, text=True, check=True, cwd=ROOT,
                         timeout=600, env=env)
    return {Path(name).stem: set(lines)
            for name, lines in json.loads(out.stdout).items()}


def _executable(code) -> set[int]:
    lines, todo = set(), [code]
    while todo:
        c = todo.pop()
        lines.update(line for _, _, line in c.co_lines() if line)
        todo.extend(k for k in c.co_consts if hasattr(k, "co_lines"))
    return lines


def _owners(tree: ast.Module, module: str) -> dict[int, str]:
    """Line -> qualified name of the innermost function holding it, or the
    module name for module and class level lines; and every line of a
    ``raise`` statement or an ``except`` handler -> None."""
    owner: dict[int, str] = {}
    todo = [(node, module) for node in tree.body]
    while todo:
        node, name = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{name}.{node.name}"
            if not isinstance(node, ast.ClassDef):    # a class body runs with its scope
                owner.update(dict.fromkeys(
                    range(node.body[0].lineno, node.end_lineno + 1), inner))
            todo.extend((child, inner) for child in node.body)
        elif hasattr(node, "body"):
            todo.extend((child, name) for child in ast.iter_child_nodes(node))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1)))
    return owner


def unreached(sources: dict[str, str], reached: dict[str, set[int]]) -> dict[str, int]:
    """Per function, ``module.qualified name``, the number of its executable
    lines in ``sources`` (module name -> text) that ``reached`` (module
    name -> lines) does not hold and no ``raise`` or ``except`` holds."""
    out: dict[str, int] = {}
    for module, text in sources.items():
        owner = _owners(ast.parse(text), module)
        for line in _executable(compile(text, module, "exec")):
            name = owner.get(line, module)
            if name is not None and line not in reached.get(module, ()):
                out[name] = out.get(name, 0) + 1
    return out


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in SOURCES}


def test_every_line_runs_fails_loudly_or_is_allowed(reached):
    found = unreached(_sources(), reached)
    allowed = {name: count for name, (count, _, _) in ALLOWED.items()}
    differ = {name: (found.get(name, 0), allowed.get(name, 0))
              for name in found.keys() | allowed.keys()
              if found.get(name, 0) != allowed.get(name, 0)}
    assert not differ, f"(unreached, listed) lines per function: {differ}"


def test_allowed_lines_are_few_and_checked():
    """Fewer than 69 lines are listed, and each entry names a reason and a
    test of the suite."""
    tests = {node.name for path in TESTS for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    assert sum(count for count, _, _ in ALLOWED.values()) < 69
    for name, (count, reason, test) in ALLOWED.items():
        assert count > 0 and reason and test in tests, name


def test_line_rule_names_planted_dead_lines(reached):
    """A function no result calls, and an entry whose lines now run, both
    fail the rule."""
    sources = _sources()
    sources["tables"] += "\n\ndef stray_helper(rows):\n    rows = list(rows)\n    return rows\n"
    found = unreached(sources, reached)
    assert found.pop("tables.stray_helper") == 2
    assert found.pop("tables") == 1             # the planted def itself
    assert found == {name: count for name, (count, _, _) in ALLOWED.items()}
    owner = _owners(ast.parse(sources["a1coh"]), "a1coh")
    every = {**reached, "a1coh": reached["a1coh"]
             | {line for line, name in owner.items() if name == "a1coh.h1_term"}}
    assert "a1coh.h1_term" not in unreached(_sources(), every)
