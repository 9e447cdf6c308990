"""Mutants of ``src/gcr``, each with the test that must kill it: a standing
check of the suite's power, where a one-off "a mutation failed a test"
would go stale when the code moves.

A mutant is (module, exact source text, replacement, reason, killing
test).  The source text occurs exactly once in its module, which
``tests/test_mutants.py`` checks in tier-1, so a refactor that moves a
mutated line updates this list.

``python tests/mutants.py`` runs the killing tests once on the unmutated
package, which must pass.  Then it applies each mutant to a temporary copy
of ``src/gcr`` and runs the mutant's killing test against that copy in a
subprocess, stopping at its first failure.  It prints killed or survived
per mutant with its seconds, then a summary, and exits non-zero if any
mutant survives.  A surviving mutant means a test is missing, or the
mutant is equivalent and should be dropped with its reason.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gcr"


class Mutant(NamedTuple):
    module: str           # file stem under src/gcr
    source: str           # exact text, once in the module
    replacement: str
    reason: str
    test: str             # pytest node id, relative to the repository root


MUTANTS = [
    Mutant("a1coh", "        if n == 0 or n == 2 * p - 2:\n",
           "        if n == 0:\n",
           "h1_term: drop the n = 2p - 2 rule",
           "tests/test_h1scan.py::test_h1_term_values_p5"),
    Mutant("a1coh", "        elif n == p - 2:\n",
           "        elif n == p - 3:\n",
           "h1_term: move the n = p - 2 rule to p - 3",
           "tests/test_h1scan.py::test_h1_term_values_p5"),
    Mutant("a1coh", "            total += mult * _hom(1, higher, p)\n",
           "            total += mult * _hom(0, higher, p)\n",
           "h1_term: Hom(T(0), .) in place of Hom(L(1), .)",
           "tests/test_h1scan.py::test_h1_term_values_p5"),
    Mutant("a1coh", "    if d == 0 or d == 2 * p - 2:\n",
           "    if d == 0:\n",
           "_hom: drop the d = 2p - 2 rule",
           "tests/test_h1scan.py::test_hom_matches_explicit_operators"),
    Mutant("h1scan",
           "    return (halves,) if any(d % 2 for d in dims) else (halves, halves[::-1])\n",
           "    return (halves,)\n",
           "_spin_classes: always one class",
           "tests/test_h1scan.py::test_scan_e6_d4_parabolic_p5"),
    Mutant("h1scan", "            if outcomes[k] and tilting[k]:\n",
           "            if False:\n",
           "_evaluate: never prune a G2 hit on a tilting summand",
           "tests/test_h1scan.py::test_scan_a6_parabolic_g2_pruned"),
    Mutant("h1scan", "            if covers and not any(option[2] for option in choice):\n",
           "            if not any(option[2] for option in choice):\n",
           "_walk: skip the all-twisted choices on partial walks too",
           "tests/test_h1scan.py::test_scan_parabolic_flags_what_every_product_flags"),
    Mutant("rootsystem", "above[s][1][i] = down[i] + 1\n",
           "above[s][1][i] = down[i]\n",
           "_closure: drop the + 1 of a string length (only G2 has strings "
           "longer than one)",
           "tests/test_rootsystem.py::test_positive_count"),
    Mutant("rootsystem", "if down[i] > pairs[i]:\n",
           "if down[i] >= pairs[i]:\n",
           "_closure: build r + alpha_i when the string length equals the pairing",
           "tests/test_rootsystem.py::test_positive_count"),
]


def mutated(mutant: Mutant) -> str:
    """The mutant's module text with its replacement applied; ValueError if
    the source text does not occur exactly once."""
    text = (SRC / f"{mutant.module}.py").read_text()
    if text.count(mutant.source) != 1:
        raise ValueError(f"{mutant.module}: {mutant.source!r} occurs "
                         f"{text.count(mutant.source)} times, not once")
    return text.replace(mutant.source, mutant.replacement)


def _pytest(src: Path, tests: list[str]) -> int:
    """pytest's exit code for tests run against the package under src."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, env=env, capture_output=True).returncode


def run(mutant: Mutant) -> tuple[bool, float]:
    """(killed?, seconds) of the mutant's killing test on a mutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src / "gcr", ignore=shutil.ignore_patterns("__pycache__"))
        (src / "gcr" / f"{mutant.module}.py").write_text(mutated(mutant))
        start = time.perf_counter()
        code = _pytest(src, [mutant.test])
        seconds = time.perf_counter() - start
    if code not in (0, 1):
        raise RuntimeError(f"{mutant.test} did not run on mutant "
                           f"{mutant.reason!r}: pytest exit code {code}")
    return code == 1, seconds


def main() -> int:
    tests = sorted({m.test for m in MUTANTS})
    if _pytest(SRC.parent, tests):
        print("the killing tests fail on the unmutated package", file=sys.stderr)
        return 2
    start = time.perf_counter()
    survived = 0
    for m in MUTANTS:
        killed, seconds = run(m)
        survived += not killed
        print(f"{'killed' if killed else 'SURVIVED':8} {seconds:5.1f} s  "
              f"{m.module}: {m.reason}  [{m.test}]")
    print(f"{len(MUTANTS)} mutants: {len(MUTANTS) - survived} killed, "
          f"{survived} survived, in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
