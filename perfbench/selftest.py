"""Self-test of the benchmark's correctness gates.

    python3 perfbench/selftest.py

A gate that cannot fail proves nothing.  This runs the scan and crosscheck
gates on small real inputs, once as they are and once with a wrong pinned
expectation or a fault injected into gcr from outside (a wrong oracle value,
a raising verify_levels), and checks that every fault is counted as a failed
operation, without a crash, and that the result then reports failed > 0 and
a pass rate below 1 (an error rate above 0).  Exits non-zero if any check
does not hold.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402  (perfbench/ is sys.path[0])
import workloads  # noqa: E402


def _scan_gate(report) -> None:
    job = workloads.ScanJob("E6", 5)
    job.setup()
    outcome = job.run()
    report("pinned E6/5 result passes", job.check(outcome)[1] == [])
    scan, diff = outcome
    true = workloads.EXPECT[("E6", 5)]
    wrong = {
        "flagged-row count": dataclasses.replace(true, rows=true.rows + 1),
        "match count": dataclasses.replace(true, match=true.match - 1),
        "extras set": dataclasses.replace(
            true, extras=frozenset({("A1", "A1", ("1",))})),
        "D4 relabelling": dataclasses.replace(true, relabelled=("D4", 2)),
    }
    for what, expect in wrong.items():
        report(f"wrong pinned {what} fails",
               len(workloads.check_table(expect, scan, diff)) >= 1)


def _crosscheck_gate(report) -> None:
    from gcr import modrep, parabolic, rootsystem

    cases = {5: [(3, 1), (1, 1), (5, 5)]}
    levis = workloads.E7_PARABOLICS[:4]
    rs = rootsystem.build_root_system("E7")
    total = sum(parabolic.verify_levels(rs, levi) for levi in levis)
    job = workloads.CrosscheckJob(cases, levis, summands=total)
    job.setup()
    attempted, failures = job.run()
    report("unfaulted crosscheck passes",
           failures == [] and attempted == len(levis) + 1 + 3)

    h1_module_a1 = modrep.h1_module_a1
    modrep.h1_module_a1 = lambda module: h1_module_a1(module) + 1
    try:
        _, failures = job.run()
    finally:
        modrep.h1_module_a1 = h1_module_a1
    report("wrong oracle value fails every cocycle case", len(failures) == 3)

    verify_levels = parabolic.verify_levels

    def broken(rs, levi):
        if levi == levis[1]:
            raise ArithmeticError("injected")
        return verify_levels(rs, levi)

    parabolic.verify_levels = broken
    try:
        _, failures = job.run()
    finally:
        parabolic.verify_levels = verify_levels
    report("raising verify_levels fails its call and the summand total",
           len(failures) == 2)

    wrong_total = workloads.CrosscheckJob(cases, levis, summands=total + 1)
    wrong_total.setup()
    report("wrong pinned summand total fails",
           len(wrong_total.run()[1]) == 1)


def _result(report) -> None:
    job = {"job": "x", "setup_s": 0.1, "wall_s": 1.0, "cpu_s": 1.0,
           "rss_mb": 30.0, "attempted": 4, "failures": ["injected"]}
    res = run.result({"plain": [[job]], "traced": [], "setups": {"x": [0.1]}},
                     trace=False)
    report("a failure reaches the result",
           res["correct"] is False and res["failed"] == 1
           and res["metrics"]["pass_rate"]["value"] < 1)


def main() -> int:
    failed = []

    def report(what: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failed.append(what)

    _scan_gate(report)
    _crosscheck_gate(report)
    _result(report)
    print(f"{len(failed)} self-test check(s) failed" if failed
          else "all self-test checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
