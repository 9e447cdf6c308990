"""Workloads of the gcr benchmark: inputs, timed calls and correctness gates.

Nothing here imports ``gcr`` at module level.  ``run.py`` builds job specs
from this module without paying for that import, and each worker process
imports ``gcr`` inside its measured set-up (``Job.setup``).

Every ``gcr`` function is looked up through its module at call time, so that
the tracer (and the self-test's fault injection) can rebind it from outside.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

WORKLOADS = ("scan-e8p7", "scan-e6e7", "crosscheck")

# each table is reproduced in its own cold process: _summand_weights is
# cached per group, not per prime, so a second table of the same group in one
# process would skip the parabolic layer
SCAN_TABLES = {
    "scan-e8p7": (("E8", 7),),
    "scan-e6e7": (("E6", 5), ("E7", 5), ("E7", 7)),
}


@dataclass(frozen=True)
class TableExpect:
    """Pinned result of scanning one table and diffing it against the golden
    data (the frozen counts of tests/test_h1scan.py)."""
    rows: int                        # flagged rows of scan_group
    match: int                       # diff rows with status "match"
    extras: frozenset = frozenset()  # (levi, x, actions) of the "extra" rows
    relabelled: tuple = ()           # (levi type, rows matched by D4 relabelling)


# tests/test_h1scan.py::EXPECTED_EXTRAS: rows reproducible by hand from the
# layer rules but absent from the golden E8/p=7 table
E8_EXTRAS = frozenset({
    ("A3+A3", "A1", ("1 x 1[1]", "3")),
    ("A3+A3", "A1", ("3", "1 x 1[1]")),
    ("D7", "A1", ("3 x 1[1] + 2 + 2[1]",)),
    ("D7", "A1", ("3 x 1[2] + 2 + 2[1]",)),
    ("D7", "A1", ("3[1] x 1 + 2[1] + 2[2]",)),
})

EXPECT = {
    ("E6", 5): TableExpect(rows=8, match=8),
    ("E7", 5): TableExpect(rows=51, match=47, relabelled=("A1+D4", 4)),
    ("E7", 7): TableExpect(rows=3, match=3),
    ("E8", 7): TableExpect(rows=23, match=18, extras=E8_EXTRAS),
}

# crosscheck: verify_levels on every standard parabolic of E7 (Levi subsets
# of size 0..6) checks this many level summands in all
E7_PARABOLICS = tuple(levi for k in range(7)
                      for levi in itertools.combinations(range(1, 8), k))
E7_SUMMANDS = 2400


def cocycle_cases(seed: int) -> dict[int, list[tuple[int, int]]]:
    """Two-layer products ((m1, 0), (m2, 1)) for the matrix-cocycle oracle.

    All 64 at p = 5.  At p = 7 a seed-drawn 18 of the 144: split m into
    restricted (1..6) and non-restricted (7..12) weights, and in each of the
    blocks restricted x restricted, restricted x non-restricted and
    non-restricted x restricted pair the first weights with a shuffled
    permutation of the second.  Every weight of a block then occurs once in
    each slot, so every seed builds the same tilting modules and the run time
    barely depends on the seed.  The permutations of the two mixed blocks
    always pair 6 with 12, the largest products (98-dimensional, with the
    most operators), so that peak memory does not depend on the seed either.
    The non-restricted x non-restricted block is left to p = 5, where it is
    covered in full: at p = 7 it would more than double the workload.
    """
    rng = random.Random(seed)
    low, high = list(range(1, 7)), list(range(7, 13))

    def shuffled(values, keep_last):
        head = values[:-1] if keep_last else values[:]
        rng.shuffle(head)
        return head + values[-1:] if keep_last else head

    p7 = (list(zip(low, shuffled(low, keep_last=False)))
          + list(zip(low, shuffled(high, keep_last=True)))
          + list(zip(high, shuffled(low, keep_last=True))))
    p5 = [(m1, m2) for m1 in range(1, 9) for m2 in range(1, 9)]
    return {5: p5, 7: p7}


def job_specs(workload: str, seed: int) -> list[dict]:
    """The cold processes of one repetition of a workload, in order."""
    if workload in SCAN_TABLES:
        return [{"kind": "scan", "group": g, "p": p}
                for g, p in SCAN_TABLES[workload]]
    if workload == "crosscheck":
        cases = cocycle_cases(seed)
        return [{"kind": "crosscheck",
                 "cases": {str(p): [list(c) for c in cs]
                           for p, cs in cases.items()}}]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def job_name(spec: dict) -> str:
    if spec["kind"] == "scan":
        return f"scan {spec['group']}/{spec['p']}"
    return spec["kind"]


def make_job(spec: dict):
    if spec["kind"] == "scan":
        return ScanJob(spec["group"], spec["p"])
    if spec["kind"] == "crosscheck":
        return CrosscheckJob({int(p): [tuple(c) for c in cs]
                              for p, cs in spec["cases"].items()})
    raise ValueError(f"unknown job kind {spec['kind']!r}")


# -- golden-table scans -------------------------------------------------------

def check_table(expect: TableExpect, scan, diff) -> list[str]:
    """Deviations of one scan and its diff from the pinned expectation.
    ``TableDiff.ok`` alone would accept a scan that adds rows."""
    problems = []
    if len(scan.rows) != expect.rows:
        problems.append(f"{len(scan.rows)} flagged rows, pinned {expect.rows}")
    counts = diff.counts()
    want = Counter(match=expect.match, extra=len(expect.extras))
    if counts != want:
        problems.append(f"diff counts {dict(counts)}, pinned {dict(want)}")
    extras = {(r.levi, r.x, r.actions) for r in diff.rows
              if r.status == "extra"}
    if extras != expect.extras:
        problems.append(f"extras {sorted(extras ^ expect.extras)} differ "
                        "from the pinned set")
    if not diff.ok:
        problems.append("diff not ok")
    if expect.relabelled:
        levi, n = expect.relabelled
        rows = [r for r in diff.rows if r.levi == levi]
        if len(rows) != n or not all(
                r.status == "match" and "relabelling" in r.note for r in rows):
            problems.append(f"{levi} rows not all matched by D4 relabelling")
    return problems


class ScanJob:
    """scan_group(G, p) then diff_badx(G, p, scan=...): one operation."""

    def __init__(self, group: str, p: int):
        self.group, self.p = group, p
        self.expect = EXPECT[(group, p)]

    def setup(self) -> None:
        from gcr import h1scan, tables
        self.h1scan, self.tables = h1scan, tables
        self.golden = tables.load_badx(self.group, self.p)

    def run(self):
        try:
            scan = self.h1scan.scan_group(self.group, self.p)
            diff = self.tables.diff_badx(self.group, self.p, scan=scan)
        except Exception as exc:  # a failed operation, not a failed benchmark
            return exc
        return scan, diff

    def check(self, outcome) -> tuple[int, list[str]]:
        where = f"{self.group}/p={self.p} ({self.golden['table']})"
        if isinstance(outcome, Exception):
            return 1, [f"{where}: raised {outcome!r}"]
        return 1, [f"{where}: {p}" for p in check_table(self.expect, *outcome)]


# -- independent cross-checks --------------------------------------------------

class CrosscheckJob:
    """verify_levels on every E7 parabolic, plus the matrix-cocycle oracle on
    two-layer products.  Operations: one per verify_levels call, one for the
    summand total, one per cocycle case."""

    def __init__(self, cases: dict[int, list[tuple[int, int]]],
                 parabolics=E7_PARABOLICS, summands: int = E7_SUMMANDS):
        self.cases, self.parabolics, self.summands = cases, parabolics, summands

    def setup(self) -> None:
        from gcr import a1coh, modrep, parabolic, rootsystem
        self.a1coh, self.modrep = a1coh, modrep
        self.parabolic, self.rootsystem = parabolic, rootsystem

    def run(self) -> tuple[int, list[str]]:
        failures = []
        rs = self.rootsystem.build_root_system("E7")
        total = 0
        for levi in self.parabolics:
            try:
                total += self.parabolic.verify_levels(rs, levi)
            except Exception as exc:
                failures.append(f"verify_levels(E7, {levi}) raised {exc!r}")
        if total != self.summands:
            failures.append(f"verify_levels checked {total} summands, "
                            f"pinned {self.summands}")
        attempted = len(self.parabolics) + 1
        for p, cases in sorted(self.cases.items()):
            for m1, m2 in cases:
                attempted += 1
                problem = self._cocycle_case(m1, m2, p)
                if problem:
                    failures.append(f"cocycle ({m1},0),({m2},1) p={p}: "
                                    + problem)
        return attempted, failures

    def _cocycle_case(self, m1: int, m2: int, p: int) -> str | None:
        modrep = self.modrep
        try:
            module = modrep.tensor(modrep.tilting_module(m1, p),
                                   modrep.twist(modrep.tilting_module(m2, p), 1))
            oracle = modrep.h1_module_a1(module)
            layered = self.a1coh.h1_dim([((m1, 0), (m2, 1))], p)
        except Exception as exc:
            return f"raised {exc!r}"
        if oracle != layered:
            return f"h1_dim {layered} != matrix cocycles {oracle}"
        return None

    def check(self, outcome) -> tuple[int, list[str]]:
        return outcome
