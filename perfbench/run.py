"""Benchmark of gcr: cold golden-table scans and the independent cross-checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see BENCHMARK.json for why each):

  scan-e8p7   one cold process: scan_group("E8", 7), then diff_badx on it
  scan-e6e7   E6/5, E7/5 and E7/7, each in its own cold process, in turn
  crosscheck  one cold process: verify_levels on all 127 E7 parabolics, and
              the matrix-cocycle oracle on two-layer products (all 64 at
              p = 5, a seed-drawn 18 at p = 7)

One repetition runs the workload's processes one after another (a closed
loop with one client; no parallelism, and numpy's BLAS held to one thread).  Repetitions continue until S seconds
have passed.  Only crosscheck uses the seed; the scans' inputs are the
paper's tables.

With --trace 0 the end-to-end metrics are reported, over untraced
repetitions.  wall_s and cpu_s are in reference seconds: each process
samples its CPU's speed with probe.py during the timed calls and divides the
times it measures by the slowdown it saw, so that the host's drifting speed
does not read as a change of gcr (the measured times are kept in the record
as raw_*).
  wall_s       median over repetitions of the timed calls' wall time, summed
               over the repetition's processes (interpreter start, import
               and input loading excluded)
  cpu_s        the same for user + system CPU time
  setup_s      per process, the median time from spawning it until gcr is
               imported and its inputs are loaded; summed over the
               workload's processes (at least nine samples each)
  peak_rss_mb  median over repetitions of the largest peak RSS of any
               process
  pass_rate    operations that passed their gate / operations attempted;
               the error rate is 1 - pass_rate = failed / attempted
An operation is one table checked against its pinned result, or one
crosscheck case.  With --trace 1 repetitions alternate untraced and traced,
and the per-layer metrics of tracer.py are reported from the traced ones
(medians), with trace.overhead = traced / untraced median wall time.

The last stdout line is the JSON result; the line before it records the
environment.  A copy of both, with every repetition's raw numbers, goes to
perfbench/out/.  Exits non-zero, without a result, if gcr cannot be run.

python3 perfbench/selftest.py checks that the correctness gates can fail.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170

# one thread per worker: numpy's BLAS pools would otherwise spin on the
# second core and add their time to cpu_s
_WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB", "pass_rate": "ratio"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def spawn(spec: dict, mode: str, spans_file: Path | None = None) -> dict:
    """Run one cold worker process to completion and return its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec),
           str(_now_ns()), mode]
    if spans_file is not None:
        cmd.append(str(spans_file))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, env=_WORKER_ENV)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workloads.job_name(spec)}: no result within "
                         f"{WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workloads.job_name(spec)} ({mode}) exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _spans_file(spec: dict) -> Path:
    name = workloads.job_name(spec).replace(" ", "-").replace("/", "p")
    return OUT / f"spans-{name}.npz"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    specs = workloads.job_specs(workload, seed)
    # warm-up, discarded: writes the bytecode caches and fills the file cache
    spawn(specs[0], "setup")
    OUT.mkdir(exist_ok=True)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append([spawn(s, "run") for s in specs])
        if trace:
            traced.append([spawn(s, "trace", _spans_file(s)) for s in specs])
        if time.monotonic() - start >= seconds:
            break
    setups = {workloads.job_name(s): [rep[i]["setup_s"] for rep in plain]
              for i, s in enumerate(specs)}
    if not trace:
        for spec in specs:
            samples = setups[workloads.job_name(spec)]
            while len(samples) < MIN_SETUP_SAMPLES:
                samples.append(spawn(spec, "setup")["setup_s"])
    return {"plain": plain, "traced": traced, "setups": setups}


def _rep_sum(rep: list[dict], key: str) -> float:
    return sum(job[key] for job in rep)


def result(runs: dict, trace: bool) -> dict:
    """The benchmark's result object from the raw repetitions."""
    reps = runs["plain"] + runs["traced"]
    attempted = sum(job["attempted"] for rep in reps for job in rep)
    failed = sum(len(job["failures"]) for rep in reps for job in rep)
    if trace:
        wall = statistics.median(_rep_sum(r, "wall_s") for r in runs["plain"])
        traced_wall = statistics.median(_rep_sum(r, "wall_s")
                                         for r in runs["traced"])
        per_rep = [tracer.layer_metrics(tracer.merge(j["trace"] for j in rep),
                                        traced_wall / wall)
                   for rep in runs["traced"]]
        values = {m: statistics.median(r[m] for r in per_rep)
                  for m in tracer.LAYER_METRICS}
        metrics = {m: {"value": v, "unit": tracer.unit(m)}
                   for m, v in values.items()}
    else:
        plain = runs["plain"]
        values = {
            "wall_s": statistics.median(_rep_sum(r, "wall_s") for r in plain),
            "cpu_s": statistics.median(_rep_sum(r, "cpu_s") for r in plain),
            "setup_s": sum(statistics.median(v)
                           for v in runs["setups"].values()),
            "peak_rss_mb": statistics.median(max(j["rss_mb"] for j in r)
                                             for r in plain),
            "pass_rate": (attempted - failed) / attempted,
        }
        metrics = {m: {"value": v, "unit": E2E_UNITS[m]}
                   for m, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    """Digest of the measured source tree, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    specs = workloads.job_specs(workload, seed)
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": specs,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gcr" / "__init__.py").is_file():
        print(f"no gcr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    res = result(runs, bool(args.trace))
    for rep in runs["plain"] + runs["traced"]:
        for job in rep:
            for failure in job["failures"]:
                print(f"FAILED {job['job']}: {failure}")
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "runs": runs, "result": res},
                                 indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
