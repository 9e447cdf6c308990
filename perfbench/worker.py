"""One cold process of the gcr benchmark, started by run.py.

    python3 perfbench/worker.py SPEC SPAWNED_NS MODE [SPANS_FILE]

SPEC is a job spec from workloads.job_specs as JSON, SPAWNED_NS the
CLOCK_MONOTONIC time at which the parent started this process, and MODE one
of ``setup`` (set up and stop), ``run`` (timed, untraced) or ``trace`` (timed,
with every traced entry point wrapped; spans go to SPANS_FILE).  Prints one
JSON line: set-up, wall and CPU seconds, peak RSS, operations attempted and
the failures found.

The timed calls' wall and CPU times are normalised by the CPU-speed probe of
probe.py, which samples while they run; the measured ones are kept as
``raw_*`` with the ``slowdown`` they were divided by.  Set-up time is
reported as measured: it is mostly interpreter start and imports, whose speed
the probe does not track.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import probe  # noqa: E402  (perfbench/ is sys.path[0])
import workloads  # noqa: E402


def main(argv: list[str]) -> None:
    spec, spawned_ns, mode = json.loads(argv[0]), int(argv[1]), argv[2]
    job = workloads.make_job(spec)
    job.setup()
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawned_ns) / 1e9
    record = {"job": workloads.job_name(spec), "setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(record))
        return
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    speed = probe.SpeedProbe()
    speed.start()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    outcome = job.run()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    timed = len(speed.samples)
    probes = speed.spent_s(timed)
    if timed < probe.BURST:     # too short a run for enough timed samples
        speed.burst()
    speed.stop()
    slowdown = speed.slowdown()
    attempted, failures = job.check(outcome)
    record.update(
        wall_s=(wall - probes) / slowdown, cpu_s=(cpu - probes) / slowdown,
        raw_wall_s=wall, raw_cpu_s=cpu, slowdown=slowdown,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=attempted, failures=failures)
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.save(argv[3])
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
