"""The benchmark tracer (perfbench/tracer.py) wraps gcr entry points by
module and attribute name; a renamed or deleted entry point must fail here,
not only in a traced benchmark run.  Likewise the benchmark's gate
self-test (perfbench/selftest.py) must pass on the package as it stands."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_traced_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, attr in tracer.TRACED:
        owner = importlib.import_module(f"gcr.{modname}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"gcr.{modname}.{attr}")
    assert not missing


def test_benchmark_selftest_passes():
    """The benchmark's gate self-test runs the E6/5 scan job and the
    crosscheck job on the package as it stands, each once as it is and once
    with a planted fault; a change to the package that breaks a gate, or
    the scan job's run with the collector on, fails here too."""
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
