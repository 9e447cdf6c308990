"""The benchmark tracer (perfbench/tracer.py) wraps gcr entry points by
module and attribute name; a renamed or deleted entry point must fail here,
not only in a traced benchmark run, and a traced run must still count
what it claims to.  Likewise the benchmark's gate self-test
(perfbench/selftest.py) must pass on the package as it stands."""

import importlib
import importlib.util
import json
import os
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


# a spy, bound before the tracer wraps it, records the size of every rref
# input; then one cocycle case and one verify_levels run under the tracer
TRACED_RUN = """
import importlib.util, json, sys
import gcr.a1coh, gcr.parabolic, gcr.rootsystem
from gcr import modrep, rings

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
rref, sizes = rings.rref, []

def spy(a, p):
    sizes.append(len(a) * len(a[0]))
    return rref(a, p)

for mod in [m for k, m in sys.modules.items() if k.startswith("gcr.")]:
    for key, value in list(vars(mod).items()):
        if value is rref:
            setattr(mod, key, spy)
t = tracer.Tracer()
t.install()
module = modrep.tensor(modrep.tilting_module(12, 7),
                       modrep.twist(modrep.tilting_module(6, 7), 1))
cases = [modrep.h1_module_a1(module), gcr.a1coh.h1_dim([((12, 0), (6, 1))], 7)]
rs = gcr.rootsystem.build_root_system("E7")
cases.append(gcr.parabolic.verify_levels(rs, (1, 2, 3)))
metrics = tracer.layer_metrics(tracer.merge([t.summary()]), 1.0)
print(json.dumps({"cases": cases, "calls": len(sizes), "entries": sum(sizes),
                  "metrics": metrics}))
"""


def test_traced_run_counts_rref_inputs():
    """The tracer reads each rref input's size with np.shape; on the
    package's row lists it must count exactly the entries the spy saw."""
    done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACER)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    h1, layered, summands = out["cases"]
    assert h1 == layered and summands > 0
    metrics = out["metrics"]
    assert metrics["rings.rref_calls"] == out["calls"] > 0
    assert metrics["rings.rref_entries"] == out["entries"] > 0
    assert metrics["modrep.tilting_calls"] > 0 and metrics["parabolic.s"] > 0
