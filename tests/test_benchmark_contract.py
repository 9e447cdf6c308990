"""The benchmark tracer (perfbench/tracer.py) wraps gcr entry points by
module and attribute name; a renamed or deleted entry point must fail here,
not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
