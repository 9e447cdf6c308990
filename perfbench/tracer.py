"""Outside-in tracer for the ``gcr`` package.

The tracer wraps public functions of ``gcr`` from outside, without changing
the package.  Each function is wrapped at every name a caller looks it up
under: ``parabolic.decompose_level`` is also bound as
``h1scan.decompose_level``, and ``modrep.rref`` is the same object as
``rings.rref``, so every module global (and class attribute) that holds the
original object is rebound to the wrapper.

A span is one call: name, parent span, start and end (``perf_counter_ns``).
Spans are appended to a flat in-memory array during the run and turned into
per-name counts and self times only at the end; ``save`` writes them out.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute) of every traced entry point; a dotted attribute names
# a method of a class
TRACED = (
    ("rootsystem", "RootSystem.form"),
    ("rootsystem", "RootSystem.pairing"),
    ("parabolic", "levi_components"),
    ("parabolic", "component_type"),
    ("parabolic", "radical_levels"),
    ("parabolic", "decompose_level"),
    ("parabolic", "verify_levels"),
    ("h1scan", "scan_group"),
    ("h1scan", "scan_parabolic"),
    ("h1scan", "factor_candidates"),
    ("h1scan", "g2_factor_candidate"),
    ("h1scan", "a_type_actions"),
    ("h1scan", "d_type_actions"),
    ("h1scan", "e6_factor_candidates"),
    ("h1scan", "e7_factor_candidates"),
    ("h1scan", "factor_restriction_terms"),
    ("h1scan", "factor_restriction_g2"),
    ("h1scan", "char_h1_factors"),
    ("a1coh", "h1_dim"),
    ("a1coh", "sum_power"),
    ("a1coh", "terms_char"),
    ("a1coh", "term_char"),
    ("a1coh", "tilting_product"),
    ("a1coh", "chi_coeffs"),
    ("modrep", "tilting_module"),
    ("modrep", "tensor"),
    ("modrep", "h1_module_a1"),
    ("modrep", "freudenthal"),
    ("modrep", "module_is_tilting"),
    ("rings", "rref"),
    ("tables", "diff_badx"),
    ("tables", "expand_rows"),
    ("tables", "load_badx"),
)

# per-layer metrics built from span counts and self times
_COUNT = {
    "rootsystem.calls": ("rootsystem.RootSystem.form",
                         "rootsystem.RootSystem.pairing"),
    "parabolic.decompose_calls": ("parabolic.decompose_level",),
    "h1scan.parabolics": ("h1scan.scan_parabolic",),
    "h1scan.restrict_calls": ("h1scan.factor_restriction_terms",
                              "h1scan.factor_restriction_g2"),
    "a1coh.h1_calls": ("a1coh.h1_dim",),
    "modrep.tilting_calls": ("modrep.tilting_module",),
    "rings.rref_calls": ("rings.rref",),
}
_SELF_S = {
    "rootsystem.s": _COUNT["rootsystem.calls"],
    "parabolic.s": ("parabolic.levi_components", "parabolic.component_type",
                    "parabolic.radical_levels", "parabolic.decompose_level",
                    "parabolic.verify_levels"),
    "h1scan.candidates_s": ("h1scan.factor_candidates",
                            "h1scan.g2_factor_candidate",
                            "h1scan.a_type_actions", "h1scan.d_type_actions",
                            "h1scan.e6_factor_candidates",
                            "h1scan.e7_factor_candidates"),
    "h1scan.restrict_s": _COUNT["h1scan.restrict_calls"],
    "h1scan.evaluate_s": ("h1scan.scan_parabolic",),
    # the G2-only entry points; the G2 restriction is also in restrict_s
    "h1scan.g2_s": ("h1scan.factor_restriction_g2", "h1scan.char_h1_factors",
                    "modrep.module_is_tilting"),
    "a1coh.s": ("a1coh.h1_dim", "a1coh.sum_power", "a1coh.terms_char",
                "a1coh.term_char", "a1coh.tilting_product",
                "a1coh.chi_coeffs"),
    "modrep.tilting_s": ("modrep.tilting_module",),
    "modrep.tensor_s": ("modrep.tensor",),
    "modrep.h1_module_s": ("modrep.h1_module_a1",),
    "modrep.freudenthal_s": ("modrep.freudenthal",),
    "rings.rref_s": ("rings.rref",),
    "tables.diff_s": ("tables.diff_badx", "tables.expand_rows",
                      "tables.load_badx"),
}

# every per-layer metric name, in report order
LAYER_METRICS = (
    "rootsystem.calls", "rootsystem.s",
    "parabolic.decompose_calls", "parabolic.summands", "parabolic.s",
    "h1scan.parabolics", "h1scan.candidates_s",
    "h1scan.restrict_calls", "h1scan.restrict_s",
    "h1scan.evaluate_s", "h1scan.g2_s",
    "a1coh.h1_calls", "a1coh.h1_positive", "a1coh.s", "a1coh.cache_hit_rate",
    "modrep.tilting_calls", "modrep.tilting_s", "modrep.tensor_s",
    "modrep.h1_module_s", "modrep.freudenthal_s",
    "rings.rref_calls", "rings.rref_entries", "rings.rref_s",
    "tables.diff_s",
    "trace.overhead",
)


_RATIOS = ("a1coh.h1_positive", "a1coh.cache_hit_rate", "trace.overhead")


def unit(metric: str) -> str:
    if metric in _RATIOS:
        return "ratio"
    return "s" if metric.endswith(("_s", ".s")) else "count"


def _count_summands(counts, args, result):
    counts["parabolic.summands"] += len(result)


def _count_positive(counts, args, result):
    counts["a1coh.h1_positive"] += result > 0


def _count_entries(counts, args, result):
    rows, cols = np.shape(args[0])
    counts["rings.rref_entries"] += rows * cols


_HOOKS = {
    "parabolic.decompose_level": _count_summands,
    "a1coh.h1_dim": _count_positive,
    "rings.rref": _count_entries,
}


class Tracer:
    """Records spans for the traced entry points of an imported ``gcr``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")     # per span: name id, parent offset, start, end
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._caches: list = []

    def install(self) -> None:
        """Rebind every traced entry point; call after ``gcr`` is imported."""
        for modname, _ in TRACED:
            importlib.import_module(f"gcr.{modname}")
        modules = [m for k, m in sys.modules.items() if k.startswith("gcr.")]
        self._caches = [f for f in vars(sys.modules["gcr.a1coh"]).values()
                        if hasattr(f, "cache_info")]
        for modname, attr in TRACED:
            owner = sys.modules[f"gcr.{modname}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(f"{modname}.{attr}", original)
            setattr(owner, leaf, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            offset = len(spans)
            spans.extend((name_id, stack[-1] if stack else -1, clock(), 0))
            stack.append(offset)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[offset + 3] = clock()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)

    def summary(self) -> dict:
        """Raw, additive totals: span counts and self seconds per name,
        hook counters and ``a1coh`` cache statistics."""
        table = self._table()
        n = len(self.names)
        names = table[:, 0]
        duration = table[:, 3] - table[:, 2]
        child = np.zeros(len(table), dtype=np.int64)
        has_parent = table[:, 1] >= 0
        np.add.at(child, table[has_parent, 1] // 4, duration[has_parent])
        self_ns = np.bincount(names, weights=duration - child, minlength=n)
        calls = np.bincount(names, minlength=n)
        hits = misses = 0
        for f in self._caches:
            info = f.cache_info()
            hits += info.hits
            misses += info.misses
        return {
            "calls": {k: int(calls[i]) for i, k in enumerate(self.names)},
            "self_s": {k: float(self_ns[i]) / 1e9
                       for i, k in enumerate(self.names)},
            "counts": dict(self.counts),
            "a1coh_cache": [hits, misses],
        }

    def save(self, path) -> None:
        """Write the spans (name id, parent row or -1, start ns, end ns)."""
        table = self._table().copy()
        parent = table[:, 1]
        parent[parent >= 0] //= 4
        np.savez_compressed(path, spans=table, names=np.array(self.names))


def merge(summaries) -> dict:
    """Sum raw summaries of several processes."""
    out = {"calls": Counter(), "self_s": Counter(), "counts": Counter(),
           "a1coh_cache": [0, 0]}
    for s in summaries:
        out["calls"].update(s["calls"])
        out["self_s"].update(s["self_s"])
        out["counts"].update(s["counts"])
        out["a1coh_cache"][0] += s["a1coh_cache"][0]
        out["a1coh_cache"][1] += s["a1coh_cache"][1]
    return out


def layer_metrics(raw: dict, overhead: float) -> dict:
    """Per-layer metric values from a merged raw summary."""
    calls, self_s, counts = raw["calls"], raw["self_s"], raw["counts"]
    out = {m: sum(calls.get(n, 0) for n in names)
           for m, names in _COUNT.items()}
    out.update({m: sum(self_s.get(n, 0.0) for n in names)
                for m, names in _SELF_S.items()})
    out["parabolic.summands"] = counts.get("parabolic.summands", 0)
    out["rings.rref_entries"] = counts.get("rings.rref_entries", 0)
    h1_calls = out["a1coh.h1_calls"]
    out["a1coh.h1_positive"] = (counts.get("a1coh.h1_positive", 0) / h1_calls
                                if h1_calls else 0.0)
    hits, misses = raw["a1coh_cache"]
    out["a1coh.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["trace.overhead"] = overhead
    return {m: out[m] for m in LAYER_METRICS}
