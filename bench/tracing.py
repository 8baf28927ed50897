"""Spans and counters around the program's public entry points.

`Tracer.install()` wraps functions and methods of an imported `wittsums`
from the outside; nothing under src/ changes.  A module-level function is
replaced on every `wittsums.*` module that holds it, because a name taken
with `from .fields import get_field` is looked up in the importing module
(charsums, asw, elliptic, rational, ...), not in `fields`.  Spans are kept in
memory and written out once, by `dump()`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute) of functions that get a span; the span name is
# "<module>.<attribute>" without the package prefix.
SPANNED = (
    ("fields", "get_field"),
    ("fields", "get_embedding"),
    ("charsums", "sum_witt"),
    ("charsums", "l_function"),
    ("charsums", "sweep_kumar"),
    ("charsums", "sum_teichmuller"),
    ("asw", "conductor"),
    ("asw", "artin_reduce_at"),
    ("asw", "genus_of_cover"),
    ("witt", "compute_universal_polys"),
)

# (module, class, method, counter): methods that are only counted, since a
# span per call would cost more than the call.
COUNTED = (
    ("fields", "FiniteField", "__init__", "fields.fields_built"),
    ("galois_rings", "GaloisRing", "mul", "galois_rings.mul_calls"),
    ("galois_rings", "GaloisRing", "absolute_trace", "galois_rings.trace_calls"),
    ("cyclotomic", "CyclotomicInteger", "__mul__", "cyclotomic.mul_calls"),
    ("cyclotomic", "CyclotomicInteger", "__rmul__", "cyclotomic.mul_calls"),
    ("rational", "RationalFunction", "eval", "rational.eval_calls"),
    ("elliptic", "EllipticFunction", "eval_at_point", "elliptic.eval_at_point_calls"),
    ("witt", "WittVector", "__mul__", "witt.vector_mul_calls"),
    ("witt", "WittVector", "__add__", "witt.vector_add_calls"),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, job, extra]
        self.counts = defaultdict(int)
        self._stack = []
        self.job = None

    # -- spans

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; `after(before, result)` may annotate it, with
        `before` what `after.before()` returned as the call began."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            before = after.before() if after else None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                rec[5] = after(before, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation

    def install(self):
        self._universal = sys.modules["wittsums.witt"].compute_universal_polys
        mods = [m for n, m in sys.modules.items()
                if (n == "wittsums" or n.startswith("wittsums.")) and m is not None]
        hooks = {
            "charsums.sum_witt": _SumWittHook(),
            "charsums.sweep_kumar": _LenHook(self, "charsums.bound_reports"),
        }
        for modname, attr in SPANNED:
            orig = getattr(sys.modules[f"wittsums.{modname}"], attr)
            name = f"{modname}.{attr}"
            wrapper = self.span(name, orig, hooks.get(name))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
        wrapped = {}
        for modname, clsname, meth, counter in COUNTED:
            cls = getattr(sys.modules[f"wittsums.{modname}"], clsname)
            orig = cls.__dict__[meth]
            if orig not in wrapped:
                wrapped[orig] = self._counting(orig, counter)
            setattr(cls, meth, wrapped[orig])
        self._cache_start = self._cache_misses()

    def _counting(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _cache_misses(self):
        return self._universal.cache_info().misses

    # -- results

    def _child_time(self) -> list:
        """Per span, the summed duration of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return child

    def totals(self) -> dict:
        """Raw per-layer totals; `metrics()` turns them into the report."""
        spans = self.spans
        child = self._child_time()
        inclusive = defaultdict(float)   # outermost span of each name only
        calls = defaultdict(int)
        self_time = defaultdict(float)
        for i, s in enumerate(spans):
            dur = s[2] - s[1]
            calls[s[0]] += 1
            self_time[s[0]] += dur - child[i]
            j = s[3]
            while j >= 0 and spans[j][0] != s[0]:
                j = spans[j][3]
            if j < 0:
                inclusive[s[0]] += dur
        witt_sums = [s for s in spans if s[0] == "charsums.sum_witt" and s[5]]
        out = {f"{name}_s": t for name, t in inclusive.items()}
        out.update({f"{name}_calls": n for name, n in calls.items()})
        out["charsums.l_function_self_s"] = self_time["charsums.l_function"]
        out["charsums.sum_witt_tablebuild_s"] = sum(
            s[2] - s[1] for s in witt_sums if s[5]["miss"])
        out["charsums.points"] = sum(s[5]["points"] for s in witt_sums)
        out["witt.universal_polys_built"] = self._cache_misses() - self._cache_start
        out.update(self.counts)
        return out

    def dump(self, path: str):
        """Write every span, with its self time, as one JSON document."""
        child = self._child_time()
        rows = [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "job": s[4], "self": (s[2] - s[1]) - child[i], "extra": s[5]}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)


class _SumWittHook:
    """Marks a sum_witt span as a table build when the trace-table cache
    missed during it, and records the points it summed."""

    def __init__(self):
        self.tables = sys.modules["wittsums.charsums"]._digit_trace_tables

    def before(self):
        return self.tables.cache_info().misses

    def __call__(self, before, result):
        return {"miss": self.tables.cache_info().misses > before,
                "points": result.term_count}


class _LenHook:
    """Counts the reports a sweep returns."""

    def __init__(self, tracer, counter):
        self.tracer, self.counter = tracer, counter

    def before(self):
        return None

    def __call__(self, before, result):
        self.tracer.counts[self.counter] += len(result)
        return None


# per-layer metric: (unit, total it reads)
METRICS = {
    "fields.get_field_s": ("s", "fields.get_field_s"),
    "fields.fields_built": ("count", "fields.fields_built"),
    "fields.get_embedding_s": ("s", "fields.get_embedding_s"),
    "galois_rings.mul_calls": ("count", "galois_rings.mul_calls"),
    "galois_rings.trace_calls": ("count", "galois_rings.trace_calls"),
    "charsums.sum_witt_s": ("s", "charsums.sum_witt_s"),
    "charsums.sum_witt_calls": ("count", "charsums.sum_witt_calls"),
    "charsums.sum_witt_tablebuild_s": ("s", "charsums.sum_witt_tablebuild_s"),
    "charsums.newton_s": ("s", "charsums.l_function_self_s"),
    "cyclotomic.mul_calls": ("count", "cyclotomic.mul_calls"),
    "rational.eval_calls": ("count", "rational.eval_calls"),
    "elliptic.eval_at_point_calls": ("count", "elliptic.eval_at_point_calls"),
    "asw.conductor_s": ("s", "asw.conductor_s"),
    "asw.artin_reduce_s": ("s", "asw.artin_reduce_at_s"),
    "asw.genus_of_cover_s": ("s", "asw.genus_of_cover_s"),
    "asw.artin_reduce_calls": ("count", "asw.artin_reduce_at_calls"),
    "witt.vector_mul_calls": ("count", "witt.vector_mul_calls"),
    "witt.vector_add_calls": ("count", "witt.vector_add_calls"),
    "witt.universal_polys_s": ("s", "witt.compute_universal_polys_s"),
    "witt.universal_polys_built": ("count", "witt.universal_polys_built"),
    "charsums.sweep_kumar_s": ("s", "charsums.sweep_kumar_s"),
    "charsums.sum_teichmuller_s": ("s", "charsums.sum_teichmuller_s"),
    "charsums.bound_reports": ("count", "charsums.bound_reports"),
    "cli.main_s": ("s", "cli.main_s"),
    "cli.output_mb": ("MB", "cli.output_mb"),
}


def merge(totals: list) -> dict:
    """Sum raw totals over several traced processes (cli-oneshot)."""
    out = {}
    for t in totals:
        for k, v in t.items():
            out[k] = out.get(k, 0) + v
    return out


def metrics(totals: dict) -> dict:
    """Per-layer metrics, by name with unit, from raw totals."""
    out = {
        name: {"value": totals.get(key, 0), "unit": unit}
        for name, (unit, key) in METRICS.items()
    }
    sum_witt_s = totals.get("charsums.sum_witt_s", 0.0)
    points = totals.get("charsums.points", 0)
    out["charsums.points_per_s"] = {
        "value": points / sum_witt_s if sum_witt_s else 0.0, "unit": "1/s"}
    return out
