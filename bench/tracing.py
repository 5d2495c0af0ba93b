"""Spans around the calls into multispec's public functions.

The wrappers are installed from outside the package. Callers bind
names with ``from .poly import compose``, so one function can sit under
several module attributes; the tracer replaces every attribute of every
``multispec`` module that holds the original function object, and the
span is recorded whichever module makes the call. Spans stay in memory
and are written out when the run ends.

A span's self time is its duration minus the durations of the spans it
directly encloses.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter

# (module, function) pairs that get a span. The catalog, cli, pcf and
# parser entries are the layer boundaries; the poly, rootfind and
# spectrum entries split the periodic-point pipeline into its stages.
TRACED = (
    ("parser", "parse_map"),
    ("parser", "expression_to_fraction"),
    ("parser", "format_map"),
    ("poly", "rational_map_from_text"),
    ("poly", "make_map"),
    ("poly", "compose"),
    ("poly", "conjugate"),
    ("poly", "orbit_multiplier"),
    ("poly", "critical_data"),
    ("rootfind", "roots"),
    ("rootfind", "binary_form_roots"),
    ("spectrum", "spectrum"),
    ("spectrum", "elementary_symmetric"),
    ("spectrum", "fingerprint"),
    ("spectrum", "quantized_levels"),
    ("pcf", "classify_disjoint_type"),
    ("catalog", "entry_for_map"),
    ("catalog", "catalog_add"),
    ("catalog", "catalog_query"),
    ("catalog", "catalog_scan_collisions"),
    ("cli", "main"),
    ("families", "random_map"),
    ("families", "random_mobius"),
    ("families", "elementary_transform"),
    ("families", "lattes_mult2"),
    ("families", "power_map"),
)


def _store_size(args, kwargs):
    # every catalog function takes the store path first
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


def _count_spectrum(counts, args, kwargs, result, before):
    entries = [e for level in result.levels for e in level]
    counts["spectrum.levels"] += len(result.levels)
    counts["spectrum.points"] += len(entries)
    counts["spectrum.nonfinite_entries"] += sum(
        1 for e in entries if not (math.isfinite(e.real) and math.isfinite(e.imag))
    )


def _count_binary_form_roots(counts, args, kwargs, result, before):
    counts["rootfind.binary_form_roots.roots"] += len(result.roots)
    counts["rootfind.binary_form_roots.clustered"] += sum(
        1 for r in result.roots if r.multiplicity > 1
    )


def _count_compose(counts, args, kwargs, result, before):
    # computed, not measured: _finalize takes slogdet of the 2m x 2m
    # Sylvester matrix of the composed degree-m pair
    counts["poly.compose.sylvester_n3"] += (2 * result.degree) ** 3


def _count_add(counts, args, kwargs, result, before):
    counts["catalog.catalog_add.bytes_read"] += before
    # an append always grows the store, so an unchanged size is a no-op
    counts["catalog.catalog_add.noop"] += int(_store_size(args, kwargs) == before)


def _count_query(counts, args, kwargs, result, before):
    counts["catalog.catalog_query.bytes_read"] += before
    counts["catalog.catalog_query.hits"] += len(result.entries)


def _count_scan(counts, args, kwargs, result, before):
    counts["catalog.catalog_scan_collisions.bytes_read"] += before
    counts["catalog.catalog_scan_collisions.groups"] += len(result.groups)


# what the hooks count, per traced pass: (name, unit, better)
COUNTS = (
    ("spectrum.levels", "count", "higher"),
    ("spectrum.points", "count", "higher"),
    ("spectrum.nonfinite_entries", "count", "lower"),
    ("rootfind.binary_form_roots.roots", "count", "higher"),
    ("rootfind.binary_form_roots.clustered", "count", "lower"),
    ("poly.compose.sylvester_n3", "count", "lower"),
    ("catalog.catalog_add.bytes_read", "B", "lower"),
    ("catalog.catalog_add.noop", "count", "higher"),
    ("catalog.catalog_query.bytes_read", "B", "lower"),
    ("catalog.catalog_query.hits", "count", "higher"),
    ("catalog.catalog_scan_collisions.bytes_read", "B", "lower"),
    ("catalog.catalog_scan_collisions.groups", "count", "higher"),
)
DERIVED = (
    ("rootfind.simple_frac", "ratio", "higher"),
    ("families.self_s", "s", "lower"),
    ("trace.named_frac", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_table():
    """(name, unit, better) of every per-layer metric a traced run prints."""
    rows = []
    for module_name, func_name in TRACED:
        if module_name != "families":
            name = f"{module_name}.{func_name}"
            rows += [(f"{name}.self_s", "s", "lower"), (f"{name}.calls", "count", "lower"),
                     (f"{name}.errors", "count", "lower")]
    return rows + list(COUNTS) + list(DERIVED)


# span name -> (hook run before the call, hook run on its result)
HOOKS = {
    "spectrum.spectrum": (None, _count_spectrum),
    "rootfind.binary_form_roots": (None, _count_binary_form_roots),
    "poly.compose": (None, _count_compose),
    "catalog.catalog_add": (_store_size, _count_add),
    "catalog.catalog_query": (_store_size, _count_query),
    "catalog.catalog_scan_collisions": (_store_size, _count_scan),
}


class Tracer:
    """Records one span per call of each traced function while installed.

    ``op`` labels the spans with the benchmark operation that caused
    them; ``phase`` separates set-up spans from timed ones.
    """

    def __init__(self):
        self.spans = []  # (name, start, end, self_s, top_level, phase, op, error)
        self.counts = Counter({name: 0 for name, _, _ in COUNTS})
        self.phase = "setup"
        self.op = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        before_hook, after_hook = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = before_hook(args, kwargs) if before_hook else None
            stack = tracer._stack
            top_level = not stack
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                tracer.spans.append((name, start, end, end - start - frame[0], top_level,
                                     tracer.phase, tracer.op, error))
            if after_hook and tracer.phase == "timed":
                after_hook(tracer.counts, args, kwargs, result, before)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if (key == "multispec" or key.startswith("multispec.")) and m is not None]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"multispec.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write every span as one JSON line."""
        keys = ("name", "start", "end", "self_s", "top_level", "phase", "op", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(tracer, timed_passes, setups, op_seconds, overhead_s):
    """Per-pass layer numbers from the spans of the timed, traced passes.

    Every traced function gets ``.self_s``, ``.calls`` and ``.errors``;
    ``families`` runs at set-up only and is reported per set-up.
    ``trace.named_frac`` is the share of op time inside top-level spans.
    Returns the metrics and the exceptions that escaped each function,
    by type.
    """
    self_s = Counter()
    calls = Counter()
    errors = Counter()
    error_types = {}
    top_level_s = 0.0
    families_s = 0.0
    for name, start, end, own, top_level, phase, op, error in tracer.spans:
        if name.startswith("families."):
            if phase == "setup":
                families_s += own
            continue
        if phase != "timed":
            continue
        self_s[name] += own
        calls[name] += 1
        if top_level and op is not None:
            top_level_s += end - start
        if error is not None:
            errors[name] += 1
            error_types.setdefault(name, Counter())[error] += 1
    out = {}
    for module_name, func_name in TRACED:
        name = f"{module_name}.{func_name}"
        if module_name == "families":
            continue
        out[f"{name}.self_s"] = self_s[name] / timed_passes
        out[f"{name}.calls"] = calls[name] / timed_passes
        out[f"{name}.errors"] = errors[name] / timed_passes
    for name, value in tracer.counts.items():
        out[name] = value / timed_passes
    roots_found = tracer.counts["rootfind.binary_form_roots.roots"]
    clustered = tracer.counts["rootfind.binary_form_roots.clustered"]
    out["rootfind.simple_frac"] = (roots_found - clustered) / roots_found if roots_found else 0.0
    out["families.self_s"] = families_s / setups
    out["trace.named_frac"] = top_level_s / op_seconds if op_seconds else 0.0
    out["trace.overhead_s"] = overhead_s
    return out, {name: dict(c) for name, c in error_types.items()}
