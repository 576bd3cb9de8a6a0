"""Span tracer that times calls into mercuryflow's public functions from outside.

:meth:`Tracer.install` replaces each function in :data:`FUNCTIONS` with a
timing wrapper, rebinding it in every loaded module that holds the original
by name (``solve_epoch`` lives in ``waterfill`` and is imported by name into
``offline``, ``online``, ``evaluation`` and the package), and patches the
``MmseTable`` methods on the class.  Spans (name, start, end, parent span,
allocation id, argument size) stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from mercuryflow import tables

from workloads import COUNTS, FINITE


def _elements(self, x, *args, **kwargs):
    return int(np.size(x))


# (layer, attribute, size of the call's work); attributes with a dot are methods
FUNCTIONS = (
    ("tables", "build_table", lambda c, *a, **kw: c.label),
    ("tables", "MmseTable.mmse_inverse", _elements),
    ("tables", "MmseTable.mmse_at", _elements),
    ("tables", "MmseTable.mi_at", _elements),
    ("tables", "MmseTable.mercury_factor", _elements),
    ("waterfill", "solve_epoch", lambda problem: problem.gains.shape),
    ("waterfill", "power_at_level", None),
    ("waterfill", "classical_wf", None),
    ("offline", "nda_solve", None),
    ("offline", "fsa_solve", None),
    ("offline", "kkt_verify", None),
    ("offline", "allocation_csv", None),
    ("online", "online_solve", None),
    ("online", "causal_ecc_check", None),
    ("evaluation", "run_strategy", None),
    ("evaluation", "evaluate_mi", None),
    ("evaluation", "pbp_solve", None),
    ("evaluation", "dwf_solve", None),
    ("evaluation", "trace_csv", None),
    ("scenario", "generate", None),
    ("scenario", "rescale_energy", None),
)

SPAN_NAMES = tuple(f"{layer}.{attr.rpartition('.')[2]}" for layer, attr, _ in FUNCTIONS)


def metric_units() -> dict[str, str]:
    """Every per-layer metric :func:`layer_metrics` reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for label in FINITE:
        units[f"tables.build_table.{label}.s"] = "s"
    units.update({
        "tables.mmse_inverse.elements": "count",
        "tables.mmse_inverse.us_per_call": "us",
        "tables.mmse_inverse.ns_per_element": "ns",
        "waterfill.solve_epoch.accesses": "count",
        "waterfill.level_evals_per_solve": "count",
        "trace.untraced_alloc_per_s": "1/s",
        "trace.traced_alloc_per_s": "1/s",
        "trace.overhead_ratio": "ratio",
        "trace.allocations": "count",
    })
    units.update(dict.fromkeys(COUNTS, "count"))
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, alloc_id, size]
        self.alloc_id = -1
        self.bindings: dict[str, list[str]] = {}   # span name -> "module.attr" rebound
        self._stack: list[int] = []
        self._saved: list[tuple] = []              # (owner, attr, original)
        self._originals: dict[int, tuple] = {}

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.alloc_id,
                    size(*args, **kwargs) if size is not None else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return timed

    def install(self) -> None:
        wrappers = {}   # id(original) -> (original, wrapper, span name)
        for (layer, attr, size), name in zip(FUNCTIONS, SPAN_NAMES):
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(tables, cls_name)
                original = owner.__dict__[meth]
                self._saved.append((owner, meth, original))
                setattr(owner, meth, self._wrap(name, original, size))
                self.bindings[name] = [f"{owner.__module__}.{attr}"]
            else:
                original = getattr(sys.modules[f"mercuryflow.{layer}"], attr)
                wrappers[id(original)] = (original, self._wrap(name, original, size), name)
                self.bindings[name] = []
        for mod in list(sys.modules.values()):
            for key, obj in list(getattr(mod, "__dict__", {}).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and obj is hit[0]:
                    self._saved.append((mod, key, obj))
                    setattr(mod, key, hit[1])
                    self.bindings[hit[2]].append(f"{mod.__name__}.{key}")
        self._originals = {i: (orig, name) for i, (orig, _, name) in wrappers.items()}
        self.check_rebound()

    def check_rebound(self) -> None:
        """Raise if a loaded module still binds an unwrapped function by name."""
        for mod in list(sys.modules.values()):
            for key, obj in list(getattr(mod, "__dict__", {}).items()):
                hit = self._originals.get(id(obj))
                if hit is not None and obj is hit[0]:
                    raise RuntimeError(f"{mod.__name__}.{key} still binds the untraced {hit[1]}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """Spans as CSV: index, name, start_s, end_s, parent, alloc_id, size."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,alloc_id,size\n")
            for i, (name, start, end, parent, alloc, size) in enumerate(self.spans):
                size = "x".join(map(str, size)) if isinstance(size, tuple) else size
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{alloc},"
                         f"{'' if size is None else size}\n")


def layer_metrics(spans) -> dict[str, float]:
    """Calls, total and self seconds per span name, plus the derived layer counts."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    build_s = defaultdict(float)
    elements = 0
    accesses = 0
    evals_in_solve = defaultdict(int)
    for i, (name, start, end, parent, _, size) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_s[i]
        if name == "tables.build_table":
            build_s[size] += end - start
        elif name == "tables.mmse_inverse":
            elements += size
        elif name == "waterfill.solve_epoch":
            accesses += size[1]
        elif name == "waterfill.power_at_level" and parent >= 0 \
                and spans[parent][0] == "waterfill.solve_epoch":
            evals_in_solve[parent] += 1

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = self_s[name]
    for label in FINITE:
        out[f"tables.build_table.{label}.s"] = build_s[label]
    inv_calls = calls["tables.mmse_inverse"]
    inv_self = self_s["tables.mmse_inverse"]
    out["tables.mmse_inverse.elements"] = elements
    out["tables.mmse_inverse.us_per_call"] = 1e6 * inv_self / inv_calls if inv_calls else 0.0
    out["tables.mmse_inverse.ns_per_element"] = 1e9 * inv_self / elements if elements else 0.0
    out["waterfill.solve_epoch.accesses"] = accesses
    # power_at_level runs once per stream for every spent-energy evaluation
    per_solve = [evals_in_solve[i] / spans[i][5][0]
                 for i, span in enumerate(spans) if span[0] == "waterfill.solve_epoch"]
    out["waterfill.level_evals_per_solve"] = sum(per_solve) / len(per_solve) if per_solve else 0.0
    return out
