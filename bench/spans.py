"""Spans and counters recorded by the benchmark's own wrappers.

A traced run replaces public names of the package with wrappers that record
a span (name, start, end, parent) per call and a few computed counters.  Each
name is patched where its caller looks it up: ``descent`` reaches the
calculus through the ``blockcalc`` module object but imports
``approx_derivative`` by name, and ``cli`` imports the engines and the
oracle by name, so both modules are patched as well as the defining one.

Spans stay in memory and are written out once, at the end of the run.
Self time is a span's duration minus the part of it its children cover;
children that ran in pool threads may overlap, so their union is taken.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from collections import defaultdict
from functools import wraps

BLOCKCALC_OPS = ("diag_encode", "projector_encode", "entry_project", "product",
                 "lcu", "scale_down", "amplify", "qsvt_transform", "apply_postselect")


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._root: int | None = None
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def root(self, name: str) -> int:
        """Open a span that spans started in other threads hang under."""
        self._root = self.begin(name)
        return self._root

    def end_root(self) -> None:
        self.end(self._root)
        self._root = None

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, name: str, fn, hook=None):
        """Wrapper recording a span per call; hook sees the arguments and result."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def _corner_bytes(tracer, args, result):
    corner = getattr(result, "corner", None)
    if corner is not None:
        tracer.count("blockcalc.corner_bytes", corner.nbytes)


def _dim3(tracer, args, result):
    tracer.count("blockcalc.spectral_norm.dim3_sum", float(args[0].shape[0]) ** 3)


def _audit_bytes(tracer, args, result):
    log = args[0]
    tracer.count("blockcalc.audit.records")
    tracer.count("blockcalc.audit.bytes",
                 len(json.dumps(log.records[-1], sort_keys=True)) + 1)


def _poly_degree(tracer, args, result):
    tracer.count("chebyshev.poly_degree", result.degree)


def patch_table():
    """(owner, attribute, span name, hook) for every traced public name."""
    import blockgd
    from blockgd import blockcalc, chebyshev, cli, descent, polyfunc

    table = [(blockcalc, op, f"blockcalc.{op}", _corner_bytes) for op in BLOCKCALC_OPS]
    table += [
        (blockcalc, "spectral_norm", "blockcalc.spectral_norm", _dim3),
        (blockcalc.AuditLog, "record", "blockcalc.audit", _audit_bytes),
        (descent, "build_gradient_be", "descent.gradient", None),
        (descent, "build_partial_be", "descent.partial", None),
        (descent, "gd_step_generic", "descent.step", None),
        (descent, "gd_step_separable", "descent.step", None),
        (descent, "approx_derivative", "chebyshev.approx_derivative", _poly_degree),
        (descent, "run_generic", "descent.run", None),
        (descent, "run_separable", "descent.run", None),
        (blockgd, "run_generic", "descent.run", None),
        (blockgd, "run_separable", "descent.run", None),
        (blockgd, "classical_gd", "oracle.classical_gd", None),
        (cli, "run_generic", "descent.run", None),
        (cli, "run_separable", "descent.run", None),
        (cli, "classical_gd", "oracle.classical_gd", None),
        (cli, "parse_experiment", "cli.parse", None),
        (cli, "load_objective", "polyfunc.load_objective", None),
        (cli, "run_experiment", "cli.run_experiment", None),
        (cli, "compare_costs", "cli.compare_costs", None),
        (polyfunc.ObjectiveFunction, "evaluate", "polyfunc.evaluate", None),
        (polyfunc.ObjectiveFunction, "gradient", "polyfunc.gradient", None),
        (chebyshev.SeparableObjective, "evaluate", "chebyshev.evaluate", None),
        (chebyshev.SeparableObjective, "gradient", "chebyshev.gradient", None),
    ]
    return table


def install(tracer: Tracer) -> list:
    """Patch every traced name; returns what uninstall needs to undo it."""
    saved = []
    for owner, attr, name, hook in patch_table():
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, hook))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict:
    """Per span name: calls, total seconds and self seconds."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None and end is not None:
            children[parent].append((start, end))
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        if end is None:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        entry["self_s"] += (end - start) - _union_length(
            [(s, e) for s, e in clipped if e > s])
    return dict(out)


def merge(total: dict, part: dict) -> None:
    """Add one summary (from summarize) into a running total."""
    for name, entry in part.items():
        into = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key, value in entry.items():
            into[key] += value
