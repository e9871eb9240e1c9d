"""The benchmark's span wrappers must keep seeing every traced layer.

bench/spans.py patches public names where their callers look them up
(``descent.build_gradient_be``, ``cli.run_generic``, ...).  A refactor that
reaches those layers by another path still passes every other test but
zeroes the per-layer benchmark metrics; this test catches it.  spans.py is
loaded from its path without writing bytecode next to it.
"""

import importlib.util
import json
import sys
from pathlib import Path

from blockgd import cli, descent
from blockgd.chebyshev import ScalarFunction, SeparableObjective
from blockgd.descent import DescentConfig
from blockgd.polyfunc import MonomialTerm, ObjectiveFunction

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
REQUIRED = ("descent.run", "descent.step", "descent.gradient", "descent.partial",
            "chebyshev.approx_derivative", "oracle.classical_gd")


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("blockgd_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent is not None:
        yield spans[parent][0]
        parent = spans[parent][3]


def test_traced_runs_record_every_layer(tmp_path, monkeypatch):
    spans = _load_spans(monkeypatch)
    table = spans.patch_table()
    assert all(hasattr(owner, attr) for owner, attr, _, _ in table)
    generic = ObjectiveFunction(2, 1.0, (MonomialTerm(0.25, (2, 1)),))
    separable = SeparableObjective(ScalarFunction.named("sin"), n=2, grad_bound=1.0)
    config = tmp_path / "sin.json"
    config.write_text(json.dumps({
        "mode": "separable",
        "objective": {"kind": "named", "name": "sin", "n": 2, "M": 1.0},
        "x0": [0.1, -0.2], "T": 2, "eps": 1e-6, "eta": 0.1,
    }))
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        assert len(saved) == len(table)
        descent.run_generic(generic, [0.1, 0.2], DescentConfig(steps=2, eps=1e-6, mode="generic"))
        descent.run_separable(separable, [0.1, -0.2],
                              DescentConfig(steps=2, eps=1e-6, mode="separable", eta=0.1))
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        spans.uninstall(saved)
    names = [span[0] for span in tracer.spans]
    assert set(REQUIRED) <= set(names)
    # Two direct runs plus the CLI run, each with its two steps inside a run span.
    assert names.count("descent.run") == 3
    steps = [i for i, name in enumerate(names) if name == "descent.step"]
    assert len(steps) == 6
    assert all("descent.run" in _ancestors(tracer.spans, i) for i in steps)


def test_audit_spans_match_audit_log(tmp_path, monkeypatch):
    """Each audit record passes through AuditLog.record, the name spans.py patches."""
    spans = _load_spans(monkeypatch)
    config = Path(__file__).resolve().parents[1] / "configs" / "quadratic.json"
    out = tmp_path / "out"
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        assert cli.main(["run", "--config", str(config), "--out", str(out), "--audit"]) == 0
    finally:
        spans.uninstall(saved)
    records = (out / "audit.jsonl").read_text().splitlines()
    audit_spans = [span for span in tracer.spans if span[0] == "blockcalc.audit"]
    assert len(records) > 0
    assert len(audit_spans) == len(records)
    assert tracer.counters["blockcalc.audit.records"] == len(records)
