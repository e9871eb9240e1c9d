"""The benchmark's in-process workloads must keep running against the package.

bench/worker.py builds the descent workloads from the names it reads off
``blockgd`` (the engines, the oracle, the trace views ``iterates()``,
``final_iterate()``, ``records`` and ``as_array()``, ...).  Deleting one of
them would otherwise surface only when the benchmark runs; here every
operation of the tiny generic_dense and separable_steps inputs runs
untraced, and the tiny cli_audit sweep's configs run recorded, their audit
logs replayed.  gen.py, spans.py and worker.py are loaded from their paths
without writing bytecode next to them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import blockgd
from blockgd.blockcalc import AuditLog, recording
from blockgd.cli import parse_experiment
from blockgd.descent import run_generic, run_separable
from _audit_replay import replay

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["generic_dense", "separable_steps"])
def test_descent_workload_runs(monkeypatch, workload):
    """Every operation runs, and its trace.records repeat ancillas as ancilla_high_water.

    IterationRecord keeps ancilla_high_water only while bench/worker.py reads
    it into its fingerprints; the trace itself stores one ancilla count.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    _load(monkeypatch, "spans")
    gen = _load(monkeypatch, "gen")
    worker = _load(monkeypatch, "worker")
    traces = []
    for name in ("run_generic", "run_separable"):
        def kept(*args, _engine=getattr(blockgd, name)):
            traces.append(_engine(*args))
            return traces[-1]
        monkeypatch.setattr(blockgd, name, kept)
    inputs = gen.generate(workload, 1, tiny=True)
    ops = worker._descent_ops(inputs)
    assert len(ops) == len(inputs["instances"]) > 0
    for (name, op), inst in zip(ops, inputs["instances"]):
        result = op(False)
        assert result["steps"] == inst["T"], name
        assert len(result["fingerprint"]) == 40
        assert result["facts"][""]["queries"] > 0
    assert len(traces) == len(ops)
    for trace in traces:
        assert all(r.ancilla_high_water == r.ancillas for r in trace.records)


def test_cli_audit_sweep_replays(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    gen = _load(monkeypatch, "gen")
    sweep = gen.generate("cli_audit", 1, tiny=True)["sweep"]
    assert sweep
    for entry in sweep:
        cfg = parse_experiment(entry["config"])
        engine = run_generic if cfg.run.mode == "generic" else run_separable
        log = AuditLog()
        with recording(log):
            engine(cfg.objective, cfg.x0, cfg.run)
        assert log.records, entry["name"]
        assert replay(log.to_jsonl()) is None, entry["name"]
