"""blockgd benchmark: one command, three seeded workloads, verified outputs.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout (it needs ``src/blockgd`` and ``configs``;
elsewhere it exits 2).  This process is the single-process generator: it
builds the workload's inputs from the seed (bench/gen.py), then runs the
workload in fresh interpreters (bench/worker.py), never more than one at a
time, so no more BLAS threads run than the machine has cores.

* ``setup_s`` is the median over SETUP_SAMPLES fresh interpreters of the wall
  time from spawn to "inputs built" (interpreter start, ``import blockgd``,
  building the seeded inputs).
* ``run_s_p50`` / ``run_s_p90`` are percentiles of the wall time of verified
  operations; failed ones are left out and counted in ``failed``.
* ``steps_per_s`` is descent steps in verified operations per timed second.
* ``peak_rss_mib`` is ``getrusage`` max RSS of the processes that ran the
  workload (the worker itself, or its CLI children for cli_audit).

The timings are reported at a fixed host speed: each is scaled by the
nominal over the measured time of a reference task that runs between the
operations (worker.Reference), and the unscaled values are printed beside
them.  On a shared host this cancels slow drift of the host's own speed.

With ``--trace 1`` the worker alternates untraced and traced cycles and the
metrics printed are the per-layer ones; each is per operation of the
workload (totals over traced operations divided by their count) unless its
definition below says otherwise.  Spans are written to bench/_out/.

The last line printed is the JSON result; the lines before it give each
metric with its unit and sample count, ``failed_frac`` and the provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
from spans import BLOCKCALC_OPS  # noqa: E402

# BENCHMARK.json lists generic_dense and cli_audit only: on the shared 2-vCPU
# host the benchmark was tuned on, separable_steps' run-to-run spread (IQR over
# median of ten seeds) reached 0.19-0.29 unscaled and 0.20 scaled, against
# bounds of 0.25.  It stays runnable here for the per-step follow-ups.
WORKLOADS = ("generic_dense", "separable_steps", "cli_audit")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s_p50": "s",
    "run_s_p90": "s",
    "steps_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

# Per-layer metric -> unit.  Span-derived names end in .calls/.s/.self_s.
PER_LAYER = {}
for _op in BLOCKCALC_OPS:
    PER_LAYER[f"blockcalc.{_op}.calls"] = "count"
    PER_LAYER[f"blockcalc.{_op}.self_s"] = "s"
PER_LAYER.update({
    "blockcalc.spectral_norm.calls": "count",
    "blockcalc.spectral_norm.s": "s",
    "blockcalc.spectral_norm.dim3_sum": "count",
    "blockcalc.corner_bytes": "bytes",
    "blockcalc.audit.records": "count",
    "blockcalc.audit.s": "s",
    "blockcalc.audit.bytes": "bytes",
    "descent.run.s": "s",
    "descent.run.self_s": "s",
    "descent.steps": "count",
    "descent.gradient.calls": "count",
    "descent.gradient.self_s": "s",
    "descent.partial.calls": "count",
    "descent.partial.self_s": "s",
    "descent.step.calls": "count",
    "descent.step.self_s": "s",
    "descent.queries_final": "count",
    "descent.depth_units_final": "count",
    "descent.eps_budget_final": "1",
    "chebyshev.approx_derivative.calls": "count",
    "chebyshev.approx_derivative.s": "s",
    "chebyshev.poly_degree": "degree",
    "chebyshev.evaluate.calls": "count",
    "chebyshev.evaluate.s": "s",
    "chebyshev.gradient.calls": "count",
    "chebyshev.gradient.s": "s",
    "polyfunc.evaluate.calls": "count",
    "polyfunc.evaluate.s": "s",
    "polyfunc.gradient.calls": "count",
    "polyfunc.gradient.s": "s",
    "polyfunc.load_objective.s": "s",
    "oracle.classical_gd.s": "s",
    "oracle.max_dev": "1",
    "cli.import_s": "s",
    "cli.parse.s": "s",
    "cli.run_experiment.s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.compare_costs.s": "s",
    "cli.sweep.s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.process_s": "s",
    "cli.defect_t14.exit_code": "code",
    "failed_frac": "ratio",
    "trace.run_s_p50": "s",
    "trace.overhead": "ratio",
})
# Counters summed by the wrappers, reported per traced operation.
PER_OP_COUNTERS = ("blockcalc.spectral_norm.dim3_sum", "blockcalc.corner_bytes",
                   "blockcalc.audit.records", "blockcalc.audit.bytes",
                   "cli.import_s", "cli.process_s")


def _p90(samples: list) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def host_scale(result: dict) -> float:
    """Nominal over measured reference time (worker.Reference); 1 at nominal speed."""
    return result["reference_nominal_s"] / statistics.median(result["reference"])


def end_to_end(result: dict, setup: list) -> dict:
    samples = result["samples"]
    scale = host_scale(result)
    return {
        "setup_s": statistics.median(setup) * scale,
        "run_s_p50": statistics.median(samples) * scale,
        "run_s_p90": _p90(samples) * scale,
        "steps_per_s": result["steps"] / result["wall"] / scale,
        "peak_rss_mib": result["peak_rss_mib"],
    }


def per_layer(result: dict) -> dict:
    ops = result["traced_ops"]
    layers = result["layers"]
    counters = result["counters"]
    facts = list(result["facts"].values())
    values = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "s", "self_s"):
            values[name] = layers.get(span, {}).get(kind, 0) / ops
    for name in PER_OP_COUNTERS:
        values[name] = counters.get(name, 0.0) / ops
    approximations = layers.get("chebyshev.approx_derivative", {}).get("calls", 0)
    values["chebyshev.poly_degree"] = (
        counters.get("chebyshev.poly_degree", 0.0) / approximations if approximations else 0.0)
    untraced = result["samples"]
    values["descent.steps"] = result["steps"] / len(untraced) if untraced else 0.0
    for field in ("queries", "depth_units", "eps_budget"):
        values[f"descent.{field}_final"] = (
            statistics.fmean(f[field] for f in facts) if facts else 0.0)
    values["oracle.max_dev"] = max((f["max_dev"] for f in facts), default=0.0)
    values["cli.artifact_bytes"] = counters.get("cli.artifact_bytes", 0.0)
    values["cli.defect_t14.exit_code"] = result.get("defect_exit", 0)
    values["failed_frac"] = result["failed"] / result["attempted"]
    traced = statistics.median(result["traced_samples"]) if result["traced_samples"] else 0.0
    values["trace.run_s_p50"] = traced
    values["trace.overhead"] = traced / statistics.median(untraced) if untraced else 0.0
    return {name: values[name] for name in PER_LAYER}


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _worker(args: list, root: Path, work: Path, timeout: float) -> float:
    """Run worker.py to completion; returns seconds from spawn to its "ready" line."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                            cwd=work, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready or code != 0:
        raise RuntimeError(f"worker exited {code} (ready: {ready})")
    return setup


def run_workload(args, root: Path) -> tuple[dict, list]:
    """Set up and run one workload; returns the worker's result and set-up times.

    Half the set-up samples are taken before the timed worker and half
    after, so their median spans the run's whole window.
    """
    deadline = time.perf_counter() + DEADLINE_S
    work = BENCH_DIR / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = work / "inputs.json"
        inputs.write_text(json.dumps(gen.generate(args.workload, args.seed, tiny=args.tiny)))
        common = [str(inputs), str(work / "result.json"), "--root", str(root)]
        setup_only = common + ["--setup-only"]
        setup = [_worker(setup_only, root, work, 60) for _ in range(SETUP_SAMPLES // 2)]
        extra = ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
        setup.append(_worker(common + extra, root, work,
                             deadline - time.perf_counter() - 10 * SETUP_SAMPLES))
        setup += [_worker(setup_only, root, work, 10) for _ in range(SETUP_SAMPLES // 2)]
        result = json.loads((work / "result.json").read_text())
        if not result["samples"]:
            raise RuntimeError(f"no operation was verified: {result['errors']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["provenance"].update(
        seed=args.seed, git_commit=_git_commit(root),
        samples={"setup": len(setup), "run": len(result["samples"]),
                 "traced_run": len(result["traced_samples"])})
    return result, setup


def report(args, result: dict, setup: list) -> dict:
    if args.trace:
        metrics = per_layer(result)
        units = PER_LAYER
    else:
        metrics = end_to_end(result, setup)
        units = END_TO_END
    samples = len(result["samples"])
    print(f"workload {args.workload} seed {args.seed} trace {int(args.trace)}: "
          f"attempted {result['attempted']} failed {result['failed']} "
          f"failed_frac {result['failed'] / result['attempted']:.4f} "
          f"verified {result['verified']}")
    raw = {"setup_s": statistics.median(setup), "run_s_p50": statistics.median(result["samples"]),
           "run_s_p90": _p90(result["samples"])}
    print(f"  host scale {host_scale(result):.4f} from {len(result['reference'])} reference "
          "runs; unscaled: " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items()))
    notes = {"setup_s": f"median of {len(setup)} fresh set-ups",
             "run_s_p50": f"n={samples}", "run_s_p90": f"n={samples}",
             "steps_per_s": f"{result['steps']} steps in {result['wall']:.1f} s",
             "peak_rss_mib": "getrusage max RSS",
             "trace.run_s_p50": f"n={len(result['traced_samples'])}"}
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<36} {value:>16.6g} {units[name]}{note}")
    for error in result["errors"]:
        print(f"  error: {error}")
    print("# provenance " + json.dumps(result["provenance"], sort_keys=True))
    print("# summary " + json.dumps({"verified": result["verified"], "samples": samples,
                                     "incorrect": result["incorrect"]}))
    return {
        "correct": result["incorrect"] == 0 and result["verified"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own run.py process."""
    rows = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            rows[(workload, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = {f"{w}/trace{t}": doc for (w, t), doc in rows.items()}
    out = BENCH_DIR / "_out"
    out.mkdir(exist_ok=True)
    (out / f"summary-s{args.seed}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({
        "correct": all(doc["correct"] for doc in rows.values()),
        "attempted": sum(doc["attempted"] for doc in rows.values()),
        "failed": sum(doc["failed"] for doc in rows.values()),
        "metrics": {f"{w}.{name}": m for (w, t), doc in rows.items()
                    for name, m in doc["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="blockgd benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the harness self-check only")
    args = parser.parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/blockgd/__init__.py", "configs/quadratic.json")
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of a blockgd checkout; missing {missing}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        result, setup = run_workload(args, root)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result, setup)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
