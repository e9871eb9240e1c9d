"""Self-check of the benchmark harness at tiny sizes; no timing assertions.

    python3 bench/selfcheck.py        (from the root of a checkout)

Runs every workload untraced and traced with --tiny for one second and
checks that BENCHMARK.json and the harness agree, that every declared metric
is emitted with its unit, that operations were attempted and verified, and
that the audit layer shows up on cli_audit only.  It also checks that the
generator's feasibility invariants hold over many seeds and that the
benchmark refuses to run outside a checkout.  Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import run  # noqa: E402


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_declared(root: Path) -> dict:
    doc = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    check(declared == run.END_TO_END, "end_to_end metrics differ from run.END_TO_END")
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    check(declared == run.PER_LAYER, "per_layer metrics differ from run.PER_LAYER")
    check({w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS),
          "BENCHMARK.json names a workload run.py does not have")
    return doc


def check_generator() -> None:
    for seed in range(100):
        for workload in run.WORKLOADS:
            first = gen.generate(workload, seed)
            check(first == gen.generate(workload, seed), f"{workload} seed {seed} not repeatable")
    defect = gen.generate("cli_audit", 0)["defect"]
    check(defect["T"] >= 14 and defect["eps"] == 1e-6, "defect probe left its T >= 14 range")


def run_tiny(root: Path, workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0,
          f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = json.loads(next(l for l in lines if l.startswith("# summary "))[len("# summary "):])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
          f"{workload} trace {trace}: {result['correct']=} {result['attempted']=}")
    check(summary["verified"] >= 1, f"{workload} trace {trace}: no operation was verified")
    expected = run.PER_LAYER if trace else run.END_TO_END
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{workload} trace {trace}: metric names or units differ")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_bare_directory(root: Path, doc: dict) -> None:
    bare = BENCH_DIR / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = subprocess.run(doc["command"] + ["--workload", "generic_dense", "--seed", "1",
                                                "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a directory without the program must fail without a result")


def main() -> int:
    root = Path.cwd()
    doc = check_declared(root)
    check_generator()
    for workload in run.WORKLOADS:
        run_tiny(root, workload, 0)
        layers = run_tiny(root, workload, 1)
        audit = layers["blockcalc.audit.s"]
        if workload == "cli_audit":
            check(audit > 0, "cli_audit must exercise the audit log")
        else:
            check(audit == 0, f"{workload} must not touch the audit log")
        check(layers["descent.run.s"] > 0 and layers["blockcalc.spectral_norm.calls"] > 0,
              f"{workload}: spans missing")
    check_bare_directory(root, doc)
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
