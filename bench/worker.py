"""Run one benchmark workload in a fresh interpreter.

    python3 bench/worker.py INPUTS RESULT --root ROOT --seconds S [--trace] [--setup-only]

INPUTS is the generator's JSON for one workload and seed.  The worker imports
blockgd, builds the inputs and prints ``ready``; run.py times set-up up to
that line.  With --setup-only it stops there.  Otherwise it does one untimed
warm-up operation (the first sizeable SVD in a fresh process can stall), then
runs and verifies operations for S seconds and writes RESULT as JSON.

With --trace it alternates untraced and traced cycles over the workload's
operations, so one run yields both the per-layer spans and the tracing
overhead.  Every operation is verified; a failed check marks the run
incorrect, and an operation that raises or exits non-zero counts as failed.
"""

from __future__ import annotations

import argparse
import glob
import gzip
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120
SHIPPED_RUNS = ("quadratic.json", "separable_sin.json")
COSTS_PARAMS = "costs_default.json"
RUN_ARTIFACTS = ("trace.json", "trace.csv", "report.json", "audit.jsonl")
COSTS_ARTIFACTS = ("costs.csv", "crossover.csv", "report.json", "table.txt")


class VerificationError(Exception):
    """An operation finished but its output failed a check."""


class OperationFailed(Exception):
    """An operation exited non-zero (the CLI's own failure path)."""


def _padded(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length()


def _sha1(*chunks: bytes) -> str:
    digest = hashlib.sha1()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# In-process workloads: one descent run followed by its oracle check.
# ---------------------------------------------------------------------------

def _descent_ops(inputs: dict) -> list:
    import numpy as np

    import blockgd as bg

    ops = []
    for index, inst in enumerate(inputs["instances"]):
        if inputs["workload"] == "generic_dense":
            obj = inst["objective"]
            objective = bg.ObjectiveFunction(
                obj["n"], obj["M"],
                tuple(bg.MonomialTerm(t["coeff"], tuple(t["exponents"])) for t in obj["terms"]),
            )
            cfg = bg.DescentConfig(steps=inst["T"], eps=inst["eps"], mode="generic")
            eta = bg.eta_generic(objective)
            x0 = np.asarray(inst["x0"], dtype=float)
            engine = "run_generic"
        else:
            func = bg.ScalarFunction.named(inst["name"], inst["scale"])
            objective = bg.SeparableObjective(func, inst["n"], inst["M"])
            eta = inst["eta"]
            cfg = bg.DescentConfig(steps=inst["T"], eps=inst["eps"], mode="separable", eta=eta)
            x0 = bg.initial_state_uniform(eta, inst["M"], inst["T"], inst["n"])
            engine = "run_separable"
        ops.append((f"instance{index}", _descent_op(bg, np, engine, objective, x0, cfg, eta)))
    return ops


def _descent_op(bg, np, engine, objective, x0, cfg, eta):
    bound = 16.0 * cfg.steps * cfg.eps
    dim = _padded(objective.n)

    def op(traced: bool) -> dict:
        # Looked up on the package at call time, so a traced cycle sees the wrappers.
        trace = getattr(bg, engine)(objective, x0, cfg)
        oracle = bg.classical_gd(objective, x0, eta, cfg.steps)
        iterates = trace.iterates()
        dev = float(np.max(np.abs(iterates - oracle.as_array())))
        if not dev <= bound:
            raise VerificationError(f"deviation {dev} exceeds 16*T*eps = {bound}")
        final = trace.final_iterate()
        expected = float(np.dot(final, final)) / dim
        if abs(trace.probability - expected) > 1e-10:
            raise VerificationError(
                f"post-selection probability {trace.probability} != ||x_T||^2/dim {expected}")
        last = trace.records[-1]
        counters = [(r.queries, r.depth_units, r.ancillas, r.ancilla_high_water, r.eps_budget)
                    for r in trace.records]
        return {
            "steps": cfg.steps,
            "fingerprint": _sha1(iterates.tobytes(), repr((counters, trace.probability)).encode()),
            "facts": {"": {"queries": last.queries, "depth_units": last.depth_units,
                           "eps_budget": last.eps_budget, "max_dev": dev}},
        }

    return op


# ---------------------------------------------------------------------------
# CLI workload: one `python -m blockgd` process per operation.
# ---------------------------------------------------------------------------

class CliRunner:
    """Writes the generated configs and runs CLI processes one at a time."""

    def __init__(self, inputs: dict, root: Path, work: Path):
        import blockgd.cli

        self.work = work
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.spans: list = []
        self.counters: dict = {}
        self.summary: dict = {}
        self.artifact_bytes = 0
        self.artifact_ops = 0
        configs = work / "configs"
        configs.mkdir(parents=True, exist_ok=True)
        names = []
        for entry in inputs["sweep"]:
            blockgd.cli.parse_experiment(entry["config"])  # schema check at set-up
            (configs / f"{entry['name']}.json").write_text(json.dumps(entry["config"]))
            names.append(f"{entry['name']}.json")
        (configs / "sweep.json").write_text(json.dumps({"configs": names}))
        blockgd.cli.parse_experiment(inputs["defect"])
        (configs / "defect.json").write_text(json.dumps(inputs["defect"]))
        self.sweep_names = [Path(n).stem for n in names]
        shipped = root / "configs"
        self.ops = [
            (name, self._run_op(name, ["run", "--config", str(shipped / name), "--audit"], None))
            for name in SHIPPED_RUNS
        ]
        self.ops.append(("compare_costs", self._costs_op(shipped / COSTS_PARAMS)))
        self.ops.append(("sweep", self._run_op(
            "sweep", ["run", "--sweep", str(configs / "sweep.json"), "--audit"],
            self.sweep_names)))

    def invoke(self, args: list, out: Path, traced: bool):
        """Run one CLI process; returns (completed process, wall seconds)."""
        if out.exists():
            shutil.rmtree(out)
        if traced:
            spans_file = self.work / "cli_spans.json.gz"
            cmd = [sys.executable, str(BENCH_DIR / "cli_trace.py"), str(spans_file)]
        else:
            cmd = [sys.executable, "-m", "blockgd"]
        cmd += args + ["--out", str(out)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if traced:
            self._collect(spans_file, seconds)
        return proc, seconds

    def _collect(self, spans_file: Path, seconds: float) -> None:
        with gzip.open(spans_file, "rt", encoding="utf-8") as fh:
            doc = json.load(fh)
        spans_file.unlink()
        self.spans.append(doc["spans"])
        spans.merge(self.summary, spans.summarize(doc["spans"]))
        for name, value in doc["counters"].items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        self.counters["cli.process_s"] = self.counters.get("cli.process_s", 0.0) + seconds

    def _artifacts(self, out: Path) -> str:
        """Digest of every file under out (names and bytes); tallies their size."""
        files = sorted(p for p in out.rglob("*") if p.is_file())
        digest = hashlib.sha1()
        size = 0
        for path in files:
            data = path.read_bytes()
            size += len(data)
            digest.update(str(path.relative_to(out)).encode() + b"\0" + data)
        self.artifact_bytes += size
        self.artifact_ops += 1
        return digest.hexdigest()

    @staticmethod
    def _check_run_dir(run_dir: Path) -> dict:
        missing = [a for a in RUN_ARTIFACTS if not (run_dir / a).is_file()]
        if missing:
            raise VerificationError(f"{run_dir.name}: missing artifacts {missing}")
        report = json.loads((run_dir / "report.json").read_text())
        if not report["deviation"]["within_bound"]:
            raise VerificationError(f"{run_dir.name}: deviation outside 16*T*eps")
        if not report["post_selection"]["matches"]:
            raise VerificationError(f"{run_dir.name}: post-selection probability mismatch")
        last = json.loads((run_dir / "trace.json").read_text())["iterations"][-1]
        return {"steps": report["config"]["T"], "queries": last["queries"],
                "depth_units": last["depth_units"], "eps_budget": last["eps_budget"],
                "max_dev": report["deviation"]["max"]}

    def _run_op(self, name: str, args: list, sweep_entries):
        out = self.work / "out" / name

        def op(traced: bool) -> dict:
            proc, seconds = self.invoke(args, out, traced)
            if proc.returncode != 0:
                raise OperationFailed(f"exit {proc.returncode}: {proc.stderr.strip()[:300]}")
            dirs = [out / e for e in sweep_entries] if sweep_entries else [out]
            facts = {d.name: self._check_run_dir(d) for d in dirs}
            fingerprint = self._artifacts(out)
            return {"seconds": seconds, "fingerprint": fingerprint,
                    "steps": sum(f.pop("steps") for f in facts.values()), "facts": facts}

        return op

    def _costs_op(self, params: Path):
        out = self.work / "out" / "compare_costs"

        def op(traced: bool) -> dict:
            proc, seconds = self.invoke(["compare-costs", "--params", str(params)], out, traced)
            if proc.returncode != 0:
                raise OperationFailed(f"exit {proc.returncode}: {proc.stderr.strip()[:300]}")
            missing = [a for a in COSTS_ARTIFACTS if not (out / a).is_file()]
            if missing:
                raise VerificationError(f"compare-costs: missing artifacts {missing}")
            if proc.stdout != (out / "table.txt").read_text():
                raise VerificationError("compare-costs: printed table differs from table.txt")
            fingerprint = self._artifacts(out)
            return {"seconds": seconds, "fingerprint": fingerprint, "steps": 0, "facts": {}}

        return op

    def probe_defect(self) -> int:
        """Exit code of the T >= 14, eps = 1e-6 config (1 while eps**(4T) underflows)."""
        proc, _ = self.invoke(["run", "--config", str(self.work / "configs" / "defect.json")],
                              self.work / "out" / "defect", traced=False)
        return proc.returncode


# ---------------------------------------------------------------------------
# Timing loop
# ---------------------------------------------------------------------------

def _blas_threads():
    """OpenBLAS thread count read from numpy's bundled library, if present."""
    import ctypes

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _provenance() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


REFERENCE_CODE = """
import numpy as np
rng = np.random.default_rng(0)
mat = rng.standard_normal(({dim}, {dim})) + 1j * rng.standard_normal(({dim}, {dim}))
for _ in range({svds}):
    np.linalg.norm(mat, 2)
total = 0
for i in range({loop}):
    total += i * i
"""


class Reference:
    """A fixed task that does not touch blockgd, timed between operations.

    It does the kind of work the workload's operations spend their time on
    (spectral norms of matrices of the workload's size, interpreter work),
    in the same context: this process for in-process workloads, a fresh
    interpreter for the CLI one.  Its median time over a run measures how
    fast the host ran that kind of work during the run; run.py scales the
    end-to-end timings by nominal / median, which reports them at a fixed host
    speed and cancels the slow drift of a shared host (up to a third over
    minutes on the 2-vCPU machine the benchmark was tuned on).  It runs about
    every `every_s` seconds, repeated to make up for longer gaps (at most
    MAX_REPS times), so each run gets many samples.  `nominal_s` is its
    typical time on that machine.
    """

    MAX_REPS = 10

    def __init__(self, dim: int, svds: int, loop: int, nominal_s: float, every_s: float):
        self.source = REFERENCE_CODE.format(dim=dim, svds=svds, loop=loop)
        self.code = compile(self.source, "<reference>", "exec")
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.samples: list[float] = []
        self.last = None

    def maybe_run(self) -> None:
        now = time.perf_counter()
        if self.last is not None and now - self.last < self.every_s:
            return
        reps = 1 if self.last is None else min(self.MAX_REPS, int((now - self.last) / self.every_s))
        for _ in range(reps):
            start = time.perf_counter()
            self.run_once()
            self.samples.append(time.perf_counter() - start)
        self.last = time.perf_counter()

    def run_once(self) -> None:
        exec(self.code, {})


class ProcessReference(Reference):
    """The reference task in a fresh interpreter, once per gap."""

    MAX_REPS = 1

    def run_once(self) -> None:
        subprocess.run([sys.executable, "-c", self.source], check=True, timeout=CLI_TIMEOUT_S)


def _reference(workload: str) -> Reference:
    if workload == "generic_dense":
        return Reference(dim=256, svds=1, loop=0, nominal_s=0.02, every_s=0.5)
    if workload == "separable_steps":
        return Reference(dim=32, svds=20, loop=20000, nominal_s=0.007, every_s=0.25)
    return ProcessReference(dim=32, svds=20, loop=20000, nominal_s=0.22, every_s=1.0)


class Loop:
    """Runs operations, times the verified ones and keeps every tally."""

    def __init__(self, ops: list, reference: Reference):
        self.ops = ops
        self.reference = reference
        self.refs: dict[str, str] = {}
        self.facts: dict[str, dict] = {}
        self.samples = {False: [], True: []}
        self.steps = 0
        self.attempted = self.failed = self.incorrect = self.verified = 0
        self.errors: list[str] = []

    def run(self, index: int, traced: bool, timed: bool = True) -> None:
        key, op = self.ops[index % len(self.ops)]
        if timed:
            self.reference.maybe_run()
            self.attempted += 1
        start = time.perf_counter()
        try:
            result = op(traced)
            if self.refs.setdefault(key, result["fingerprint"]) != result["fingerprint"]:
                raise VerificationError(f"{key}: output differs from an earlier repeat")
        except VerificationError as exc:
            self._fail(key, exc, timed, incorrect=True)
            return
        except Exception as exc:  # any crash of the program counts as a failed operation
            self._fail(key, exc, timed, incorrect=False)
            return
        seconds = result.get("seconds", time.perf_counter() - start)
        self.verified += 1
        for name, facts in result["facts"].items():
            self.facts.setdefault(f"{key}/{name}", facts)
        if timed:
            self.samples[traced].append(seconds)
            if not traced:
                self.steps += result["steps"]

    def _fail(self, key: str, exc: Exception, timed: bool, incorrect: bool) -> None:
        self.failed += timed
        self.incorrect += incorrect
        if len(self.errors) < 5:
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            traceback.print_exception(exc, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("inputs")
    parser.add_argument("result")
    parser.add_argument("--root", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import blockgd  # noqa: F401  (set-up includes the package import)

    inputs = json.loads(Path(args.inputs).read_text())
    work = Path(args.inputs).parent
    cli = None
    if inputs["workload"] == "cli_audit":
        cli = CliRunner(inputs, Path(args.root), work)
        ops = cli.ops
    else:
        ops = _descent_ops(inputs)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    loop = Loop(ops, _reference(inputs["workload"]))
    loop.run(0, traced=False, timed=False)
    tracer = spans.Tracer()
    wall = 0.0
    start = time.perf_counter()
    # Whole cycles over the operations only, so every run measures the same
    # mix of work and per-operation counts are exact for a seed.
    if not args.trace:
        while time.perf_counter() - start < args.seconds:
            for index in range(len(ops)):
                loop.run(index, traced=False)
        wall = time.perf_counter() - start
    else:
        traced_ops = 0
        while True:
            for traced in (False, True):
                saved = spans.install(tracer) if traced and cli is None else None
                try:
                    for index in range(len(ops)):
                        loop.run(index, traced=traced)
                finally:
                    if saved is not None:
                        spans.uninstall(saved)
                traced_ops += len(ops) if traced else 0
            if time.perf_counter() - start >= args.seconds:
                break

    who = resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
    result = {
        "provenance": _provenance(),
        "samples": loop.samples[False],
        "traced_samples": loop.samples[True],
        "attempted": loop.attempted,
        "failed": loop.failed,
        "incorrect": loop.incorrect,
        "verified": loop.verified,
        "steps": loop.steps,
        "wall": wall,
        "reference": loop.reference.samples,
        "reference_nominal_s": loop.reference.nominal_s,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0,
        "facts": loop.facts,
        "errors": loop.errors,
    }
    if args.trace:
        out_dir = BENCH_DIR / "_out"
        out_dir.mkdir(exist_ok=True)
        if cli is not None:
            layers, counters, span_lists = cli.summary, cli.counters, cli.spans
            counters["cli.artifact_bytes"] = cli.artifact_bytes / max(cli.artifact_ops, 1)
            result["defect_exit"] = cli.probe_defect()
        else:
            layers, counters = spans.summarize(tracer.spans), dict(tracer.counters)
            span_lists = [tracer.spans]
        spans_out = out_dir / f"spans-{inputs['workload']}-s{inputs['seed']}.json.gz"
        with gzip.open(spans_out, "wt", encoding="utf-8") as fh:
            json.dump({"processes": span_lists, "counters": counters}, fh)
        result.update(layers=layers, counters=counters, traced_ops=traced_ops)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
