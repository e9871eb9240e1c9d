"""Batch front door: run experiments, compare cost envelopes, validate configs.

Subcommands
    run              execute one config (or a sweep of configs) and write
                     trace/report artifacts
    compare-costs    render the per-regime cost report as CSV and a text table
    validate-config  parse the config as run does and print the resolved summary

This is the one module that reads and writes documents (the JSON schemas,
their limits and the artifact formats); the library modules take and return
Python values.  A run request is checked once, by parse_experiment, into the
engine's inputs: the objective, the start vector and the DescentConfig.
Every JSON field is checked by the checks below (an object's keys, an
integer in a range, a finite number in a range, an array's length, one of
fixed values), against limits stated once below.  The step size comes from
descent.step_size, which builds a separable run's derivative polynomial;
check_bounded then requires finite bounds on f over the box (else a run
could write Infinity), and the parse ends with the start vector, built by
descent.initial_state_uniform for a uniform start and checked by
polyfunc.check_point and blockcalc.check_amplitudes.  These are the rules
the engines apply before their first step, so validate-config, which is
parse_experiment and its print, exits 2, 3, 6 or 7 exactly where run would
before any pipeline work (and before run creates its output directory),
and 0 otherwise.

With --audit (or "audit": true), run wraps the engine call, and only it, in
blockcalc.recording, so audit.jsonl holds one record per calculus primitive
of that run.

Flags override config-file fields (flags > file).  Artifacts are
deterministic: sorted JSON keys, shortest round-trip float formatting, no
timestamps or absolute paths, so reruns of the same config are
byte-identical.  trace.json and report.json are exactly
json.dumps(doc, sort_keys=True, indent=2) + "\n".  trace.json and trace.csv
are streamed, TRACE_BLOCK trace entries at a time, so a run at the input
limits needs little more memory than its columns: _number_texts formats a
block's distinct numbers once each, and _trace_json fills one template per
iterate between the run's fields as json writes them.

Exit codes: 0 on success, 1 for an unexpected internal error (no input is
meant to reach it), and otherwise the ``exit_code`` of the BlockgdError
raised, listed once in blockgd.errors: 2 for every schema, input-limit and
step-size error, an unwritable --out and a run that runs out of memory, 3
to 7 for the other families.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .blockcalc import COUNTERS, AuditLog, check_amplitudes, next_power_of_two, recording
from .chebyshev import (
    DEGREE_CAP, GRID_POINTS, MAX_EPS, NAMED_KINDS, ScalarFunction, SeparableObjective,
    chebyshev_nodes,
)
from .descent import (
    GENERIC,
    REGIMES,
    SEPARABLE,
    CostParams,
    DescentConfig,
    DescentTrace,
    envelope_formulas,
    initial_state_uniform,
    resource_predict,
    run_generic,
    run_separable,
    step_size,
)
from .errors import BlockgdError, SchemaError
from .oracle import classical_gd
from .polyfunc import HALF, MonomialTerm, ObjectiveFunction, check_point

EXIT_OK = 0
EXIT_INTERNAL = 1
# Largest n a JSON input may ask for: one complex vector of 2**20 entries is
# 16 MiB, while a larger n would fail (or exhaust memory) before any output.
MAX_N = 2**20
# Largest (T + 1) * n of a run: its traces keep (T + 1) x n floats for the
# iterates, the gradients and the oracle's iterates, 128 MiB each at this cap;
# a larger run would fail (or exhaust memory) before any output.
MAX_TRACE_ENTRIES = 2**24
# Largest total degree of a generic term: assembling a partial derivative
# takes one product per power, so the cap bounds a step's primitive calls.
# compare-costs shares it as its largest d.
MAX_TERM_DEGREE = 64
# Range of each compare-costs integer, by JSON key.  The generic probe makes
# about K*v*(v + d) primitive calls on K length-n exponent tuples, the
# crossover table has T rows and the envelopes raise s and p_tensor to powers
# up to 5*T, so these caps bound every accepted report (about 20 s and
# 0.4 GiB at the largest n, K, v and d); d shares the generic term-degree
# cap, deg_P the separable engine's degree cap and n the objectives' size cap.
COST_INT_RANGES = {
    "n": (1, MAX_N), "K": (1, 16), "d": (1, MAX_TERM_DEGREE), "v": (1, 16), "T": (1, 1000),
    "deg_P": (0, DEGREE_CAP), "s": (1, MAX_N), "S_rows": (1, MAX_N), "p_tensor": (1, 16),
}
# Range (low, high, high_open) of eps per engine: the separable engine
# approximates F' to eps, so its eps is at most MAX_EPS.  compare-costs
# probes both engines and takes the separable range.
EPS_RANGES = {GENERIC: (0.0, 1.0, True), SEPARABLE: (0.0, MAX_EPS, False)}
# CostParams field of each compare-costs JSON key.
COST_FIELDS = {
    "n": "n", "K": "terms", "d": "degree", "v": "vars_per_term", "T": "steps",
    "eps": "eps", "deg_P": "poly_degree", "s": "sparsity", "S_rows": "sparse_rows",
    "p_tensor": "tensor_order",
}


# The schema checks, one per kind of JSON value.  Each returns the checked
# value or raises SchemaError with the key path of the offending entry, so a
# loader reads as one check per field.
def check_keys(doc, path: str, required, optional=()) -> dict:
    """doc as a JSON object holding every required key and no other than optional."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected object, got {type(doc).__name__}")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{path}: missing required key '{key}'")
    return doc


def check_int(value, path: str, low: int, high: int) -> int:
    """value as a JSON integer in [low, high]; bools and integral floats are not integers."""
    if isinstance(value, int) and not isinstance(value, bool) and low <= value <= high:
        return value
    raise SchemaError(f"{path}: expected integer in [{low}, {high}], got {value!r}")


def check_number(value, path: str, low: float = -math.inf, high: float = math.inf,
                 high_open: bool = True) -> float:
    """value as a float: a finite JSON number with low < value < high.

    With high_open=False the range is (low, high] instead.  json accepts NaN,
    Infinity and overflowing literals such as 1e400; none of them is a valid
    number anywhere in the schemas, and neither is a bool.
    """
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int too large for a float
            pass
    if math.isfinite(number) and low < number and (
        number < high or (number == high and not high_open)
    ):
        return number
    span = "" if (low, high) == (-math.inf, math.inf) else (
        f" in ({low:g}, {high:g}{')' if high_open else ']'}"
    )
    raise SchemaError(f"{path}: expected finite number{span}, got {value!r}")


def check_array(value, path: str, low: int, high: float = math.inf) -> list:
    """value as a JSON array of low to high entries."""
    if isinstance(value, list) and low <= len(value) <= high:
        return value
    span = (f"at least {low}" if high == math.inf else str(low) if high == low
            else f"{low} to {high}")
    got = f"length {len(value)}" if isinstance(value, list) else type(value).__name__
    raise SchemaError(f"{path}: expected array of length {span}, got {got}")


def check_choice(value, path: str, choices):
    """value as one of choices, compared by type and value (so 1 is not True)."""
    if any(type(value) is type(c) and value == c for c in choices):
        return value
    raise SchemaError(f"{path}: expected one of {list(choices)}, got {value!r}")


def _check_size_and_bound(doc: dict) -> tuple[int, float]:
    """An objective object's n in [1, MAX_N] and gradient bound M > 0."""
    return check_int(doc.get("n"), "n", 1, MAX_N), check_number(doc.get("M"), "M", 0.0)


def load_objective(doc) -> ObjectiveFunction:
    """Build an ObjectiveFunction from a parsed JSON object.

    Schema: {"n": int in [1, MAX_N], "M": number > 0,
             "terms": [{"coeff": number, "exponents": [int >= 0] * n}, ...]};
    numbers must be finite and each term's total degree is at most
    MAX_TERM_DEGREE.  Schema errors carry the key path of the offending entry.
    """
    check_keys(doc, "$", ("n", "M", "terms"))
    n, m_bound = _check_size_and_bound(doc)
    parsed = []
    for i, entry in enumerate(check_array(doc["terms"], "terms", 1)):
        path = f"terms[{i}]"
        check_keys(entry, path, ("coeff", "exponents"))
        coeff = check_number(entry["coeff"], f"{path}.coeff")
        exps = check_array(entry["exponents"], f"{path}.exponents", n, n)
        for j, e in enumerate(exps):
            check_int(e, f"{path}.exponents[{j}]", 0, MAX_TERM_DEGREE)
        check_int(sum(exps), f"{path} total degree", 0, MAX_TERM_DEGREE)
        parsed.append(MonomialTerm(coeff, tuple(exps)))
    return ObjectiveFunction(n, m_bound, tuple(parsed))


def load_scalar_function(doc) -> ScalarFunction:
    """Parse {"kind": "named", "name": ..., "scale": ...} or {"kind": "poly", "coeffs": [...]}.

    A poly has at most DEGREE_CAP + 2 coefficients, so that its derivative
    stays within the degree cap.
    """
    check_keys(doc, "$", ("kind",), ("coeffs", "name", "scale"))
    if check_choice(doc["kind"], "kind", ("poly", "named")) == "poly":
        check_keys(doc, "$", ("kind", "coeffs"))
        coeffs = check_array(doc["coeffs"], "coeffs", 1, DEGREE_CAP + 2)
        return ScalarFunction.polynomial(
            [check_number(c, f"coeffs[{i}]") for i, c in enumerate(coeffs)]
        )
    check_keys(doc, "$", ("kind", "name"), ("scale",))
    name = check_choice(doc["name"], "name", NAMED_KINDS)
    return ScalarFunction.named(name, check_number(doc.get("scale", 1.0), "scale"))


def load_cost_params(doc) -> CostParams:
    """Build CostParams from a compare-costs document, each key optional (COST_FIELDS)."""
    check_keys(doc, "$", (), COST_FIELDS)
    return CostParams(**{
        COST_FIELDS[key]: check_number(value, key, *EPS_RANGES[SEPARABLE]) if key == "eps"
        else check_int(value, key, *COST_INT_RANGES[key])
        for key, value in doc.items()
    })


def check_bounded(objective) -> None:
    """SchemaError unless the objective's values and gradient are bounded finitely on the box.

    A generic objective's certified_bounds must both be finite (O(K*v)); for
    a separable one, n * max |F| over the GRID_POINTS Chebyshev nodes of
    [-1/2, 1/2] and its two ends (the box is closed, and the outermost node
    lies inside it) must be, evaluated without numpy warnings (its F' is
    approx_derivative's to check).  Otherwise a run could write Infinity
    into trace.json, which strict JSON has no token for.
    """
    if isinstance(objective, SeparableObjective):
        with np.errstate(all="ignore"):
            values = objective.func.value(np.append(chebyshev_nodes(GRID_POINTS), (-HALF, HALF)))
            bound = objective.n * float(np.max(np.abs(values)))
        if not math.isfinite(bound):
            raise SchemaError(f"objective: n * max |F| on [-1/2, 1/2] = {bound} must be finite")
        return
    f_bound, grad_bound = objective.certified_bounds()
    if not (math.isfinite(f_bound) and math.isfinite(grad_bound)):
        raise SchemaError(f"objective: the certified bounds |f| <= {f_bound} and "
                          f"||grad f||_2 <= {grad_bound} over the box must be finite")


@dataclass(frozen=True, eq=False)  # x0 is an array, so a field-wise == would raise
class ExperimentConfig:
    """One checked run request: the engine's inputs and the artifact options."""

    objective: ObjectiveFunction | SeparableObjective
    x0: np.ndarray  # the start vector: polyfunc.check_point, blockcalc.check_amplitudes
    run: DescentConfig  # its eta is the step size the run uses (descent.step_size)
    audit: bool
    out: str | Path | None
    fmt: str


def parse_experiment(doc: dict) -> ExperimentConfig:
    """Check a parsed JSON run request and resolve it into an ExperimentConfig.

    Every check run makes before its first step, in this order: the fields,
    the step size (exit 2, or 6 for an F' without a derivative polynomial),
    the objective's finite bounds on the box (exit 2, check_bounded), then
    the start vector (exit 3 for an infeasible uniform schedule, 7 for an x0
    outside the box or of 2-norm above 1).
    """
    check_keys(doc, "$", ("mode", "objective", "x0", "T", "eps"),
               ("eta", "audit", "out", "format"))
    mode = check_choice(doc["mode"], "mode", (GENERIC, SEPARABLE))
    obj_doc = doc["objective"]
    # The key that tells the monomial schema from the scalar-function one.
    marker = "terms" if mode == GENERIC else "kind"
    if not isinstance(obj_doc, dict) or marker not in obj_doc:
        raise SchemaError(f"objective: {mode} mode requires an object with key '{marker}'")
    try:
        if mode == GENERIC:
            objective = load_objective(obj_doc)
        else:
            n, m_bound = _check_size_and_bound(obj_doc)
            func = load_scalar_function(
                {k: v for k, v in obj_doc.items() if k not in ("n", "M")}
            )
            objective = SeparableObjective(func=func, n=n, grad_bound=m_bound)
    except SchemaError as exc:
        raise SchemaError(f"objective: {exc}") from None
    x0 = doc["x0"]
    uniform = isinstance(x0, dict)
    if uniform:
        check_keys(x0, "x0", ("uniform_q",))
        check_choice(x0["uniform_q"], "x0.uniform_q", ("auto",))
    else:
        x0 = [check_number(v, f"x0[{i}]") for i, v in
              enumerate(check_array(x0, "x0", objective.n, objective.n))]
    steps = check_int(doc["T"], "T", 0, MAX_TRACE_ENTRIES // objective.n - 1)
    eps = check_number(doc["eps"], "eps", *EPS_RANGES[mode])
    eta = doc.get("eta")
    eta = None if eta is None else check_number(eta, "eta")
    audit = check_choice(doc.get("audit", False), "audit", (False, True))
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise SchemaError(f"out: expected string, got {out!r}")
    fmt = check_choice(doc.get("format", "both"), "format", ("json", "csv", "both"))
    eta = step_size(mode, objective, eta, eps)
    check_bounded(objective)
    if uniform:
        x0 = initial_state_uniform(eta, objective.grad_bound, steps, objective.n)
    x0 = check_point(x0, objective.n)
    check_amplitudes(x0)
    return ExperimentConfig(
        objective=objective, x0=x0,
        run=DescentConfig(steps=steps, eps=eps, mode=mode, eta=eta),
        audit=audit, out=out, fmt=fmt,
    )


# Trace entries (iterate and gradient coordinates) the trace writers format
# at once: a block of whole rows, and one row when n alone exceeds it.
TRACE_BLOCK = 2**16
# One trace.json iteration entry as json.dumps(doc, sort_keys=True, indent=2)
# writes it inside "iterations", each value a %-field: x and gradient take the
# joined texts of their entries.
_ITERATION = "    " + json.dumps(
    {key: [f"%({key})s"] if key in ("x", "gradient") else f"%({key})s"
     for key in ("t", "x", "f", "gradient", "eps_budget", *COUNTERS)},
    sort_keys=True, indent=2,
).replace('"%(', "%(").replace(')s"', ")s").replace("\n", "\n    ")


def _number_texts(*columns) -> list[list]:
    """Each column (an array or a list) of finite floats as nested lists of their reprs.

    A finite float's repr is what json writes for it.  Each distinct float is
    formatted once, keyed by its bits so that -0.0 stays apart from 0.0.
    """
    values = np.concatenate([np.ravel(c) for c in columns], dtype=float)
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, keys.view(float).tolist())), dtype=object)
    # The shape of inverse has changed across numpy 2.x releases.
    parts = np.split(texts[inverse.reshape(-1)], np.cumsum([np.size(c) for c in columns])[:-1])
    return [part.reshape(np.shape(c)).tolist() for part, c in zip(parts, columns)]


def _row_blocks(trace: DescentTrace, *columns):
    """(slice of rows, _number_texts of the columns' rows) per TRACE_BLOCK entries."""
    size = max(1, TRACE_BLOCK // trace.n)
    for start in range(0, trace.steps + 1, size):
        rows = slice(start, start + size)
        yield rows, _number_texts(*(c[rows] for c in columns))


def _trace_json(trace: DescentTrace):
    """The pieces of trace.json, json.dumps(doc, sort_keys=True, indent=2) + "\n".

    json writes the run's fields; each iterate's entry fills _ITERATION from its block's texts.
    """
    fields = {
        "mode": trace.mode, "n": trace.n, "eta": trace.eta, "eps": trace.eps,
        "T": trace.steps, "grad_bound": trace.grad_bound, "probability": trace.probability,
        "schedule_bound_ok": trace.schedule_bound_ok, "norm_safety_ok": trace.norm_safety_ok,
        "iterations": None,
    }
    if trace.poly_degree is not None:
        fields |= {"poly_degree": trace.poly_degree, "poly_sup_error": trace.poly_sup_error}
    head, tail = json.dumps(fields, sort_keys=True, indent=2).split('"iterations": null')
    yield head + '"iterations": [\n'
    columns = (trace.rows, trace.gradients, trace.f_values, trace.eps_budgets)
    for rows, (xs, gs, fs, es) in _row_blocks(trace, *columns):
        entries = (
            _ITERATION % {"t": t, "x": ",\n        ".join(x), "f": f,
                          "gradient": ",\n        ".join(g), "eps_budget": e,
                          **dict(zip(COUNTERS, c))}
            for t, (x, g, f, e, c) in enumerate(zip(xs, gs, fs, es, trace.counters[rows]),
                                                rows.start)
        )
        yield ("" if rows.start == 0 else ",\n") + ",\n".join(entries)
    yield "\n  ]" + tail + "\n"


def _trace_csv(trace: DescentTrace):
    """The pieces of trace.csv: a header t,x0,...,x{n-1} and each iterate's reprs."""
    yield "t," + ",".join(f"x{i}" for i in range(trace.n)) + "\n"
    for rows, (xs,) in _row_blocks(trace, trace.rows):
        yield "".join(f"{t}," + ",".join(x) + "\n" for t, x in enumerate(xs, rows.start))


def _build_report(objective: ObjectiveFunction | SeparableObjective, trace: DescentTrace,
                  oracle_trace) -> dict:
    sim = trace.rows
    deviations = np.abs(sim - oracle_trace.rows).max(axis=1).tolist()
    max_dev = max(deviations)
    bound = 16.0 * trace.steps * trace.eps
    final = sim[-1]
    # Post-selection happens in the padded dimension; for power-of-two n the
    # reported and ||x_T||^2 / n probabilities coincide.
    expected_prob = float(np.dot(final, final)) / next_power_of_two(trace.n)
    if trace.mode == GENERIC:
        terms = objective.terms
        vars_per_term = max((len(t.support) for t in terms), default=0)
        # An all-constant objective has no iteration cost to bound.
        shape = dict(
            terms=len(terms), degree=max((t.degree for t in terms), default=0),
            vars_per_term=vars_per_term,
        ) if vars_per_term else None
    else:
        shape = dict(poly_degree=trace.poly_degree)
    envelopes = {}
    if shape:
        params = CostParams(n=trace.n, steps=max(trace.steps, 1), eps=trace.eps, **shape)
        full = envelope_formulas(params)
        envelopes = {k: full[k] for k in
                     (f"{trace.mode}_per_iteration", f"{trace.mode}_total", "classical_total")}
    return {
        "deviation": {
            "per_iteration": deviations,
            "max": max_dev,
            "bound_16_T_eps": bound,
            "within_bound": bool(max_dev <= bound),
        },
        "norm_safety": {
            "max_abs_iterate": float(np.abs(sim).max()),
            "ok": trace.norm_safety_ok,
            "schedule_bound_ok": trace.schedule_bound_ok,
        },
        "post_selection": {
            "probability": trace.probability,
            "expected_from_final_iterate": expected_prob,
            "matches": bool(abs(trace.probability - expected_prob) <= 1e-10),
        },
        "resources": {
            "final": dict(zip(COUNTERS, trace.counters[-1])),
            "per_iteration_deltas": trace.per_iteration_deltas(),
            "envelopes": envelopes,
        },
        "config": {
            "mode": trace.mode,
            "n": trace.n,
            "T": trace.steps,
            "eps": trace.eps,
            "eta": trace.eta,
            "grad_bound": trace.grad_bound,
        },
    }


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one config and write its artifacts under cfg.out (default out/)."""
    audit = AuditLog() if cfg.audit else None
    engine = run_generic if cfg.run.mode == GENERIC else run_separable
    try:
        with recording(audit):
            trace = engine(cfg.objective, cfg.x0, cfg.run)
        oracle_trace = classical_gd(cfg.objective, cfg.x0, trace.eta, trace.steps)
        report = _build_report(cfg.objective, trace, oracle_trace)
        artifacts = {}
        if cfg.fmt in ("json", "both"):
            artifacts["trace.json"] = _trace_json(trace)
        if cfg.fmt in ("csv", "both"):
            artifacts["trace.csv"] = _trace_csv(trace)
        artifacts["report.json"] = [json.dumps(report, sort_keys=True, indent=2) + "\n"]
        if audit is not None:
            artifacts["audit.jsonl"] = [audit.to_jsonl()]
        _write_artifacts(Path(cfg.out or "out"), artifacts)
    except MemoryError:  # in the engine or a writer: exit 2, not 1
        entries = cfg.objective.n * (cfg.run.steps + 1)
        raise SchemaError(f"out of memory: a run of n*(T+1) = {entries} trace entries "
                          "needs more memory than this process could allocate") from None
    return EXIT_OK


def _write_artifacts(out_dir: Path, artifacts: dict) -> None:
    """Create out_dir and write each {name: text pieces} into it; failing to is a SchemaError.

    A file whose write stops part-way is unlinked before the error propagates.
    """
    path = out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, pieces in artifacts.items():
            path = out_dir / name
            fh = path.open("w", encoding="utf-8")
            try:
                with fh:
                    fh.writelines(pieces)
            except BaseException:
                path.unlink()
                raise
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def _costs_rows(report: dict) -> list[dict]:
    env, measured = report["envelopes"], report["implemented_per_iteration"]
    return [{"regime": r, "envelope_per_iteration": env.get(f"{r}_per_iteration"),
             "envelope_total": env[f"{r}_total"],
             "measured_depth_per_iteration": measured[r]["depth_units"] if r in measured else None}
            for r in REGIMES]


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (int, str)):
        return str(value)
    return f"{value:.6g}"


def _costs_table_text(rows: list[dict]) -> str:
    headers = ["regime", "envelope/iter", "envelope total", "measured depth/iter"]
    cells = [[_format_cell(value) for value in row.values()] for row in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for c in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
    return "\n".join(lines) + "\n"


def _csv_text(rows: list[dict]) -> str:
    """rows as CSV under a header of their keys: None is empty, a float its repr."""
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(
            "" if v is None else repr(v) if isinstance(v, float) else str(v)
            for v in row.values()
        ))
    return "\n".join(lines) + "\n"


def compare_costs(params: CostParams, out_dir: Path) -> str:
    """Write costs.csv, crossover.csv, report.json and table.txt; return the text table."""
    report = resource_predict(params)
    report["params"] = {key: getattr(params, field) for key, field in COST_FIELDS.items()}
    rows = _costs_rows(report)
    table = _costs_table_text(rows)
    _write_artifacts(out_dir, {
        "costs.csv": [_csv_text(rows)],
        "crossover.csv": [_csv_text(report["crossover"])],
        "report.json": [json.dumps(report, sort_keys=True, indent=2) + "\n"],
        "table.txt": [table],
    })
    return table


def _load_json_file(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path.name}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path.name}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _run_one_config(config_path: Path, out: str | Path | None, fmt: str | None,
                    audit: bool) -> int:
    """Run one config file; the flag values out, fmt and audit override its fields."""
    cfg = parse_experiment(_load_json_file(config_path))
    return run_experiment(replace(cfg, out=out or cfg.out, fmt=fmt or cfg.fmt,
                                  audit=audit or cfg.audit))


def _cmd_run(args) -> int:
    if args.sweep:
        if args.config:
            raise SchemaError("run takes --config or --sweep, not both")
        sweep_path = Path(args.sweep)
        doc = _load_json_file(sweep_path)
        if not (isinstance(doc, dict) and isinstance(doc.get("configs"), list)
                and all(isinstance(p, str) for p in doc["configs"])):
            raise SchemaError('sweep file must be {"configs": [paths, ...]}')
        paths = [sweep_path.parent / p for p in doc["configs"]]
        base = Path(args.out) if args.out else Path("out")
        firsts = {}
        for path in paths:
            if firsts.setdefault(path.stem, path) is not path:
                raise SchemaError(f"sweep entries share the file stem {path.stem!r}, "
                                  f"so their artifacts would mix in {base / path.stem}")

        def run_entry(path: Path) -> int:
            try:
                return _run_one_config(path, base / path.stem, args.format, args.audit)
            except BlockgdError as exc:
                print(f"{path.name}: {exc}", file=sys.stderr)
                return exc.exit_code

        codes = [run_entry(path) for path in paths]
        return next((c for c in codes if c != 0), EXIT_OK)
    if not args.config:
        raise SchemaError("run requires --config PATH (or --sweep PATH)")
    return _run_one_config(Path(args.config), args.out, args.format, args.audit)


def _cmd_compare_costs(args) -> int:
    params = load_cost_params(_load_json_file(Path(args.params))) if args.params else CostParams()
    table = compare_costs(params, Path(args.out) if args.out else Path("out"))
    print(table, end="")
    return EXIT_OK


def _cmd_validate_config(args) -> int:
    cfg = parse_experiment(_load_json_file(Path(args.config)))
    objective, run = cfg.objective, cfg.run
    size = f"K={len(objective.terms)}" if run.mode == GENERIC else f"kind={objective.func.kind}"
    print(
        f"ok: mode={run.mode} n={objective.n} {size} T={run.steps} "
        f"eps={run.eps} eta={run.eta} M={objective.grad_bound}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    import argparse  # deferred: some in-process importers (bench's set-up) never parse

    parser = argparse.ArgumentParser(
        prog="blockgd",
        description="Batch runner for encoding-driven gradient descent experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config or a sweep")
    run_p.add_argument("--config", help="experiment config JSON path")
    run_p.add_argument("--sweep", help='JSON file {"configs": [paths...]}, run in order')
    run_p.add_argument("--out", help="output directory (flag overrides config)")
    run_p.add_argument("--audit", action="store_true",
                       help="also write the per-operation audit log (JSON lines)")
    run_p.add_argument("--format", choices=("json", "csv", "both"),
                       help="trace formats to emit (default from config, else both)")
    run_p.set_defaults(func=_cmd_run)

    costs_p = sub.add_parser("compare-costs", help="emit per-regime cost tables")
    costs_p.add_argument("--params", help="JSON file with cost parameters")
    costs_p.add_argument("--out", help="output directory (default out/)")
    costs_p.set_defaults(func=_cmd_compare_costs)

    val_p = sub.add_parser("validate-config", help="schema-check a config file")
    val_p.add_argument("--config", required=True, help="experiment config JSON path")
    val_p.set_defaults(func=_cmd_validate_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlockgdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
