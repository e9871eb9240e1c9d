"""Batch front door: run experiments, compare cost envelopes, validate configs.

Subcommands
    run              execute one config (or a sweep of configs) and write
                     trace/report artifacts
    compare-costs    render the per-regime cost report as CSV and a text table
    validate-config  parse the config as run does and print the resolved summary

A run request is checked once, by parse_experiment, into the engine's
inputs: the objective, the start vector and the DescentConfig.  Every JSON
field is checked by the polyfunc checks (an object's keys, an integer in a
range, a finite number in a range, an array's length, one of fixed values),
against limits stated once: polyfunc.MAX_N, MAX_TERM_DEGREE and
MAX_TRACE_ENTRIES (which caps T at MAX_TRACE_ENTRIES // n - 1),
chebyshev.DEGREE_CAP, descent.EPS_RANGES and descent.COST_INT_RANGES.  The
step size comes from descent.step_size; the parse ends with the start
vector, built by descent.initial_state_uniform for a uniform start and
checked by polyfunc.check_point, the rules the engines apply too.
validate-config is parse_experiment and its print, so it exits 2, 3 or 7
exactly where run would before any pipeline work (and before run creates its
output directory), and 0 otherwise.  Only run reaches the two checks that
need the separable derivative polynomial: an eta above 1/divisor (exit 2)
and the degree cap (exit 6).

With --audit (or "audit": true), run wraps the engine call, and only it, in
blockcalc.recording, so audit.jsonl holds one record per calculus primitive
of that run.

Flags override config-file fields (flags > file).  Artifacts are
deterministic: sorted JSON keys, shortest round-trip float formatting, no
timestamps or absolute paths, so reruns of the same config are
byte-identical.  trace.json and report.json are exactly
json.dumps(doc, sort_keys=True, indent=2); _json_text writes that text with
json's C encoder for every container of scalars (the long number lists) and
joins only the containers above them in Python, and trace.csv joins the
reprs of each row.

Exit codes: 0 on success, 1 for an unexpected internal error (no input is
meant to reach it), and otherwise the ``exit_code`` of the BlockgdError
raised, listed once in blockgd.errors: 2 for every schema, input-limit and
step-size error and an unwritable --out, 3 to 7 for the other families.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blockcalc import AuditLog, next_power_of_two, recording
from .chebyshev import SeparableObjective, load_scalar_function
from .descent import (
    COUNTERS,
    EPS_RANGES,
    GENERIC,
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
from .polyfunc import (
    MAX_TRACE_ENTRIES,
    ObjectiveFunction,
    check_array,
    check_choice,
    check_int,
    check_keys,
    check_number,
    check_point,
    check_size_and_bound,
    load_objective,
)

EXIT_OK = 0
EXIT_INTERNAL = 1


@dataclass(frozen=True, eq=False)  # x0 is an array, so a field-wise == would raise
class ExperimentConfig:
    """One checked run request: the engine's inputs and the artifact options."""

    objective: ObjectiveFunction | SeparableObjective
    x0: np.ndarray  # the start vector, checked by polyfunc.check_point
    run: DescentConfig  # its eta is the step size the run uses (descent.step_size)
    audit: bool
    out: str | None
    fmt: str


def parse_experiment(doc: dict) -> ExperimentConfig:
    """Check a parsed JSON run request and resolve it into an ExperimentConfig.

    The start vector is resolved last, so every schema error comes before an
    infeasible uniform schedule (exit 3) or an x0 outside the box (exit 7).
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
            n, m_bound = check_size_and_bound(obj_doc)
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
    eta = step_size(mode, objective, None if eta is None else check_number(eta, "eta"))
    audit = check_choice(doc.get("audit", False), "audit", (False, True))
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise SchemaError(f"out: expected string, got {out!r}")
    fmt = check_choice(doc.get("format", "both"), "format", ("json", "csv", "both"))
    if uniform:
        x0 = initial_state_uniform(eta, objective.grad_bound, steps, objective.n)
    return ExperimentConfig(
        objective=objective, x0=check_point(x0, objective.n),
        run=DescentConfig(steps=steps, eps=eps, mode=mode, eta=eta),
        audit=audit, out=out, fmt=fmt,
    )


def _json_text(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) + "\n", byte for byte."""
    return _indented(payload, "\n") + "\n"


def _indented(value, newline: str) -> str:
    """value as json's indent=2 writes it at the depth newline indents to.

    json drops to its pure-Python encoder whenever indent is set, so a
    container whose entries are all scalars (a trace row, a counter block) is
    handed to the C encoder with the item separator the indented form puts
    between them; only the containers above them are joined here.  Keys are
    strings, as in every artifact.
    """
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return json.dumps(value)
    if not value:
        return "{}" if is_dict else "[]"
    inner = newline + "  "
    # One pass in C over the entries' types, not an isinstance call per entry.
    types = set(map(type, value.values() if is_dict else value))
    if any(issubclass(t, (dict, list, tuple)) for t in types):
        if is_dict:
            parts = [json.dumps(k) + ": " + _indented(v, inner) for k, v in sorted(value.items())]
        else:
            parts = [_indented(v, inner) for v in value]
        body = ("," + inner).join(parts)
    else:
        body = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))[1:-1]
    return ("{" if is_dict else "[") + inner + body + newline + ("}" if is_dict else "]")


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


def run_experiment(cfg: ExperimentConfig, out_dir: Path, fmt: str, audit_on: bool) -> int:
    """Execute one config and write its artifacts under out_dir."""
    audit = AuditLog() if audit_on else None
    engine = run_generic if cfg.run.mode == GENERIC else run_separable
    with recording(audit):
        trace = engine(cfg.objective, cfg.x0, cfg.run)
    oracle_trace = classical_gd(cfg.objective, cfg.x0, trace.eta, trace.steps)
    report = _build_report(cfg.objective, trace, oracle_trace)
    texts = {}
    if fmt in ("json", "both"):
        texts["trace.json"] = _json_text(trace.to_json_dict())
    if fmt in ("csv", "both"):
        texts["trace.csv"] = trace.to_csv_text()
    texts["report.json"] = _json_text(report)
    if audit is not None:
        texts["audit.jsonl"] = audit.to_jsonl()
    _write_artifacts(out_dir, texts)
    return EXIT_OK


def _write_artifacts(out_dir: Path, texts: dict) -> None:
    """Create out_dir and write each {name: text} into it; failing to is a SchemaError."""
    path = out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            path = out_dir / name
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


REGIME_ORDER = ("generic", "separable", "highly_sparse", "tensor_oracle", "classical")


def _costs_rows(report: dict) -> list[dict]:
    env = report["envelopes"]
    measured = report["implemented_per_iteration"]
    rows = []
    for regime in REGIME_ORDER:
        per_iter = env.get(f"{regime}_per_iteration")
        rows.append(
            {
                "regime": regime,
                "envelope_per_iteration": per_iter,
                "envelope_total": env[f"{regime}_total"],
                "measured_depth_per_iteration": (
                    measured[regime]["depth_units"] if regime in measured else None
                ),
            }
        )
    return rows


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _costs_table_text(rows: list[dict]) -> str:
    headers = ["regime", "envelope/iter", "envelope total", "measured depth/iter"]
    cells = [
        [
            row["regime"],
            _format_cell(row["envelope_per_iteration"]),
            _format_cell(row["envelope_total"]),
            _format_cell(row["measured_depth_per_iteration"]),
        ]
        for row in rows
    ]
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
    rows = _costs_rows(report)
    table = _costs_table_text(rows)
    _write_artifacts(out_dir, {
        "costs.csv": _csv_text(rows),
        "crossover.csv": _csv_text(report["crossover"]),
        "report.json": _json_text(report),
        "table.txt": table,
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
    return run_experiment(cfg, Path(out or cfg.out or "out"), fmt or cfg.fmt,
                          bool(audit or cfg.audit))


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
    if args.params:
        params = CostParams.from_json_dict(_load_json_file(Path(args.params)))
    else:
        params = CostParams()
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


if __name__ == "__main__":
    sys.exit(main())
