"""Batch front door: run experiments, compare cost envelopes, validate configs.

Subcommands
    run              execute one config (or a sweep of configs) and write
                     trace/report artifacts
    compare-costs    render the per-regime cost report as CSV and a text table
    validate-config  schema-check a config and print its resolved summary

Flags override config-file fields (flags > file).  Artifacts are
deterministic: sorted JSON keys, shortest round-trip float formatting, no
timestamps or absolute paths, so reruns of the same config are
byte-identical.

Exit codes
    0  success
    1  unexpected internal error
    2  malformed JSON / schema or configuration error
    3  infeasible schedule (no compliant uniform initial state)
    4  iterate norm bound violated at runtime
    5  polynomial sup-norm bound violated
    6  polynomial degree cap exceeded
    7  other contract violations (domain exits, scale overflows, ...)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blockcalc import AuditLog, next_power_of_two
from .chebyshev import MAX_EPS, SeparableObjective, load_scalar_function
from .descent import (
    GENERIC,
    SEPARABLE,
    CostParams,
    DescentConfig,
    DescentTrace,
    envelope_formulas,
    eta_generic,
    initial_state_uniform,
    resource_predict,
    run_generic,
    run_separable,
)
from .errors import (
    BlockgdError,
    DegreeCapExceeded,
    InfeasibleSchedule,
    NormBoundViolated,
    PolyBoundViolated,
    SchemaError,
)
from .oracle import classical_gd
from .polyfunc import MAX_N, ObjectiveFunction, is_finite_number, is_size, load_objective

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_NORM = 4
EXIT_POLY = 5
EXIT_DEGREE = 6
EXIT_CONTRACT = 7

UNIFORM_SENTINEL = "uniform"


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed run request; objective is already constructed."""

    mode: str
    objective: ObjectiveFunction | SeparableObjective
    x0_spec: tuple[float, ...] | str
    steps: int
    eps: float
    eta: float | None
    audit: bool
    out: str | None
    fmt: str


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _as_number(value, path: str) -> float:
    if not is_finite_number(value):
        _fail(path, f"expected finite number, got {value!r}")
    return float(value)


def parse_experiment(doc: dict) -> ExperimentConfig:
    """Validate and construct an ExperimentConfig from a parsed JSON object."""
    if not isinstance(doc, dict):
        _fail("$", f"expected object, got {type(doc).__name__}")
    allowed = {"mode", "objective", "x0", "T", "eps", "eta", "audit", "out", "format"}
    unknown = set(doc) - allowed
    if unknown:
        _fail("$", f"unknown keys {sorted(unknown)}")
    for key in ("mode", "objective", "x0", "T", "eps"):
        if key not in doc:
            _fail("$", f"missing required key '{key}'")
    mode = doc["mode"]
    if mode not in (GENERIC, SEPARABLE):
        _fail("mode", f"expected '{GENERIC}' or '{SEPARABLE}', got {mode!r}")
    obj_doc = doc["objective"]
    if not isinstance(obj_doc, dict):
        _fail("objective", "expected object")
    if mode == GENERIC:
        if "terms" not in obj_doc:
            _fail("objective", "generic mode requires the monomial schema (n/M/terms)")
        try:
            objective = load_objective(obj_doc)
        except SchemaError as exc:
            _fail("objective", str(exc))
    else:
        if "kind" not in obj_doc:
            _fail("objective", "separable mode requires the scalar-function schema "
                               "(kind/... plus n and M)")
        local = dict(obj_doc)
        n = local.pop("n", None)
        m_bound = local.pop("M", None)
        if not is_size(n):
            _fail("objective.n", f"expected integer in [1, {MAX_N}], got {n!r}")
        if not is_finite_number(m_bound) or m_bound <= 0:
            _fail("objective.M", f"expected positive finite number, got {m_bound!r}")
        try:
            func = load_scalar_function(local)
        except SchemaError as exc:
            _fail("objective", str(exc))
        objective = SeparableObjective(func=func, n=n, grad_bound=float(m_bound))
    x0_doc = doc["x0"]
    if isinstance(x0_doc, dict):
        if set(x0_doc) != {"uniform_q"} or x0_doc["uniform_q"] != "auto":
            _fail("x0", 'expected an array of numbers or {"uniform_q": "auto"}')
        x0_spec: tuple[float, ...] | str = UNIFORM_SENTINEL
    elif isinstance(x0_doc, list):
        vals = []
        for i, v in enumerate(x0_doc):
            vals.append(_as_number(v, f"x0[{i}]"))
        if len(vals) != objective.n:
            _fail("x0", f"expected length n={objective.n}, got {len(vals)}")
        x0_spec = tuple(vals)
    else:
        _fail("x0", 'expected an array of numbers or {"uniform_q": "auto"}')
    steps = doc["T"]
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 0:
        _fail("T", f"expected non-negative integer, got {steps!r}")
    eps = _as_number(doc["eps"], "eps")
    if not 0.0 < eps < 1.0:
        _fail("eps", f"expected a value in (0, 1), got {eps}")
    if mode == SEPARABLE and eps > MAX_EPS:
        _fail("eps", f"separable mode approximates F' to eps <= {MAX_EPS}, got {eps}")
    eta = None
    if "eta" in doc:
        eta = _as_number(doc["eta"], "eta")
    if mode == SEPARABLE and eta is None:
        _fail("eta", "separable mode requires an explicit eta")
    audit = doc.get("audit", False)
    if not isinstance(audit, bool):
        _fail("audit", f"expected boolean, got {audit!r}")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        _fail("out", f"expected string, got {out!r}")
    fmt = doc.get("format", "both")
    if fmt not in ("json", "csv", "both"):
        _fail("format", f"expected 'json', 'csv' or 'both', got {fmt!r}")
    return ExperimentConfig(
        mode=mode, objective=objective, x0_spec=x0_spec, steps=steps, eps=eps,
        eta=eta, audit=audit, out=out, fmt=fmt,
    )


def _resolved_eta(cfg: ExperimentConfig) -> float:
    if cfg.mode == GENERIC:
        return eta_generic(cfg.objective)
    return float(cfg.eta)


def _resolve_x0(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.x0_spec == UNIFORM_SENTINEL:
        # Feasibility is checked here, before any pipeline work.
        return initial_state_uniform(
            _resolved_eta(cfg), cfg.objective.grad_bound, cfg.steps, cfg.objective.n
        )
    return np.asarray(cfg.x0_spec, dtype=float)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _build_report(cfg: ExperimentConfig, trace: DescentTrace, oracle_trace) -> dict:
    sim = trace.iterates()
    ora = oracle_trace.as_array()
    deviations = np.abs(sim - ora).max(axis=1).tolist()
    max_dev = max(deviations)
    bound = 16.0 * trace.steps * trace.eps
    final = trace.final_iterate()
    # Post-selection happens in the padded dimension; for power-of-two n the
    # reported and ||x_T||^2 / n probabilities coincide.
    expected_prob = float(np.dot(final, final)) / next_power_of_two(trace.n)
    if cfg.mode == GENERIC:
        stats = cfg.objective.stats()
        # An all-constant objective has no iteration cost to bound.
        shape = dict(
            terms=stats.term_count, degree=stats.max_degree,
            vars_per_term=stats.max_var_count,
        ) if stats.max_var_count else None
    else:
        shape = dict(poly_degree=trace.poly_degree)
    envelopes = {}
    if shape:
        params = CostParams(
            n=max(cfg.objective.n, 2), steps=max(trace.steps, 1), eps=trace.eps, **shape
        )
        full = envelope_formulas(params)
        envelopes = {k: full[k] for k in
                     (f"{cfg.mode}_per_iteration", f"{cfg.mode}_total", "classical_total")}
    last = trace.records[-1]
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
            "final": {
                "depth_units": last.depth_units,
                "queries": last.queries,
                "ancillas": last.ancillas,
                "ancilla_high_water": last.ancilla_high_water,
            },
            "per_iteration_deltas": trace.per_iteration_deltas(),
            "envelopes": envelopes,
        },
        "config": {
            "mode": cfg.mode,
            "n": cfg.objective.n,
            "T": cfg.steps,
            "eps": cfg.eps,
            "eta": trace.eta,
            "grad_bound": cfg.objective.grad_bound,
        },
    }


def run_experiment(cfg: ExperimentConfig, out_dir: Path, fmt: str, audit_on: bool) -> int:
    """Execute one config and write its artifacts under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    eta = _resolved_eta(cfg)
    x0 = _resolve_x0(cfg)
    audit = AuditLog() if audit_on else None
    # Pass eta through in both modes: generic runs then verify it against the
    # pinned 1/(2*M*K) instead of silently ignoring a stale config value.
    descent_cfg = DescentConfig(steps=cfg.steps, eps=cfg.eps, mode=cfg.mode, eta=cfg.eta)
    if cfg.mode == GENERIC:
        trace = run_generic(cfg.objective, x0, descent_cfg, audit=audit)
    else:
        trace = run_separable(cfg.objective, x0, descent_cfg, audit=audit)
    oracle_trace = classical_gd(cfg.objective, x0, eta, cfg.steps)
    report = _build_report(cfg, trace, oracle_trace)
    if fmt in ("json", "both"):
        (out_dir / "trace.json").write_text(_json_text(trace.to_json_dict()),
                                            encoding="utf-8")
    if fmt in ("csv", "both"):
        (out_dir / "trace.csv").write_text(trace.to_csv_text(), encoding="utf-8")
    (out_dir / "report.json").write_text(_json_text(report), encoding="utf-8")
    if audit is not None:
        (out_dir / "audit.jsonl").write_text(audit.to_jsonl(), encoding="utf-8")
    return EXIT_OK


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


def compare_costs(params: CostParams, out_dir: Path) -> str:
    """Write costs.csv, crossover.csv and table.txt; return the text table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    report = resource_predict(params)
    rows = _costs_rows(report)
    csv_lines = ["regime,envelope_per_iteration,envelope_total,measured_depth_per_iteration"]
    for row in rows:
        csv_lines.append(
            ",".join(
                "" if row[k] is None else repr(row[k]) if isinstance(row[k], float)
                else str(row[k])
                for k in ("regime", "envelope_per_iteration", "envelope_total",
                          "measured_depth_per_iteration")
            )
        )
    (out_dir / "costs.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    cross_lines = ["T,generic,separable,highly_sparse,tensor_oracle,classical"]
    for row in report["crossover"]:
        cross_lines.append(
            ",".join(
                str(row["T"]) if k == "T"
                else "" if row[k] is None else repr(float(row[k]))
                for k in ("T", "generic", "separable", "highly_sparse",
                          "tensor_oracle", "classical")
            )
        )
    (out_dir / "crossover.csv").write_text("\n".join(cross_lines) + "\n",
                                           encoding="utf-8")
    (out_dir / "report.json").write_text(_json_text(report), encoding="utf-8")
    table = _costs_table_text(rows)
    (out_dir / "table.txt").write_text(table, encoding="utf-8")
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


def _exit_code_for(exc: BlockgdError) -> int:
    if isinstance(exc, SchemaError):
        return EXIT_SCHEMA
    if isinstance(exc, InfeasibleSchedule):
        return EXIT_INFEASIBLE
    if isinstance(exc, NormBoundViolated):
        return EXIT_NORM
    if isinstance(exc, PolyBoundViolated):
        return EXIT_POLY
    if isinstance(exc, DegreeCapExceeded):
        return EXIT_DEGREE
    return EXIT_CONTRACT


def _run_one_config(config_path: Path, args) -> int:
    doc = _load_json_file(config_path)
    cfg = parse_experiment(doc)
    out_dir = Path(args.out) if args.out else Path(cfg.out) if cfg.out else Path("out")
    fmt = args.format if args.format else cfg.fmt
    audit_on = bool(args.audit or cfg.audit)
    return run_experiment(cfg, out_dir, fmt, audit_on)


def _cmd_run(args) -> int:
    if args.sweep:
        sweep_path = Path(args.sweep)
        doc = _load_json_file(sweep_path)
        if not isinstance(doc, dict) or not isinstance(doc.get("configs"), list):
            raise SchemaError('sweep file must be {"configs": [paths, ...]}')
        paths = [sweep_path.parent / p for p in doc["configs"]]
        base = Path(args.out) if args.out else Path("out")

        def run_entry(path: Path) -> int:
            sub = argparse.Namespace(
                out=str(base / path.stem), format=args.format, audit=args.audit,
            )
            try:
                return _run_one_config(path, sub)
            except BlockgdError as exc:
                print(f"{path.name}: {exc}", file=sys.stderr)
                return _exit_code_for(exc)

        codes = [run_entry(path) for path in paths]
        return next((c for c in codes if c != 0), EXIT_OK)
    if not args.config:
        raise SchemaError("run requires --config PATH (or --sweep PATH)")
    return _run_one_config(Path(args.config), args)


def _cmd_compare_costs(args) -> int:
    if args.params:
        doc = _load_json_file(Path(args.params))
        if not isinstance(doc, dict):
            raise SchemaError("params file must hold a JSON object")
        params = CostParams.from_json_dict(doc)
    else:
        params = CostParams()
    table = compare_costs(params, Path(args.out) if args.out else Path("out"))
    print(table, end="")
    return EXIT_OK


def _cmd_validate_config(args) -> int:
    doc = _load_json_file(Path(args.config))
    cfg = parse_experiment(doc)
    eta = _resolved_eta(cfg)
    size = (
        f"K={cfg.objective.term_count}" if cfg.mode == GENERIC
        else f"kind={cfg.objective.func.kind}"
    )
    print(
        f"ok: mode={cfg.mode} n={cfg.objective.n} {size} T={cfg.steps} "
        f"eps={cfg.eps} eta={eta} M={cfg.objective.grad_bound}"
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
        return _exit_code_for(exc)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
