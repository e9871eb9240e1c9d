import copy
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgd.chebyshev import DEGREE_CAP, MAX_EPS
from blockgd.cli import EXIT_INTERNAL, EXIT_OK, _json_text, main, parse_experiment
from blockgd.errors import (
    DegreeCapExceeded,
    DomainExit,
    InfeasibleSchedule,
    InvalidErrorBudget,
    NormBoundViolated,
    PolyBoundViolated,
    SchemaError,
)
from blockgd.polyfunc import MAX_N, MAX_TERM_DEGREE, MAX_TRACE_ENTRIES

# The documented exit code of each failure family (README's "Exit codes").
EXIT_SCHEMA, EXIT_INFEASIBLE, EXIT_NORM, EXIT_POLY, EXIT_DEGREE, EXIT_CONTRACT = range(2, 8)

REPO = Path(__file__).resolve().parents[1]
QUADRATIC = REPO / "configs" / "quadratic.json"
SEPARABLE = REPO / "configs" / "separable_sin.json"
COSTS = REPO / "configs" / "costs_default.json"


def reject_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


NAN, INF = float("nan"), float("inf")

GENERIC_DOC = {
    "mode": "generic",
    "objective": {"n": 2, "M": 1.0, "terms": [{"coeff": 0.1, "exponents": [2, 0]}]},
    "x0": [0.1, 0.1],
    "T": 1,
    "eps": 1e-6,
}
SEPARABLE_DOC = {
    "mode": "separable",
    "objective": {"kind": "named", "name": "sin", "scale": 1.0, "n": 2, "M": 1.0},
    "x0": [0.1, 0.1],
    "T": 1,
    "eps": 1e-6,
    "eta": 0.1,
}
POLY_DOC = {**SEPARABLE_DOC,
            "objective": {"kind": "poly", "coeffs": [0.0, 0.1, 0.1], "n": 2, "M": 1.0}}


def _with(doc, keys, value):
    out = copy.deepcopy(doc)
    node = out
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return out


# Inputs that each field check rejects, shared by the tests of that check
# and by the check that validate-config agrees with run.
BAD_FIELD_PATCHES = [
    {"T": -1},
    {"eps": 2.0},
    {"x0": [0.1]},            # wrong length
    {"x0": {"uniform_q": "yes"}},
    {"mode": "other"},
    {"extra_key": 1},
]
NON_FINITE_DOCS = [
    pytest.param(_with(GENERIC_DOC, ["x0", 0], NAN), id="generic-x0-nan"),
    pytest.param(_with(SEPARABLE_DOC, ["x0", 0], NAN), id="separable-x0-nan"),
    pytest.param(_with(GENERIC_DOC, ["objective", "M"], INF), id="generic-M-inf"),
    pytest.param(_with(SEPARABLE_DOC, ["objective", "M"], INF), id="separable-M-inf"),
    pytest.param(_with(GENERIC_DOC, ["objective", "M"], 10**400), id="generic-M-huge-int"),
    pytest.param(_with(POLY_DOC, ["objective", "coeffs", 1], NAN), id="poly-coeff-nan"),
    pytest.param(_with(GENERIC_DOC, ["objective", "terms", 0, "coeff"], NAN),
                 id="term-coeff-nan"),
    pytest.param(_with(SEPARABLE_DOC, ["objective", "scale"], NAN), id="scale-nan"),
    pytest.param(_with(GENERIC_DOC, ["eta"], NAN), id="generic-eta-nan"),
]
QUADRATIC_DOC = json.loads(QUADRATIC.read_text())
LIMIT_DOCS = [
    pytest.param(_with(SEPARABLE_DOC, ["eps"], 0.5), str(MAX_EPS), id="separable-eps-half"),
    pytest.param(_with(_with(SEPARABLE_DOC, ["objective", "n"], 10**30),
                       ["x0"], {"uniform_q": "auto"}), str(MAX_N), id="separable-n-huge"),
    pytest.param(_with(GENERIC_DOC, ["objective", "n"], 10**30), str(MAX_N),
                 id="generic-n-huge"),
    pytest.param(QUADRATIC_DOC | {"T": 10**15}, str(MAX_TRACE_ENTRIES // 2 - 1),
                 id="quadratic-T-huge"),
    pytest.param([GENERIC_DOC], "$: expected object, got list", id="top-level-array"),
    pytest.param(GENERIC_DOC | {"out": 5}, "out: expected string", id="out-not-a-string"),
]
# A generic term of total degree 65 and a poly of 515 coefficients (derivative
# degree 513): one above the term-degree cap and the separable degree cap.
DEGREE_CAP_DOCS = [
    pytest.param(_with(GENERIC_DOC, ["objective", "terms", 0, "exponents"], [33, 32]),
                 "terms[0] total degree", id="term-degree-65"),
    pytest.param(_with(GENERIC_DOC, ["objective", "terms", 0, "exponents"], [10**30, 0]),
                 "terms[0].exponents[0]", id="exponent-huge"),
    pytest.param(_with(POLY_DOC, ["objective", "coeffs"], [0.0] * 514 + [1e-9]),
                 "coeffs", id="poly-515-coeffs"),
    pytest.param(_with(POLY_DOC, ["objective", "coeffs"], [0.0] * 1500 + [1e-9]),
                 "coeffs", id="poly-1501-coeffs"),
]
# The repetition count of an amplification to accuracy 1e-320 overflows, and
# so does the scale factor coeff * exponent / M = 2e308 of this term.
EPS_SUBNORMAL_DOC = _with(GENERIC_DOC, ["eps"], 1e-320)
FACTOR_OVERFLOW_DOC = _with(_with(GENERIC_DOC, ["objective", "M"], 1e-8),
                            ["objective", "terms", 0, "coeff"], 1e300) | {"x0": [0.0, 0.1]}
# The tracked error budget grows by a constant factor per step and overflows
# to inf: at step 323 of this quartic and at step 1356 of quadratic.json.
QUARTIC_LONG_DOC = {
    "mode": "generic",
    "objective": {"n": 2, "M": 0.7071067811865476, "terms": [
        {"coeff": 1.0, "exponents": [4, 0]}, {"coeff": 1.0, "exponents": [0, 4]}]},
    "x0": [0.3, 0.2], "T": 400, "eps": 1e-6,
}
QUADRATIC_LONG_DOC = QUADRATIC_DOC | {"T": 1500}
# Edge values whose products under- or overflow.  At M = 5e-324 the pinned
# generic eta 1/(2*M*K) is inf; at M = 1e300 the factor coeff * exponent / M
# of a 5e-324 coefficient is 0, and at M = 1.0 that of a 1e-310 coefficient
# is subnormal, so its reciprocal is inf; a separable eta of 5e-324 makes
# 2*eta*M 0 (M = 1e-300) or subnormal (M = 1.0).  Each is a step-size error.
TINY_M_OBJECTIVE = {"n": 1, "M": 5e-324, "terms": [{"coeff": 0.1, "exponents": [2]}]}
# Its bad term is the config's terms[0] but the sorted objective's terms[1].
FACTOR_SUBNORMAL_DOC = _with(GENERIC_DOC, ["objective"], {"n": 2, "M": 1.0, "terms": [
    {"coeff": 1e-310, "exponents": [2, 0]}, {"coeff": 0.5, "exponents": [0, 2]}]})
UNDERFLOW_EDGE_DOCS = [
    pytest.param(_with(GENERIC_DOC, ["objective"], {
        "n": 2, "M": 1e300, "terms": [{"coeff": 5e-324, "exponents": [2, 0]}]}),
        EXIT_SCHEMA, id="factor-underflows"),
    pytest.param(FACTOR_SUBNORMAL_DOC, EXIT_SCHEMA, id="factor-subnormal"),
    pytest.param({**GENERIC_DOC, "objective": TINY_M_OBJECTIVE, "x0": {"uniform_q": "auto"},
                  "T": 0}, EXIT_SCHEMA, id="eta-inf-uniform-x0"),
    pytest.param({**GENERIC_DOC, "objective": TINY_M_OBJECTIVE, "x0": [0.1], "T": 0},
                 EXIT_SCHEMA, id="eta-inf-T0"),
    pytest.param({**GENERIC_DOC, "objective": TINY_M_OBJECTIVE, "x0": [0.1], "T": 1},
                 EXIT_SCHEMA, id="eta-inf-T1"),
    pytest.param({"mode": "separable", "objective": {
        "n": 1, "M": 1e-300, "kind": "poly", "coeffs": [0.1, 0.1]},
        "x0": [0.1], "T": 1, "eps": 0.001, "eta": 5e-324}, EXIT_SCHEMA,
        id="eta-divisor-underflows"),
    pytest.param({"mode": "separable", "objective": {
        "n": 1, "M": 1.0, "kind": "poly", "coeffs": [0.1, 0.1]},
        "x0": [0.1], "T": 1, "eps": 0.001, "eta": 5e-324}, EXIT_SCHEMA, id="p-insert-overflows"),
]


# A separable run of F(x) = (M/2) x, whose divisor is exactly 2*M: eta =
# 1/(2*M) runs at every scale of M, and an eta above it by a relative 1e-6
# (though by an absolute 5e-13 < DOMAIN_TOL) fails alike in both commands.
def _separable_line(m_bound, eta):
    return {"mode": "separable", "objective": {
        "n": 1, "M": m_bound, "kind": "poly", "coeffs": [0.0, m_bound / 2]},
        "x0": [0.1], "T": 1, "eps": 0.001, "eta": eta}


SEPARABLE_ETA_DOCS = [
    pytest.param(_separable_line(m, 1 / (2 * m)), EXIT_OK, id=f"eta-at-limit-M{m:g}")
    for m in (1e-6, 1.0, 1e6)
] + [pytest.param(_separable_line(1e6, 5.000005e-07), EXIT_SCHEMA, id="eta-above-limit-M1e6")]
# Configs that pass every field check but break the step-size rule, have no
# feasible uniform start, or fail inside the pipeline.
RULE_DOCS = [
    pytest.param(_with(GENERIC_DOC, ["eta"], 0.3), id="generic-eta-unpinned"),
    pytest.param(_with(SEPARABLE_DOC, ["eta"], 0.9), id="separable-eta-above-limit"),
    pytest.param({k: v for k, v in SEPARABLE_DOC.items() if k != "eta"},
                 id="separable-eta-missing"),
    pytest.param(_with(SEPARABLE_DOC, ["objective"], GENERIC_DOC["objective"]),
                 id="mode-objective-mismatch"),
    pytest.param(_with(_with(GENERIC_DOC, ["objective", "terms", 0, "coeff"], 1.0),
                       ["x0"], {"uniform_q": "auto"}), id="infeasible-uniform-start"),
    pytest.param(_with(_with(GENERIC_DOC, ["objective", "terms", 0, "exponents"], [1, 0]),
                       ["x0"], [0.4, 0.0]) | {"T": 3}, id="norm-bound-violated"),
    pytest.param(EPS_SUBNORMAL_DOC, id="generic-eps-subnormal"),
    pytest.param(FACTOR_OVERFLOW_DOC, id="scale-factor-overflow"),
    pytest.param(QUARTIC_LONG_DOC, id="quartic-budget-overflow"),
    pytest.param(QUADRATIC_LONG_DOC, id="quadratic-budget-overflow"),
]


class TestRunCommand:
    def test_quadratic_artifacts_and_report(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(QUADRATIC), "--out", str(out)])
        assert code == EXIT_OK
        for name in ("trace.json", "trace.csv", "report.json", "audit.jsonl"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["deviation"]["max"] <= report["deviation"]["bound_16_T_eps"]
        assert report["deviation"]["within_bound"]
        assert report["post_selection"]["matches"]
        assert report["norm_safety"]["ok"]

    def test_separable_with_auto_uniform_start(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(SEPARABLE), "--out", str(out)])
        assert code == EXIT_OK
        trace = json.loads((out / "trace.json").read_text())
        assert trace["poly_degree"] <= 20
        assert len(trace["iterations"]) == 4
        first = trace["iterations"][0]["x"]
        assert first == [first[0]] * 8  # uniform start

    def test_format_flag_overrides(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(QUADRATIC), "--out", str(out),
                     "--format", "csv"])
        assert code == EXIT_OK
        assert (out / "trace.csv").exists()
        assert not (out / "trace.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(QUADRATIC), "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--config", str(QUADRATIC), "--out", str(out2)]) == EXIT_OK
        for name in ("trace.json", "trace.csv", "report.json", "audit.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sweep_runs_all_configs(self, tmp_path):
        sweep = {"configs": [str(QUADRATIC), str(SEPARABLE)]}
        sweep_path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "sweep_out"
        code = main(["run", "--sweep", str(sweep_path), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "quadratic" / "report.json").exists()
        assert (out / "separable_sin" / "report.json").exists()

    def test_sweep_runs_in_order_and_keeps_first_failure(self, tmp_path, capsys):
        bad_schema = write_config(tmp_path, {"mode": "generic"}, "bad_schema.json")
        infeasible = write_config(tmp_path, {
            "mode": "generic",
            "objective": {"n": 1, "M": 1.0,
                          "terms": [{"coeff": 1.0, "exponents": [1]}]},
            "x0": {"uniform_q": "auto"},
            "T": 1,
            "eps": 1e-6,
        }, "infeasible.json")
        sweep = {"configs": [str(bad_schema), str(QUADRATIC), str(infeasible)]}
        sweep_path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "sweep_out"
        code = main(["run", "--sweep", str(sweep_path), "--out", str(out)])
        assert code == EXIT_SCHEMA
        assert (out / "quadratic" / "report.json").exists()
        lines = capsys.readouterr().err.splitlines()
        names = [line.split(":")[0] for line in lines]
        assert names == ["bad_schema.json", "infeasible.json"]

    def test_sweep_audits_only_the_configs_that_ask(self, tmp_path):
        # quadratic.json sets "audit": true, separable_sin.json does not.
        sweep_path = write_config(
            tmp_path, {"configs": [str(QUADRATIC), str(SEPARABLE)]}, "sweep.json")
        out = tmp_path / "sweep_out"
        assert main(["run", "--sweep", str(sweep_path), "--out", str(out)]) == EXIT_OK
        assert not (out / "separable_sin" / "audit.jsonl").exists()
        alone = tmp_path / "alone"
        assert main(["run", "--config", str(QUADRATIC), "--out", str(alone)]) == EXIT_OK
        audit = (out / "quadratic" / "audit.jsonl").read_bytes()
        assert audit and audit == (alone / "audit.jsonl").read_bytes()

    def test_audit_ids_form_a_closed_graph(self, tmp_path):
        for config in (QUADRATIC, SEPARABLE):
            out = tmp_path / config.stem
            code = main(["run", "--config", str(config), "--out", str(out), "--audit"])
            assert code == EXIT_OK
            produced = set()
            lines = (out / "audit.jsonl").read_text().splitlines()
            records = [json.loads(line) for line in lines]
            assert records
            for rec in records:
                for operand in rec["in"]:
                    assert operand["id"] in produced, (config.name, rec["seq"])
                produced.add(rec["out"]["id"])

    def test_long_run_writes_artifacts_despite_envelope_overflow(self, tmp_path):
        # eps ** (4 T) underflows to zero from T = 14 on at eps = 1e-6.
        doc = {**json.loads(QUADRATIC.read_text()), "T": 14, "x0": [0.01, 0.01]}
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        for name in ("trace.json", "trace.csv", "report.json", "audit.jsonl"):
            assert (out / name).stat().st_size > 0
        json.loads((out / "report.json").read_text(), parse_constant=reject_constant)

    def test_one_coordinate_report_prices_the_classical_envelope_at_n_1(self, tmp_path):
        # classical_total = n * d * K * v * T with K = v = 1, d = 2, T = 2.
        doc = {"mode": "generic",
               "objective": {"n": 1, "M": 0.2, "terms": [{"coeff": 0.1, "exponents": [2]}]},
               "x0": [0.1], "T": 2, "eps": 1e-6}
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        envelopes = json.loads((out / "report.json").read_text())["resources"]["envelopes"]
        assert envelopes["classical_total"] == 4.0

    def test_run_without_config_is_schema_error(self):
        assert main(["run"]) == EXIT_SCHEMA


class TestExitCodes:
    def test_malformed_json_line_precise(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "mode": oops\n}', encoding="utf-8")
        code = main(["run", "--config", str(path)])
        assert code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_infeasible_schedule_before_any_computation(self, tmp_path):
        doc = {
            "mode": "generic",
            "objective": {"n": 1, "M": 1.0,
                          "terms": [{"coeff": 1.0, "exponents": [1]}]},
            "x0": {"uniform_q": "auto"},
            "T": 1,
            "eps": 1e-6,
        }
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == EXIT_INFEASIBLE
        assert not (out / "trace.json").exists()

    def test_norm_bound_violation_exit(self, tmp_path):
        doc = {
            "mode": "generic",
            "objective": {"n": 1, "M": 1.0,
                          "terms": [{"coeff": 1.0, "exponents": [1]}]},
            "x0": [0.4],
            "T": 3,
            "eps": 1e-6,
        }
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_NORM

    def test_generic_eta_override_rejected(self, tmp_path):
        doc = {
            "mode": "generic",
            "objective": {"n": 2, "M": 1.0,
                          "terms": [{"coeff": 0.1, "exponents": [2, 0]}]},
            "x0": [0.1, 0.1],
            "T": 1,
            "eps": 1e-6,
            "eta": 0.123,  # pinned value is 0.5 here
        }
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_SCHEMA

    def test_degree_cap_exit(self, tmp_path):
        doc = {
            "mode": "separable",
            "objective": {"kind": "named", "name": "gaussian", "scale": 400.0,
                          "n": 2, "M": 400.0},
            "x0": [0.0, 0.0],
            "T": 1,
            "eps": 1e-6,
            "eta": 1e-4,
        }
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_DEGREE

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_unreadable_config_is_schema_error(self, tmp_path, capsys, command, case):
        path = tmp_path / "cfg.json"
        if case == "directory":
            path.mkdir()
        assert main([command, "--config", str(path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("error: cannot read cfg.json: ")

    def test_every_error_family_has_one_code(self):
        assert SchemaError("x").exit_code == EXIT_SCHEMA
        assert InfeasibleSchedule("x").exit_code == EXIT_INFEASIBLE
        assert NormBoundViolated("x").exit_code == EXIT_NORM
        assert PolyBoundViolated("x").exit_code == EXIT_POLY
        assert DegreeCapExceeded("x").exit_code == EXIT_DEGREE
        assert DomainExit("x").exit_code == EXIT_CONTRACT
        assert InvalidErrorBudget("x").exit_code == EXIT_CONTRACT
        assert issubclass(InvalidErrorBudget, ValueError)


class TestValidateConfig:
    def test_valid_config(self, capsys):
        assert main(["validate-config", "--config", str(QUADRATIC)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mode=generic" in out and "T=5" in out

    def test_mode_objective_mismatch(self, tmp_path):
        doc = {
            "mode": "separable",
            "objective": {"n": 1, "M": 1.0,
                          "terms": [{"coeff": 1.0, "exponents": [1]}]},
            "x0": [0.0],
            "T": 1,
            "eps": 1e-6,
            "eta": 0.1,
        }
        path = write_config(tmp_path, doc)
        assert main(["validate-config", "--config", str(path)]) == EXIT_SCHEMA

    @pytest.mark.parametrize("patch", BAD_FIELD_PATCHES)
    def test_bad_fields_rejected(self, tmp_path, patch):
        path = write_config(tmp_path, {**GENERIC_DOC, **patch})
        assert main(["validate-config", "--config", str(path)]) == EXIT_SCHEMA

    def test_x0_outside_the_box_fails_in_both_commands(self, tmp_path, capsys):
        doc = {**json.loads(QUADRATIC.read_text()), "x0": [0.7, 0.1]}
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONTRACT
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONTRACT
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: x0 lies outside [-1/2, 1/2]^n"] * 2

    def test_factor_error_names_no_sorted_index(self, tmp_path, capsys):
        path = write_config(tmp_path, FACTOR_SUBNORMAL_DOC)
        assert main(["validate-config", "--config", str(path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            "error: a term's factor coeff * exponent / M = 2e-310 for variable 0 has no "
            "finite reciprocal (coeff 1e-310, M 1.0)\n")

    def test_separable_requires_eta(self, tmp_path):
        doc = {
            "mode": "separable",
            "objective": {"kind": "named", "name": "sin", "scale": 1.0,
                          "n": 2, "M": 1.0},
            "x0": [0.1, 0.1],
            "T": 1,
            "eps": 1e-6,
        }
        path = write_config(tmp_path, doc)
        assert main(["validate-config", "--config", str(path)]) == EXIT_SCHEMA


class TestCompareCosts:
    def test_five_regime_rows(self, tmp_path, capsys):
        out = tmp_path / "costs"
        code = main(["compare-costs", "--params", str(COSTS), "--out", str(out)])
        assert code == EXIT_OK
        table = capsys.readouterr().out
        for regime in ("generic", "separable", "highly_sparse", "tensor_oracle",
                       "classical"):
            assert regime in table
        csv_rows = (out / "costs.csv").read_text().strip().splitlines()
        assert len(csv_rows) == 6  # header + 5 regimes

    def test_crossover_written_with_t_rows(self, tmp_path):
        out = tmp_path / "costs"
        main(["compare-costs", "--params", str(COSTS), "--out", str(out)])
        rows = (out / "crossover.csv").read_text().strip().splitlines()
        assert rows[0].startswith("T,")
        assert len(rows) == 6  # header + T = 1..5

    def test_defaults_without_params_file(self, tmp_path):
        assert main(["compare-costs", "--out", str(tmp_path / "c")]) == EXIT_OK

    def test_large_n_probe_start_stays_encodable(self, tmp_path):
        # A probe start of 0.05 per coordinate has ||x0||_2 > 1 from n = 400 on.
        path = write_config(tmp_path, {"n": 512}, "params.json")
        out = tmp_path / "c"
        assert main(["compare-costs", "--params", str(path), "--out", str(out)]) == EXIT_OK
        for name in ("costs.csv", "crossover.csv", "report.json", "table.txt"):
            assert (out / name).stat().st_size > 0
        measured = json.loads((out / "report.json").read_text())["implemented_per_iteration"]
        assert measured["generic"]["depth_units"] > 0
        assert measured["separable"]["depth_units"] > 0

    def test_overflowing_envelopes_are_null(self, tmp_path):
        path = write_config(tmp_path, {"T": 14}, "params.json")
        out = tmp_path / "c"
        assert main(["compare-costs", "--params", str(path), "--out", str(out)]) == EXIT_OK
        text = (out / "report.json").read_text()
        report = json.loads(text, parse_constant=reject_constant)
        assert report["envelopes"]["tensor_oracle_total"] is None
        assert report["envelopes"]["classical_total"] is not None
        assert [row["tensor_oracle"] is None for row in report["crossover"]] == [
            t >= 12 for t in range(1, 15)
        ]
        rows = (out / "crossover.csv").read_text().splitlines()
        assert rows[-1].split(",")[4] == ""

    def test_bad_params_rejected(self, tmp_path):
        path = write_config(tmp_path, {"K": 3, "bogus": 1}, "params.json")
        assert main(["compare-costs", "--params", str(path)]) == EXIT_SCHEMA


class TestNonFiniteNumbers:
    """json reads NaN, Infinity and numbers too large for a float; each is exit 2."""

    @pytest.mark.parametrize("doc", NON_FINITE_DOCS)
    def test_run_rejects_with_schema_exit(self, tmp_path, capsys, doc):
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_SCHEMA
        assert "finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "params",
        [{"n": 16.5}, {"n": 16.0}, {"T": True}, {"eps": "1e-6"}],
        ids=["n-float", "n-integral-float", "T-bool", "eps-string"],
    )
    def test_compare_costs_params_typed(self, tmp_path, params):
        path = write_config(tmp_path, params, "params.json")
        out = tmp_path / "c"
        assert main(["compare-costs", "--params", str(path), "--out", str(out)]) == EXIT_SCHEMA
        assert not (out / "report.json").exists()


class TestInputLimits:
    """Inputs outside a limit, or of the wrong shape, are schema errors (exit 2)."""

    @pytest.mark.parametrize("doc, message", LIMIT_DOCS)
    def test_run_and_validate_reject_with_schema_exit(self, tmp_path, capsys, doc, message):
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_SCHEMA
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert main(["validate-config", "--config", str(path)]) == EXIT_SCHEMA
        assert message in capsys.readouterr().err

    def test_trace_cap_is_inclusive(self):
        doc = _with(_with(SEPARABLE_DOC, ["objective", "n"], MAX_N), ["x0"], {"uniform_q": "auto"})
        largest = MAX_TRACE_ENTRIES // MAX_N - 1
        assert parse_experiment(doc | {"T": largest}).steps == largest
        with pytest.raises(SchemaError, match=f"T: expected integer in \\[0, {largest}\\]"):
            parse_experiment(doc | {"T": largest + 1})

    @pytest.mark.parametrize(
        "params, message",
        [({"eps": 0.9}, str(MAX_EPS)), ({"n": 10**30}, str(MAX_N)),
         ({"n": 2, "K": 3, "v": 1, "d": 1}, "probe family requires K <= n"),
         ({"d": 1, "v": 2}, "d = 1 cannot be below v = 2")],
        ids=["eps", "n", "K-above-n", "d-below-v"],
    )
    def test_compare_costs_rejects_with_schema_exit(self, tmp_path, capsys, params, message):
        path = write_config(tmp_path, params, "params.json")
        out = tmp_path / "c"
        assert main(["compare-costs", "--params", str(path), "--out", str(out)]) == EXIT_SCHEMA
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "params, message",
        [({"deg_P": 10**30}, "deg_P"), ({"deg_P": 2000}, "deg_P"),
         ({"T": 10**8}, "T"), ({"d": 10**8}, "d")],
        ids=["deg_P-huge", "deg_P-2000", "T-huge", "d-huge"],
    )
    def test_compare_costs_integer_caps(self, tmp_path, params, message):
        # A subprocess with a timeout, so that an uncapped integer fails here
        # instead of hanging the suite.
        path = write_config(tmp_path, params, "params.json")
        out = tmp_path / "c"
        proc = subprocess.run(
            [sys.executable, "-m", "blockgd", "compare-costs", "--params", str(path),
             "--out", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_SCHEMA, proc.stderr
        assert f"{message}: expected integer in [" in proc.stderr
        assert not (out / "report.json").exists()

    def test_compare_costs_integer_caps_are_inclusive(self, tmp_path):
        params = {"K": 16, "v": 16, "d": 64, "T": 1000, "deg_P": DEGREE_CAP, "p_tensor": 16}
        path = write_config(tmp_path, params, "params.json")
        out = tmp_path / "c"
        assert main(["compare-costs", "--params", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text(), parse_constant=reject_constant)
        assert len(report["crossover"]) == 1000
        assert report["implemented_per_iteration"]["generic"]["queries"] > 0

    def test_eps_limit_binds_the_separable_engine_only(self, tmp_path):
        for doc in (_with(SEPARABLE_DOC, ["eps"], MAX_EPS), _with(GENERIC_DOC, ["eps"], 0.5)):
            path = write_config(tmp_path, doc)
            out = tmp_path / doc["mode"]
            assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
            assert (out / "report.json").exists()


    @pytest.mark.parametrize("doc, path", DEGREE_CAP_DOCS)
    def test_degree_caps_reject_with_schema_exit(self, tmp_path, doc, path):
        # A subprocess with a timeout: an uncapped exponent makes run loop for
        # as many products as the exponent asks.
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        for command in (["run", "--config", str(config), "--out", str(out)],
                        ["validate-config", "--config", str(config)]):
            proc = subprocess.run([sys.executable, "-m", "blockgd", *command],
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == EXIT_SCHEMA, proc.stderr
            assert path in proc.stderr
        assert not (out / "report.json").exists()

    def test_degree_caps_are_inclusive(self, tmp_path):
        # Total degree 64 = MAX_TERM_DEGREE; 514 coefficients = DEGREE_CAP + 2.
        assert MAX_TERM_DEGREE == 64 and DEGREE_CAP + 2 == 514
        for name, doc in (
            ("generic", _with(GENERIC_DOC, ["objective", "terms", 0, "exponents"], [32, 32])),
            ("poly", _with(POLY_DOC, ["objective", "coeffs"], [0.0] * 513 + [1e-9])),
        ):
            path = write_config(tmp_path, doc, f"{name}.json")
            assert main(["validate-config", "--config", str(path)]) == EXIT_OK
            out = tmp_path / name
            assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
            assert (out / "report.json").exists()


class TestNoInternalError:
    """Inputs that once ended in exit 1 end in their documented exit code."""

    @pytest.mark.parametrize(
        "doc, message",
        [(EPS_SUBNORMAL_DOC, "repetitions"),
         (FACTOR_OVERFLOW_DOC, "renormalize the gradient bound"),
         (QUARTIC_LONG_DOC, "step 323: eps must be finite"),
         (QUADRATIC_LONG_DOC, "step 1356: eps must be finite")],
        ids=["eps-subnormal", "scale-factor-overflow", "quartic-budget-overflow",
             "quadratic-budget-overflow"],
    )
    def test_run_exits_with_contract_code(self, tmp_path, capsys, doc, message):
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONTRACT
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("doc, code", UNDERFLOW_EDGE_DOCS + SEPARABLE_ETA_DOCS)
    def test_underflow_edges_exit_alike(self, tmp_path, doc, code):
        """Both commands give one documented code; a run that passes writes its report."""
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        run_code = main(["run", "--config", str(path), "--out", str(out)])
        validate_code = main(["validate-config", "--config", str(path)])
        assert (run_code, validate_code) == (code, code)
        assert (out / "report.json").exists() == (code == EXIT_OK)

    def test_compare_costs_subnormal_eps(self, tmp_path, capsys):
        path = write_config(tmp_path, {"eps": 1e-320}, "params.json")
        out = tmp_path / "c"
        assert main(["compare-costs", "--params", str(path), "--out", str(out)]) == EXIT_CONTRACT
        assert "repetitions" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_sweep_entries_must_be_paths(self, tmp_path):
        path = write_config(tmp_path, {"configs": [5]}, "sweep.json")
        assert main(["run", "--sweep", str(path), "--out", str(tmp_path / "o")]) == EXIT_SCHEMA

    @pytest.mark.parametrize("command", [["run", "--config", str(QUADRATIC)], ["compare-costs"]],
                             ids=["run", "compare-costs"])
    @pytest.mark.parametrize("case", ["existing-file", "under-a-file", "artifact-is-a-directory"])
    def test_unusable_output_path_is_schema_error(self, tmp_path, capsys, command, case):
        afile = tmp_path / "afile"
        afile.write_text("x")
        out = {"existing-file": afile, "under-a-file": afile / "sub",
               "artifact-is-a-directory": tmp_path / "out"}[case]
        if case == "artifact-is-a-directory":
            (out / "report.json").mkdir(parents=True)
        assert main([*command, "--out", str(out)]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert "error: cannot write" in captured.err
        assert captured.out == ""

    def test_sweep_entry_with_an_unusable_output_path_fails_alone(self, tmp_path, capsys):
        sweep_path = write_config(
            tmp_path, {"configs": [str(QUADRATIC), str(SEPARABLE)]}, "sweep.json")
        out = tmp_path / "sweep_out"
        out.mkdir()
        (out / "quadratic").write_text("x")
        assert main(["run", "--sweep", str(sweep_path), "--out", str(out)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("quadratic.json: cannot write")
        assert (out / "separable_sin" / "report.json").exists()

    def test_failed_run_leaves_no_output_directory(self, tmp_path):
        path = write_config(tmp_path, EPS_SUBNORMAL_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONTRACT
        assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [pytest.param({**GENERIC_DOC, **patch}, id=f"patch{i}")
     for i, patch in enumerate(BAD_FIELD_PATCHES)]
    + NON_FINITE_DOCS
    # exponent-huge is left to its subprocess test: without its cap, run loops.
    + [pytest.param(p.values[0], id=p.id) for p in LIMIT_DOCS + DEGREE_CAP_DOCS
       if p.id != "exponent-huge"]
    + RULE_DOCS,
)
def test_validate_config_agrees_with_run(tmp_path, doc):
    """validate-config fails exactly where run fails before its pipeline.

    run's exit 2 (schema) and 3 (infeasible schedule) come before any
    pipeline work, and validate-config must give the same code; every other
    run outcome means the config passed those checks, so it validates.
    """
    path = write_config(tmp_path, doc)
    run_code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    validate_code = main(["validate-config", "--config", str(path)])
    assert EXIT_INTERNAL not in (run_code, validate_code)
    expected = run_code if run_code in (EXIT_SCHEMA, EXIT_INFEASIBLE) else EXIT_OK
    assert validate_code == expected


def _sha256_of_files(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _wide_generic_doc(n: int, supports, x0) -> dict:
    """A T=3 generic config with one degree-4 term per support (i, j, k) ~ x_i^2 x_j x_k."""
    terms = []
    for coeff, (i, j, k) in zip((0.95, -0.93, 0.97), supports):
        exponents = [0] * n
        exponents[i], exponents[j], exponents[k] = 2, 1, 1
        terms.append({"coeff": coeff, "exponents": exponents})
    return {"mode": "generic", "objective": {"n": n, "M": 0.8727, "terms": terms},
            "x0": x0, "T": 3, "eps": 1e-06}


class TestGoldenArtifacts:
    """SHA-256 of every artifact of eight commands (Python 3.11, numpy 2.4).

    A changed digest means a changed output byte; update it only on purpose.
    """

    def test_quadratic_audit_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--config", str(QUADRATIC), "--audit", "--out", str(out)]) == EXIT_OK
        assert _sha256_of_files(out) == {
            "audit.jsonl": "25d18188703f9747279e5a1039ab5906acc14a4f27759440f6847183f4945f11",
            "report.json": "9cd26f9ef0f80078b169f90c9bcc5fa90e4c969d218cad0d3bd0073d1b450c15",
            "trace.csv": "ad489119d77848f2ddb165b319947a0583e681074ba606f6587a9ab61c283b84",
            "trace.json": "844b25e8b830def7c257d9929aa4257ed5a299b34771c87a626ae7e94c3b13cb",
        }

    def test_quadratic_audit_run_past_int64_counters(self, tmp_path):
        # At T=200 the counters pass 10^97, far beyond 2^63: only Python ints
        # carry them to the artifacts unchanged.
        path = write_config(tmp_path, QUADRATIC_DOC | {"T": 200})
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert _sha256_of_files(out) == {
            "audit.jsonl": "4f9cffae81af01276490ea897658e97250231e9874b5d5c5955835e93e00ef18",
            "report.json": "e3c1e0d65317c204eeee5b2cd9cf8a64ac2ffc9ca23fed6e5b6a7601b8bcaf76",
            "trace.csv": "ecf78b8d59cfa6398bec2b8dd4ea0d7a9cb0b2cc082ce25d15fd9dc5b3629af5",
            "trace.json": "f90c1b23327a393719cf80b586e51ef78d9a1742f1fd94c9c00d727ae8b219d0",
        }
        final = json.loads((out / "report.json").read_text())["resources"]["final"]
        assert final["queries"] > 10**97

    def test_separable_audit_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--config", str(SEPARABLE), "--audit", "--out", str(out)]) == EXIT_OK
        assert _sha256_of_files(out) == {
            "audit.jsonl": "0adabc2a18f59725ee5bb33b06cefce5598c961472475d8fbeff6df948bf5568",
            "report.json": "0f09ffc92f64c1ce2165b037971aa0a65ef99658d3ee174d79412175d39f557d",
            "trace.csv": "8a946611af98ff383f93e9f4a10f24b6b023205e4971fe77943e4cc20ee04289",
            "trace.json": "7bf9f992f211b363d727b97ed167151be582f6a2f36f122ab1dd486f3bb8d463",
        }

    def test_generic_audit_run_with_inexact_averages(self, tmp_path):
        # K=3 terms of degree 4 over v=3 variables, one negative: its signed
        # averages divide by 3, which rounds, so a change in how a calculus
        # primitive rounds shows in these digests.
        doc = {
            "mode": "generic",
            "objective": {"n": 4, "M": 0.8727, "terms": [
                {"coeff": 0.95, "exponents": [2, 1, 1, 0]},
                {"coeff": -0.93, "exponents": [0, 1, 2, 1]},
                {"coeff": 0.97, "exponents": [1, 0, 1, 2]},
            ]},
            "x0": [0.21, -0.17, 0.13, -0.19],
            "T": 3,
            "eps": 1e-06,
        }
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--audit", "--out", str(out)]) == EXIT_OK
        assert _sha256_of_files(out) == {
            "audit.jsonl": "4cd26c821f75bdc8a5900f6132b2827ac4ce5746d301cbae754033fbc703216f",
            "report.json": "290d32770ce9e7e1c4cc5fc0d365e38cee55578289829b43daf2cbb905a67978",
            "trace.csv": "4c7aaca46a58040a1cc0d969b6c3125bfe6a36877d728421e070727d51e61c7b",
            "trace.json": "2390503ec555df4e473442d1d15f094de2efef89c79be7550704805898529a7a",
        }

    def test_generic_audit_run_padded_with_linear_and_pair_terms(self, tmp_path):
        # n=5 pads to 8; the linear term takes the projector_encode path and
        # its factor 0.3/M = 0.6 a scale_down; the two v=1 terms take the
        # scale_down by 2 of their average, and the v=2 term neither
        # amplifies nor shrinks its average.
        doc = {
            "mode": "generic",
            "objective": {"n": 5, "M": 0.5, "terms": [
                {"coeff": 0.3, "exponents": [1, 0, 0, 0, 0]},
                {"coeff": 0.5, "exponents": [0, 2, 1, 0, 0]},
                {"coeff": -0.2, "exponents": [0, 0, 0, 0, 3]},
            ]},
            "x0": [0.11, -0.23, 0.17, 0.05, -0.29],
            "T": 3,
            "eps": 1e-06,
        }
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--audit", "--out", str(out)]) == EXIT_OK
        assert _sha256_of_files(out) == {
            "audit.jsonl": "629b65df50999f0e2f74e780074938d1ac647cbc0bd928acda131f8a1dd55227",
            "report.json": "1bf1e1391a75799c6471a81f0cbf0d8c8e576d7cb335cb4722deebb52e425463",
            "trace.csv": "6f0d11323bcf213d104fc1957da9fd086913c452c631bc3275e92f27a014920a",
            "trace.json": "3df0bd93cc9fc67e2c3086bac2b010e29a98632fe86775ab5e8072b6ac2afb22",
        }

    def test_sweep_audit_of_a_wide_generic_and_a_named_separable_config(self, tmp_path):
        # n=256 with K=3 terms of degree 4 over v=3 variables, one negative
        # and slots at 0 and N-1; the separable entry is the sin config at n=128.
        x0 = [round(0.04 * math.cos(0.7 * i), 4) for i in range(256)]
        x0[0], x0[3], x0[17], x0[100], x0[200], x0[255] = 0.21, -0.17, 0.13, -0.19, 0.11, 0.23
        generic = _wide_generic_doc(256, [(0, 100, 255), (100, 17, 200), (255, 3, 17)], x0)
        separable = json.loads(SEPARABLE.read_text())
        separable["objective"]["n"] = 128
        write_config(tmp_path, generic, "generic.json")
        write_config(tmp_path, separable, "separable.json")
        sweep = write_config(tmp_path, {"configs": ["generic.json", "separable.json"]},
                             "sweep.json")
        out = tmp_path / "sweep"
        assert main(["run", "--sweep", str(sweep), "--audit", "--out", str(out)]) == EXIT_OK
        assert [p.name for p in sorted(out.iterdir())] == ["generic", "separable"]
        assert _sha256_of_files(out / "generic") == {
            "audit.jsonl": "9c43160c03e4da0b329acccfe02dec587c74ce372768a7360c7eb96018f2951a",
            "report.json": "16a1ce8f7cd87ae403b70ad17fb4ba6e3286a315d1a94592eaaae479cc17f93b",
            "trace.csv": "8a226b498877764029189fd167bbbb774e33e2412e8a1ec77301f6d2949e1060",
            "trace.json": "eeae29a42b38c84fad369c45278d0f9efdca2043e59e0d6fcbdaf9bc89bf0b99",
        }
        assert _sha256_of_files(out / "separable") == {
            "audit.jsonl": "82b18f9affb186999bcd42cc3f51e77c1350eb0993c152641a04548f09c010e4",
            "report.json": "6fb92155f96112ff2fddd5877069f77b0a112ef0d9d1669df8e6f1d73259b47a",
            "trace.csv": "a038e00cd8d3dca0791f700e69619709930ff5cddfc05f018bee4693f95c6915",
            "trace.json": "30e20fc7e5baf21557beff6d0bfe5620803f9af562aa7ebcf5815d478dd70bc6",
        }

    def test_generic_audit_run_padded_past_a_thousand_coordinates(self, tmp_path):
        # n=1500 pads to 2048, so every artifact holds arrays over a thousand long.
        x0 = [round(0.02 * math.sin(0.3 * i + 0.1), 4) for i in range(1500)]
        x0[0], x0[5], x0[31], x0[700], x0[1200], x0[1499] = 0.21, -0.17, 0.13, -0.19, 0.11, 0.23
        doc = _wide_generic_doc(1500, [(0, 700, 1499), (700, 31, 1200), (1499, 5, 31)], x0)
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--audit", "--out", str(out)]) == EXIT_OK
        assert _sha256_of_files(out) == {
            "audit.jsonl": "6fd0c826ee252f883b37544ccc6f5de17f7d8af6090021c8424d08046b7d843c",
            "report.json": "1915711666fd8a565ae46d2bd5f254c17787ed0db08f427f9379150f429d486b",
            "trace.csv": "1c9a51c6cf95a8d9df10643a472ac825e5c6c3eaf748e9f339f1ba414aebded8",
            "trace.json": "5cb4c0377b9f846953a263fbc7cdd09191c22c95059912da48db04b3d4a7f0da",
        }

    def test_compare_costs_defaults(self, tmp_path, capsys):
        out = tmp_path / "costs"
        assert main(["compare-costs", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == (out / "table.txt").read_text()
        assert _sha256_of_files(out) == {
            "costs.csv": "d217de7c8ad1fec1829d64e7cf6a12dafc5d941a6a60179fe38c1ba7130f04d4",
            "crossover.csv": "4044dc50346053768bc1a811333b6467691e4bd8c4d32848220946a7a4ed0c7e",
            "report.json": "5ace1696dae3ecfd39eb65f10d859c3606c415b155c06fc34c926c0ba0da185f",
            "table.txt": "65596c7d7c2a2fd041fb004a7b520c7365d888c05a8cbe4ce7018ad1ec0eaad9",
        }


class TestParseExperiment:
    def test_generic_roundtrip(self):
        cfg = parse_experiment(json.loads(QUADRATIC.read_text()))
        assert cfg.mode == "generic"
        assert cfg.objective.n == 2
        assert cfg.steps == 5
        assert cfg.audit

    def test_separable_roundtrip(self):
        cfg = parse_experiment(json.loads(SEPARABLE.read_text()))
        assert cfg.mode == "separable"
        assert cfg.objective.grad_bound == 1.0
        assert cfg.x0_spec == "uniform"


# JSON scalars, with the floats json writes in its own ways: signed zeros,
# subnormals, huge values and NaN.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, NAN]),
    st.text(max_size=8),
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=6),
    max_leaves=40,
)


class TestJsonText:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(JSON_DOCS)
    def test_matches_json_dumps_with_indent(self, doc):
        assert _json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {}, [], {"a": {}, "b": []}, [[], {}], {"x": [1, 2.5, -0.0, 5e-324, 1e300, True, None]},
        {"rows": [[0.1, 2], [3, NAN]], "nan": NAN, "nested": {"deep": {"list": [1, [2, [3.5]]]}}},
    ], ids=range(6))
    def test_matches_json_dumps_on_edge_cases(self, doc):
        text = _json_text(doc)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        if "nan" in doc:
            assert text.count("NaN") == 2
