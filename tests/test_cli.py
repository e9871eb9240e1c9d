import contextlib
import copy
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockgd import cli
from blockgd.chebyshev import DEGREE_CAP, MAX_EPS, NAMED_KINDS
from blockgd.cli import (
    COST_INT_RANGES,
    EXIT_INTERNAL,
    EXIT_OK,
    MAX_N,
    MAX_TERM_DEGREE,
    MAX_TRACE_ENTRIES,
    TRACE_BLOCK,
    _trace_csv,
    _trace_json,
    main,
    parse_experiment,
    run_experiment,
)
from blockgd.descent import COUNTERS, DescentTrace, initial_state_uniform, run_generic
from blockgd.errors import (
    DegreeCapExceeded,
    DomainExit,
    InfeasibleSchedule,
    InvalidErrorBudget,
    NormBoundViolated,
    PolyBoundViolated,
    SchemaError,
)
from blockgd.polyfunc import DOMAIN_TOL
from _audit_replay import replay

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

# Configs whose fields all pass but which fail a check run makes before its
# first step: an eta above 1/divisor (sup |P| = 2 > M makes the divisor about
# 4, and no step checks eta at T = 0), a named F' that no degree up to the cap
# approximates, and an x0 inside the box whose 2-norm is sqrt(2).
SIN_SCALE_2_DOC = {"mode": "separable", "objective": {
    "kind": "named", "name": "sin", "scale": 2.0, "n": 4, "M": 1.0},
    "x0": [0.1] * 4, "T": 3, "eps": 1e-6, "eta": 0.5}
GAUSSIAN_400_DOC = {"mode": "separable", "objective": {
    "kind": "named", "name": "gaussian", "scale": 400.0, "n": 4, "M": 1.0},
    "x0": [0.1] * 4, "T": 2, "eps": 1e-6, "eta": 0.1}
X0_NORM_DOC = {"mode": "generic", "objective": {
    "n": 8, "M": 1.0, "terms": [{"coeff": 0.1, "exponents": [1] + [0] * 7}]},
    "x0": [0.5] * 8, "T": 1, "eps": 1e-6}
PRE_STEP_DOCS = [
    pytest.param(SIN_SCALE_2_DOC, EXIT_SCHEMA, id="separable-eta-above-1/divisor"),
    pytest.param({**SIN_SCALE_2_DOC, "T": 0}, EXIT_SCHEMA, id="separable-eta-above-1/divisor-T0"),
    pytest.param(GAUSSIAN_400_DOC, EXIT_DEGREE, id="degree-cap"),
    # F' = 1e308 + 2e308*x: its coefficients overflow, so sup |P| is NaN.
    pytest.param({"mode": "separable", "objective": {
        "kind": "poly", "coeffs": [0, 1e308, 1e308], "n": 2, "M": 1.0},
        "x0": [0.1, 0.1], "T": 1, "eps": 1e-6, "eta": 0.1}, EXIT_DEGREE,
        id="poly-derivative-overflows"),
    # Objectives whose values or gradients overflow on the box: a run would
    # write Infinity into trace.json.
    pytest.param({"mode": "separable", "objective": {
        "kind": "poly", "coeffs": [1e308, 0, 0], "n": 2, "M": 1.0},
        "x0": [0.1, 0.1], "T": 1, "eps": 1e-6, "eta": 0.1}, EXIT_SCHEMA,
        id="separable-sum-overflows"),
    # F is finite on every grid node but overflows at x = 1/2, past the outermost
    # one: the closed box's two ends are read as well.
    pytest.param({"mode": "separable", "objective": {
        "kind": "poly", "coeffs": [4.49423278715579e307, 1e300], "n": 4, "M": 1.0},
        "x0": [0.5] * 4, "T": 0, "eps": 1e-6, "eta": 1e-301}, EXIT_SCHEMA,
        id="separable-value-overflows-at-the-box-edge"),
    pytest.param({"mode": "generic", "objective": {"n": 1, "M": 2.0, "terms": [
        {"coeff": 1.7976931348623157e308, "exponents": [3]}]},
        "x0": [0.1], "T": 0, "eps": 1e-3}, EXIT_SCHEMA, id="generic-gradient-bound-overflows"),
    pytest.param({"mode": "generic", "objective": {"n": 1, "M": 1e300, "terms": [
        {"coeff": 1e300, "exponents": [1]}, {"coeff": 1.7976931348623157e308, "exponents": [1]}]},
        "x0": [0.1], "T": 0, "eps": 1e-3}, EXIT_SCHEMA, id="generic-merged-coeff-overflows"),
    pytest.param(X0_NORM_DOC, EXIT_CONTRACT, id="x0-two-norm-above-1"),
]

# Uniform starts whose slack 1/2 - eta*M*T is exactly 1/2 with T >= 1: eta = 0
# (an all-constant generic objective), and an eta*M*T that 1/2 absorbs.
SATURATED_UNIFORM_DOCS = [
    pytest.param({"mode": "generic", "objective": {"n": 3, "M": 1.0, "terms": [
        {"coeff": 0.3, "exponents": [0, 0, 0]}]}, "x0": {"uniform_q": "auto"},
        "T": 2, "eps": 1e-3}, EXIT_OK, id="uniform-slack-half-eta-zero"),
    pytest.param({"mode": "separable", "objective": {
        "kind": "named", "name": "sin", "scale": 1.0, "n": 4, "M": 1.0},
        "x0": {"uniform_q": "auto"}, "T": 1, "eps": 1e-3, "eta": 1e-20},
        EXIT_OK, id="uniform-slack-half-eta-absorbed"),
]


# Uniform starts at exact saturation (max|x0| == 1/2 - eta*M*T) under F' = -1,
# which pushes every coordinate outward by exactly eta*M per step: the last
# step lands each coordinate on the closed bound 1/2.
EXACT_SATURATION_DOCS = [
    pytest.param({"mode": "separable", "objective": {"kind": "poly", "coeffs": [0, -1],
                                                     "n": 4, "M": 1.0},
                  "x0": {"uniform_q": "auto"}, "T": steps, "eps": 1e-6, "eta": eta},
                 id=f"eta-{eta}-T{steps}")
    for eta, steps in ((0.25, 1), (0.125, 2), (0.0625, 4))
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

    def test_sweep_entries_sharing_a_stem_fail_before_any_runs(self, tmp_path, capsys):
        for sub, source, extra in (("a", QUADRATIC, {}), ("b", SEPARABLE, {"format": "json"})):
            (tmp_path / sub).mkdir()
            write_config(tmp_path / sub, json.loads(source.read_text()) | extra, "q.json")
        sweep = write_config(tmp_path, {"configs": ["a/q.json", "b/q.json"]}, "sweep.json")
        out = tmp_path / "out"
        assert main(["run", "--sweep", str(sweep), "--out", str(out)]) == EXIT_SCHEMA
        assert "share the file stem 'q'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_with_sweep_is_schema_error(self, tmp_path):
        sweep = write_config(tmp_path, {"configs": [str(QUADRATIC)]}, "sweep.json")
        out = tmp_path / "out"
        args = ["run", "--config", str(SEPARABLE), "--sweep", str(sweep), "--out", str(out)]
        assert main(args) == EXIT_SCHEMA
        assert not out.exists()


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

    @pytest.mark.parametrize("name, scale, message", [
        ("exp", 1500.0, "is not finite"), ("gaussian", 1e160, "is not finite"),
        ("logistic", 2000.0, "no degree"),
    ])
    def test_overflowing_named_derivative_fails_with_one_line(self, tmp_path, capsys,
                                                              name, scale, message):
        doc = {"mode": "separable",
               "objective": {"kind": "named", "name": name, "scale": scale, "n": 2, "M": 1e6},
               "x0": [0.1, 0.1], "T": 1, "eps": 1e-3, "eta": 1e-7}
        path = write_config(tmp_path, doc)
        # A numpy RuntimeWarning would turn into an error and exit 1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DEGREE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and message in lines[0]

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
        assert err == ["error: x[0] = 0.7 lies outside [-1/2, 1/2]"] * 2

    @pytest.mark.parametrize("doc, code", PRE_STEP_DOCS)
    def test_pre_step_checks_fail_alike_in_both_commands(self, tmp_path, capsys, doc, code):
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["validate-config", "--config", str(path)]) == code
        assert main(["run", "--config", str(path), "--out", str(out)]) == code
        assert not out.exists()
        validate_err, run_err = capsys.readouterr().err.splitlines()
        assert validate_err == run_err

    @pytest.mark.parametrize("doc", EXACT_SATURATION_DOCS)
    def test_exact_saturation_runs_onto_the_closed_bound(self, tmp_path, doc):
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["validate-config", "--config", str(path)]) == EXIT_OK
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["norm_safety"] == {
            "max_abs_iterate": 0.5, "ok": True, "schedule_bound_ok": True}
        assert report["deviation"]["max"] == 0.0

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
        # eta * M * largest stays below 1/2, so the uniform start exists at the cap.
        doc["eta"] = 0.01
        assert parse_experiment(doc | {"T": largest}).run.steps == largest
        with pytest.raises(SchemaError, match=f"T: expected integer in \\[0, {largest}\\]"):
            parse_experiment(doc | {"T": largest + 1})

    def test_run_of_a_million_trace_entries_stays_within_its_memory_fence(self, tmp_path):
        # 2**20 trace entries (n = 2**14, T = 63): 8 MiB per column of the
        # engine's trace and the oracle's.  The process entry's own peak RSS
        # measured 76 MiB, so the fence of 128 MiB leaves 1.7x slack; writers
        # that held the whole text took 353 MiB.  It is read as VmHWM, which
        # belongs to the program's own memory map: ru_maxrss keeps, across
        # execve, the peak of the process it was forked from (here pytest).
        doc = _with(_with(SEPARABLE_DOC, ["objective", "n"], 2**14), ["x0"],
                    {"uniform_q": "auto"}) | {"T": 63, "eta": 0.005}
        argv = ["run", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")]
        code = f"""import sys
from blockgd.__main__ import entry
sys.argv[1:] = {argv!r}
code = entry()
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), proc.stderr
        assert int(proc.stdout) <= 128 * 1024  # KiB

    @pytest.mark.parametrize(
        "params, message",
        [({"eps": 0.9}, str(MAX_EPS)), ({"n": 10**30}, str(MAX_N)),
         ({"n": 2, "K": 3, "v": 1, "d": 1}, "probe family requires K <= n"),
         ({"d": 1, "v": 2}, "d = 1 cannot be below v = 2"),
         ({"n": 32, "K": 17}, "K: expected integer in [1, 16]")],
        ids=["eps", "n", "K-above-n", "d-below-v", "K-above-its-cap"],
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
        [(EPS_SUBNORMAL_DOC, "step 1: amplifying by"),
         (FACTOR_OVERFLOW_DOC, "step 1: |coeff * exponent| / M"),
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

    @pytest.mark.parametrize("doc, code",
                             UNDERFLOW_EDGE_DOCS + SEPARABLE_ETA_DOCS + SATURATED_UNIFORM_DOCS)
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

    def test_out_of_memory_in_the_engine_exits_2_naming_the_trace_entries(
            self, tmp_path, capsys, monkeypatch):
        def engine(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "run_generic", engine)
        out = tmp_path / "out"
        assert main(["run", "--config", str(QUADRATIC), "--out", str(out)]) == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            "error: out of memory: a run of n*(T+1) = 12 trace entries needs more memory "
            "than this process could allocate\n")
        assert not out.exists()

    @pytest.mark.parametrize("error", [MemoryError, partial(OSError, 28, "No space left")],
                             ids=["memory", "os"])
    @pytest.mark.parametrize("writer, name", [("_trace_json", "trace.json"),
                                              ("_trace_csv", "trace.csv")], ids=["json", "csv"])
    def test_a_write_that_fails_part_way_leaves_no_truncated_file(
            self, tmp_path, capsys, monkeypatch, error, writer, name):
        whole = tmp_path / "whole"
        assert main(["run", "--config", str(QUADRATIC), "--out", str(whole)]) == EXIT_OK
        pieces = getattr(cli, writer)

        def failing(trace):
            yield next(pieces(trace))
            raise error()

        monkeypatch.setattr(cli, writer, failing)
        out = tmp_path / "out"
        assert main(["run", "--config", str(QUADRATIC), "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / name}: " if error is not MemoryError
                              else "error: out of memory: a run of n*(T+1) = 12 trace entries")
        # The file that failed is gone; the ones written before it are whole.
        before = ["trace.json"] if name == "trace.csv" else []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            k: (whole / k).read_bytes() for k in before}

    def test_failed_run_leaves_no_output_directory(self, tmp_path):
        path = write_config(tmp_path, EPS_SUBNORMAL_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONTRACT
        assert not out.exists()


def _check_validate_config_and_run(tmp: Path, doc: dict) -> None:
    """validate-config exits where run would; after it passes, run fails only in its steps.

    Neither command exits 1; a non-zero validate-config code and message are
    run's, and run then writes nothing; after validate-config exits 0, run
    exits 0, 4, 5 or 7, never on the amplitude norm of x0; and run's exit 0
    writes every artifact with the deviation within its bound, byte-identical
    on a second run, as strict JSON (no NaN or Infinity).
    """
    path = write_config(tmp, doc)
    out = tmp / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        validate_code = main(["validate-config", "--config", str(path)])
        validate_err = err.getvalue()
        err.seek(0)
        err.truncate()
        run_code = main(["run", "--config", str(path), "--out", str(out)])
    assert EXIT_INTERNAL not in (validate_code, run_code), err.getvalue()
    if validate_code != EXIT_OK:
        assert (run_code, err.getvalue()) == (validate_code, validate_err)
        assert not out.exists()
    else:
        assert run_code in (EXIT_OK, EXIT_NORM, EXIT_POLY, EXIT_CONTRACT), err.getvalue()
        assert "amplitude vector norm" not in err.getvalue()
    if run_code == EXIT_OK:
        assert {"trace.json", "trace.csv", "report.json"} <= {p.name for p in out.iterdir()}
        docs = [(out / "trace.json").read_text(), (out / "report.json").read_text()]
        if (out / "audit.jsonl").exists():
            docs += (out / "audit.jsonl").read_text().splitlines()
        report = [json.loads(doc, parse_constant=reject_constant) for doc in docs][1]
        assert report["deviation"]["within_bound"]
        again = tmp / "again"
        assert main(["run", "--config", str(path), "--out", str(again)]) == EXIT_OK
        assert _sha256_of_files(again) == _sha256_of_files(out)


@pytest.mark.parametrize(
    "doc",
    [pytest.param({**GENERIC_DOC, **patch}, id=f"patch{i}")
     for i, patch in enumerate(BAD_FIELD_PATCHES)]
    + NON_FINITE_DOCS
    # exponent-huge is left to its subprocess test: without its cap, run loops.
    + [pytest.param(p.values[0], id=p.id) for p in LIMIT_DOCS + DEGREE_CAP_DOCS
       if p.id != "exponent-huge"]
    + RULE_DOCS
    + [pytest.param(GAUSSIAN_400_DOC, id="degree-cap"),
       pytest.param(X0_NORM_DOC, id="x0-two-norm-above-1")],
)
def test_validate_config_agrees_with_run(tmp_path, doc):
    """validate-config fails exactly where run fails before its first step."""
    _check_validate_config_and_run(tmp_path, doc)


# The run schema's edge values for the exit-code property below: each limit
# and one past it, signed zeros, subnormals, huge values, and damage.
ABOVE = partial(math.nextafter, math.inf)
DROP = object()


def _pinned_eta(objective: dict) -> float:
    k = sum(1 for t in objective["terms"] if any(t["exponents"]))
    return 1.0 / (2.0 * objective["M"] * k) if k else 0.0


@st.composite
def run_docs(draw):
    """A run config drawn from the schema's edge values, with at most one field broken."""
    pick = lambda values: draw(st.sampled_from(values))  # noqa: E731
    mode, n = pick(["generic", "separable"]), draw(st.integers(1, 4))
    m_bound = pick([1.0, 0.5, 2.0, 1e-300, 5e-324, 1e300])
    coeff = st.sampled_from([0.3, -0.7, 1.0, 0.0, -0.0, 5e-324, 1e-310, 1e300])
    edges = [(["T"], MAX_TRACE_ENTRIES // n), (["T"], -1), (["T"], 1.5), (["T"], True),
             (["eps"], ABOVE(MAX_EPS)), (["eps"], 0.0), (["eps"], -0.0), (["eps"], 1.0),
             (["eps"], 1e300), (["eps"], DROP), (["objective", "M"], 0.0),
             (["objective", "M"], DROP), (["objective", "n"], "2"), (["x0"], [0.1] * (n + 1)),
             (["x0"], [ABOVE(0.5 + DOMAIN_TOL)] * n), (["x0"], [1e300] * n), (["x0"], 0.1),
             (["x0"], {"uniform_q": "auto", "q": 3}), (["audit"], 1), (["out"], 5),
             (["format"], "xml"), (["mode"], "other"), (["extra"], 0),
             (["objective", "extra"], 0)]
    if mode == "generic":
        terms = draw(st.lists(st.fixed_dictionaries({
            "coeff": coeff,
            "exponents": st.lists(st.integers(0, 2), min_size=n, max_size=n)}),
            min_size=1, max_size=3))
        objective = {"n": n, "M": m_bound, "terms": terms}
        pinned = _pinned_eta(objective)
        etas = [DROP, pinned]
        edges += [(["objective", "terms", 0, "exponents"], [degree] + [0] * (n - 1))
                  for degree in (MAX_TERM_DEGREE, MAX_TERM_DEGREE + 1)]
        edges += [(["eta"], pinned * (1 + 1e-6) + 1e-8), (["objective", "terms"], [])]
    else:
        if draw(st.booleans()):
            func = {"kind": "named", "name": pick(NAMED_KINDS),
                    "scale": pick([0.5, 1.0, 2.0, 50.0, 5e-324, 0.0, -1.0, 1e300])}
        else:
            func = {"kind": "poly", "coeffs": draw(st.lists(coeff, min_size=1, max_size=3))}
            # DEGREE_CAP + 2 coefficients, the most a poly may have, and one more.
            edges += [(["objective", "coeffs"], [0.0] * length + [0.3])
                      for length in (DEGREE_CAP + 1, DEGREE_CAP + 2)]
        objective = {**func, "n": n, "M": m_bound}
        limit = 1.0 / (2.0 * m_bound)
        etas = [limit, limit / 3, 1e-20, 5e-324]
        edges += [(["eta"], 0.0), (["eta"], ABOVE(limit)), (["eta"], DROP)]
    doc = {"mode": mode, "objective": objective,
           "x0": {"uniform_q": "auto"} if draw(st.booleans())
           else draw(st.lists(st.sampled_from([0.1, -0.2, 0.25, 0.0, -0.0, 5e-324, 0.5, -0.5]),
                              min_size=n, max_size=n)),
           "T": pick([0, 1, 2, 3, 13, 14]), "eps": pick([1e-6, 1e-3, MAX_EPS, 1e-320]),
           "eta": pick(etas), "audit": pick([DROP, False, True]), "out": pick([DROP, "elsewhere"]),
           "format": pick([DROP, "both"])}
    # Half the docs keep every field in the schema; the rest break one.
    edge = pick([None] * len(edges) + edges)
    if edge:
        node = doc
        for key in edge[0][:-1]:
            node = node[key]
        node[edge[0][-1]] = edge[1]
    return {k: v for k, v in doc.items() if v is not DROP} | {
        "objective": {k: v for k, v in doc["objective"].items() if v is not DROP}}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(run_docs())
@example(SIN_SCALE_2_DOC)
@example({**SIN_SCALE_2_DOC, "T": 0})
@example(GAUSSIAN_400_DOC)
@example(X0_NORM_DOC)
def test_exit_codes_of_validate_config_and_run(doc):
    """Both commands run in-process on each drawn config (see _check_validate_config_and_run)."""
    with tempfile.TemporaryDirectory() as tmp:
        _check_validate_config_and_run(Path(tmp), doc)


# compare-costs edge values for the property below: each integer's limits and
# one past each, a bool and an integral float, and eps at its edges (n is
# drawn apart, up to 64; its upper limit is an example).
COST_EDGES = {key: [low, high, low - 1, high + 1, True, float(high)]
              for key, (low, high) in COST_INT_RANGES.items() if key != "n"}
COST_EDGES["eps"] = [5e-324, 1e-320, 1e-6, MAX_EPS, ABOVE(MAX_EPS), 0.0]


@st.composite
def cost_docs(draw):
    """A compare-costs document of up to three edge fields, sometimes no object or an unknown key."""
    doc = {"n": draw(st.integers(0, 64))}
    for key in draw(st.lists(st.sampled_from(sorted(COST_EDGES)), max_size=3, unique=True)):
        doc[key] = draw(st.sampled_from(COST_EDGES[key]))
    damage = draw(st.sampled_from([None] * 8 + ["not-an-object", "unknown-key"]))
    return [doc] if damage == "not-an-object" else doc | {"bogus": 1} if damage else doc


@settings(derandomize=True, deadline=None, max_examples=80)
@given(cost_docs())
@example({"n": MAX_N})
@example({"n": MAX_N + 1})
@example({"n": 2, "K": 3})
@example({"d": 1, "v": 2})
def test_exit_codes_of_compare_costs(doc):
    """compare-costs exits 0, 2 or 7 and never 1; exit 0 writes all four artifacts,
    and exit 7 is only an amplification whose repetition count overflows."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), doc, "params.json")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["compare-costs", "--params", str(path), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_CONTRACT), err.getvalue()
        if code == EXIT_OK:
            assert {p.name for p in out.iterdir()} == {
                "costs.csv", "crossover.csv", "report.json", "table.txt"}
        assert (code == EXIT_CONTRACT) == ("takes inf repetitions" in err.getvalue())


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


# The artifacts of `run --config configs/quadratic.json --audit`.
QUADRATIC_AUDIT_DIGESTS = {
    "audit.jsonl": "ec9e06f49c28286620c056728ce248b96b1b91a1d75f5c7c91a4a870e321d902",
    "report.json": "75e3fc24fba31ae47df2a833e36eaf413525b0da67c7d8acf0966fd07d99a398",
    "trace.csv": "ad489119d77848f2ddb165b319947a0583e681074ba606f6587a9ab61c283b84",
    "trace.json": "9e77bb696f77c4e77256b260b9224f52742247f0052f9898917f4501153f81a9",
}


class TestGoldenArtifacts:
    """SHA-256 of every artifact of ten commands (Python 3.11, numpy 2.4).

    A changed digest means a changed output byte; update it only on purpose.
    Every audit.jsonl written here also replays: its ledger follows from its
    records alone (tests/_audit_replay.py).

    Last re-pinned when the second ancilla count, ancilla_high_water, left
    every summary and counter list: each re-pinned audit.jsonl, trace.json
    and report.json (here and in TestProcessEntry) was checked to equal the
    previous file with that key removed and re-dumped as the writer dumps
    it; every trace.csv and compare-costs digest stayed as it was.
    """

    def test_quadratic_audit_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--config", str(QUADRATIC), "--audit", "--out", str(out)]) == EXIT_OK
        assert _sha256_of_files(out) == QUADRATIC_AUDIT_DIGESTS
        assert replay((out / "audit.jsonl").read_text()) is None

    @pytest.mark.parametrize("config, digests", [
        (QUADRATIC, {
            "audit.jsonl": "d744a93f6f5db230d37b8c685e5c87201b05a73eb6902887326a9fd1d2d1897a",
            "report.json": "29c6e496f927aded2827c8f29ff9ca4054b6b88f7c0d361471e8010bc8d630ff",
            "trace.csv": "389454505f509565f52c84b2df60a6ecc7b7ac18b4c22892885bce6d794ff9dd",
            "trace.json": "46c95c5d4455e937ccc45249670181ba9761d6e844c06aa2d1590690b30e8a47",
        }),
        (SEPARABLE, {
            "audit.jsonl": "e02ee2cdc54f1ac62a6364747994229868b764fc900067db2dcf544406dd621f",
            "report.json": "af43996ff82d4dbb90853ed2625695695857333f92f8c28a760d4644c90705ed",
            "trace.csv": "a192438fabef515aa8ac3d02532e6202b165bd0c8c921c0fcb5ad9ae1c64392c",
            "trace.json": "ddd17dce70eee79b15d20a623ca2f4fc6e21e786a85d30ed51d0760c2bb0772f",
        }),
    ], ids=["generic", "separable"])
    def test_zero_step_audit_run(self, tmp_path, config, digests):
        # At T=0 the report's deviation bound 16*T*eps is 0, not 16*eps.
        path = write_config(tmp_path, json.loads(config.read_text()) | {"T": 0})
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--audit", "--out", str(out)]) == EXIT_OK
        assert _sha256_of_files(out) == digests
        assert replay((out / "audit.jsonl").read_text()) is None

    def test_quadratic_audit_run_past_int64_counters(self, tmp_path):
        # At T=200 the counters pass 10^97, far beyond 2^63: only Python ints
        # carry them to the artifacts unchanged.
        path = write_config(tmp_path, QUADRATIC_DOC | {"T": 200})
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert _sha256_of_files(out) == {
            "audit.jsonl": "c5de1ea0affdcae4eb75c743f8d451a39fb16834b1a4a3eb5e46b1f74df65fbd",
            "report.json": "e19f02975c742b03e296e24e832a2a66651804d5b6dd0abb37c28c4db3d6d2c4",
            "trace.csv": "ecf78b8d59cfa6398bec2b8dd4ea0d7a9cb0b2cc082ce25d15fd9dc5b3629af5",
            "trace.json": "3ff4c0a5d2a0aa2c566db3e49dd73bf46b8c0a67b709dc78405b028e71d5ae8a",
        }
        assert replay((out / "audit.jsonl").read_text()) is None
        final = json.loads((out / "report.json").read_text())["resources"]["final"]
        assert final["queries"] > 10**97

    def test_separable_audit_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--config", str(SEPARABLE), "--audit", "--out", str(out)]) == EXIT_OK
        assert _sha256_of_files(out) == {
            "audit.jsonl": "e48203c11148d9ee23e236b4099e4ad432db016e2a19016df14f10d855316f12",
            "report.json": "05c8af7472db33c16c92ffc2765674922c9143772e5f24b05516101d3595d20c",
            "trace.csv": "8a946611af98ff383f93e9f4a10f24b6b023205e4971fe77943e4cc20ee04289",
            "trace.json": "ccbfb4b1c300f31a3c0016ab65a3d0f334dfed7439d10c12e1beb21b9332c96a",
        }
        assert replay((out / "audit.jsonl").read_text()) is None

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
            "audit.jsonl": "d2796f8a66ef01e1e3f88ba3d78ee9aeffeb8fc2a71d4e5f1485898314403384",
            "report.json": "71eeca9dbf5d14870bc1f0b725a4dc5eb73a866c069f7f4629451608a9d1f518",
            "trace.csv": "4c7aaca46a58040a1cc0d969b6c3125bfe6a36877d728421e070727d51e61c7b",
            "trace.json": "7c5e0e5837f4d2e0090f2e1e003c46e96520381ef8da3fb6830963cb3d7c7fef",
        }
        assert replay((out / "audit.jsonl").read_text()) is None

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
            "audit.jsonl": "9e21e5238c9bcc171fe4ce937e9400250bd1f2a212ce662cf3445b1cac15d65e",
            "report.json": "c9a1d8adb3ff60bce7b0be7ff2019abff8dc7b8704d91ab52cd07d2c24f11798",
            "trace.csv": "6f0d11323bcf213d104fc1957da9fd086913c452c631bc3275e92f27a014920a",
            "trace.json": "abee9d34dda5bf9e278a45ee1b90fe815dc573a2f78475994baab06219b3c0af",
        }
        assert replay((out / "audit.jsonl").read_text()) is None

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
            "audit.jsonl": "7b04b4e17e4070b6657e07bb7c392a99bb9aa5cb0df6a07ef275edb12200c1d6",
            "report.json": "b978515a7f8afc990887a52cdc0976ffd57f4e7a1c76c8c1a99f6e872cf8e553",
            "trace.csv": "8a226b498877764029189fd167bbbb774e33e2412e8a1ec77301f6d2949e1060",
            "trace.json": "7bb9722f8a59584dd878a4fe656e93bebc303aa8c2e68f27a4265032340c4054",
        }
        assert replay((out / "generic" / "audit.jsonl").read_text()) is None
        assert _sha256_of_files(out / "separable") == {
            "audit.jsonl": "678a2dc65c6b42083c37d72bcb1fd6433ffd2ee8397504d8fa5f7823cbf22fb8",
            "report.json": "1ee5ec387a93449d23b0f7bb6c0f2cba1a0d4bf8bd50df22a272966d976be112",
            "trace.csv": "a038e00cd8d3dca0791f700e69619709930ff5cddfc05f018bee4693f95c6915",
            "trace.json": "335b8d9b1dd2386842e56f2a437010fb92afbe0e8925e2fb643a3beb15d9c1db",
        }
        assert replay((out / "separable" / "audit.jsonl").read_text()) is None

    def test_generic_audit_run_padded_past_a_thousand_coordinates(self, tmp_path):
        # n=1500 pads to 2048, so every artifact holds arrays over a thousand long.
        x0 = [round(0.02 * math.sin(0.3 * i + 0.1), 4) for i in range(1500)]
        x0[0], x0[5], x0[31], x0[700], x0[1200], x0[1499] = 0.21, -0.17, 0.13, -0.19, 0.11, 0.23
        doc = _wide_generic_doc(1500, [(0, 700, 1499), (700, 31, 1200), (1499, 5, 31)], x0)
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--audit", "--out", str(out)]) == EXIT_OK
        assert _sha256_of_files(out) == {
            "audit.jsonl": "ffbc44860195141f11c201e27440f2624df0f7c01a2e93c156ec73f1d32da10d",
            "report.json": "d3e3d3e0aa674fa52696b64aefcf324dcfab027816b17ef26d5f14f11a62b2f6",
            "trace.csv": "1c9a51c6cf95a8d9df10643a472ac825e5c6c3eaf748e9f339f1ba414aebded8",
            "trace.json": "9396b4ced1458f49ea4a736d081cfbd89af6ff37d2a3f13f5c08b3dd8e9ab2e3",
        }
        assert replay((out / "audit.jsonl").read_text()) is None

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
        assert cfg.run.mode == "generic"
        assert cfg.objective.n == 2
        assert cfg.run.steps == 5
        assert cfg.audit

    def test_separable_roundtrip(self):
        cfg = parse_experiment(json.loads(SEPARABLE.read_text()))
        assert cfg.run.mode == "separable"
        assert cfg.objective.grad_bound == 1.0
        assert np.array_equal(cfg.x0, initial_state_uniform(0.1, 1.0, 3, 8))


def _trace_of(rows, grads, f_values=None, eps_budgets=None, poly=False) -> DescentTrace:
    """A DescentTrace holding the given columns, with the separable fields when poly."""
    steps = len(rows) - 1
    return DescentTrace(
        mode="separable" if poly else "generic", n=len(rows[0]), eta=0.125, eps=1e-6,
        steps=steps, grad_bound=1.0, probability=0.25, schedule_bound_ok=True,
        norm_safety_ok=True, rows=np.array(rows, dtype=float),
        gradients=np.array(grads, dtype=float),
        f_values=f_values or [0.5 - 0.1 * t for t in range(steps + 1)],
        eps_budgets=eps_budgets or [1e-6 * t for t in range(steps + 1)],
        counters=[(t, 3 * t, 2**70 * t) for t in range(steps + 1)],
        poly_degree=7 if poly else None, poly_sup_error=2.5e-9 if poly else None,
    )


# Iterate entries: signed zeros, the least subnormal and values drawn again
# and again; gradients add the extremes of the finite range a run reaches.
ROW_POOL = [0.0, -0.0, 5e-324, 0.1, -0.25, 0.3333333333333333, -1e-300]
GRADIENT_POOL = ROW_POOL + [-5e-324, 1e300, -1.7976931348623157e308]


@st.composite
def drawn_traces(draw):
    n, steps = draw(st.integers(1, 32)), draw(st.integers(0, 4))
    size = (steps + 1) * n
    rows, grads = (np.reshape(draw(st.lists(st.sampled_from(pool), min_size=size,
                                            max_size=size)), (steps + 1, n))
                   for pool in (ROW_POOL, GRADIENT_POOL))
    f_values, eps_budgets = (draw(st.lists(st.sampled_from(pool), min_size=steps + 1,
                                           max_size=steps + 1))
                             for pool in (GRADIENT_POOL, ROW_POOL))
    return _trace_of(rows.tolist(), grads.tolist(), f_values, eps_budgets, draw(st.booleans()))


def _check_writers(trace: DescentTrace) -> None:
    """_trace_json and _trace_csv write what json.dumps and repr write for trace."""
    # The trace.json document as it was built from trace.records.
    ref = {
        "mode": trace.mode, "n": trace.n, "eta": trace.eta, "eps": trace.eps,
        "T": trace.steps, "grad_bound": trace.grad_bound, "probability": trace.probability,
        "schedule_bound_ok": trace.schedule_bound_ok, "norm_safety_ok": trace.norm_safety_ok,
        "iterations": [
            {"t": r.t, "x": r.x, "f": r.f_value, "gradient": r.gradient,
             "eps_budget": r.eps_budget, **{k: getattr(r, k) for k in COUNTERS}}
            for r in trace.records
        ],
    }
    if trace.poly_degree is not None:
        ref |= {"poly_degree": trace.poly_degree, "poly_sup_error": trace.poly_sup_error}
    assert "".join(_trace_json(trace)) == json.dumps(ref, sort_keys=True, indent=2) + "\n"
    lines = ["t," + ",".join(f"x{i}" for i in range(trace.n))]
    lines += [f"{t}," + ",".join(map(repr, x)) for t, x in enumerate(trace.rows.tolist())]
    assert "".join(_trace_csv(trace)) == "\n".join(lines) + "\n"


class TestTraceWriters:
    """Each block's distinct numbers are formatted once, and the texts are json's and repr's."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(drawn_traces())
    @example(_trace_of([[-0.0, 0.0, 0.1], [0.0, -0.0, 0.1]], [[0.0, -0.0, 1e300], [-0.0, 0.0, 0.0]]))
    def test_writers_match_json_dumps_and_repr(self, trace):
        _check_writers(trace)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(drawn_traces(), st.integers(1, 64))
    def test_writers_match_across_block_boundaries(self, trace, block):
        # A block of block // n rows (at least one), so a trace spans up to five blocks.
        with mock.patch.object(cli, "TRACE_BLOCK", block):
            _check_writers(trace)

    def test_formatting_calls_count_distinct_numbers_at_every_n(self, monkeypatch):
        # A constant start changes only the coordinates in the terms' supports
        # (6 of them here), so each block holds the same few values at every n.
        # Each block formats its distinct floats (of the iterates, gradients,
        # f values and budgets), each once.
        calls = []
        monkeypatch.setattr(cli, "repr", lambda v: calls.append(v) or repr(v), raising=False)
        counts = {}
        for n in (2**10, 2**14):
            doc = _wide_generic_doc(n, [(0, 100, n - 1), (100, 17, 200), (n - 1, 3, 17)],
                                    [2.0**-8] * n)
            cfg = parse_experiment(doc)
            trace = run_generic(cfg.objective, cfg.x0, cfg.run)
            columns = (trace.rows, trace.gradients, trace.f_values, trace.eps_budgets)
            for block in (TRACE_BLOCK, 2**10):
                monkeypatch.setattr(cli, "TRACE_BLOCK", block)
                calls.clear()
                assert "".join(_trace_json(trace)).count('"t": ') == trace.steps + 1
                size = max(1, block // n)
                assert len(calls) == sum(
                    len(set(np.concatenate([np.ravel(c[t:t + size]) for c in columns])
                            .view(np.int64).tolist()))
                    for t in range(0, trace.steps + 1, size))
                counts[block, n] = len(calls)
        # measured: one block of 4 rows makes 51 calls, four blocks of 1 row 57.
        assert counts == {(TRACE_BLOCK, 2**10): 51, (TRACE_BLOCK, 2**14): 51,
                          (2**10, 2**10): 57, (2**10, 2**14): 57}


def _blockgd(*args, cwd):
    """Run `python -m blockgd ARGS` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-m", "blockgd", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestProcessEntry:
    """`python -m blockgd` freezes the import graph and then runs main, with the same outputs."""

    def test_compare_costs_prints_the_table_through_exit(self, tmp_path):
        out = tmp_path / "costs"
        proc = _blockgd("compare-costs", "--params", str(COSTS), "--out", str(out), cwd=tmp_path)
        assert proc.returncode == EXIT_OK and proc.stderr == ""
        assert proc.stdout == (out / "table.txt").read_text()

    def test_audit_run_writes_the_golden_artifacts(self, tmp_path):
        out = tmp_path / "run"
        proc = _blockgd("run", "--config", str(QUADRATIC), "--audit", "--out", str(out),
                        cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "", "")
        assert _sha256_of_files(out) == QUADRATIC_AUDIT_DIGESTS

    def test_schema_error_exits_2_with_its_line(self, tmp_path):
        path = write_config(tmp_path, {"mode": "generic"})
        proc = _blockgd("run", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == EXIT_SCHEMA
        assert proc.stderr == "error: $: missing required key 'objective'\n"
        assert not (tmp_path / "out").exists()

    def test_entry_freezes_and_the_console_script_uses_it(self, tmp_path):
        code = ("import gc, sys\nfrom blockgd.__main__ import entry\n"
                f"sys.argv[1:] = ['validate-config', '--config', {str(QUADRATIC)!r}]\n"
                "assert gc.get_freeze_count() == 0\nassert entry() == 0\n"
                "print(gc.get_freeze_count() > 0)")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True"
        pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^blockgd = "blockgd\.__main__:entry"$', pyproject, re.M)

    def test_importing_the_package_leaves_the_cli_unloaded(self, tmp_path):
        # A library process pays for no document layer: blockgd.cli loads on demand.
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, blockgd\nprint('blockgd.cli' in sys.modules)"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_main_in_process_does_not_freeze(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["run", "--config", str(QUADRATIC), "--out", str(tmp_path / "run")]) == EXIT_OK
        assert gc.get_freeze_count() == before
