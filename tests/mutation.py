"""Mutation check: do the named tests kill each one-line mutant of src/?

Run from anywhere, with pytest installed:

    python3 tests/mutation.py            # every row of MUTANTS
    python3 tests/mutation.py NAME ...   # only the named rows

Each row of MUTANTS gives a file under src/blockgd, the exact text to
replace (it must occur exactly once there, which tests/test_mutation_table.py
checks), the mutant text, the test ids expected to kill the mutant, and, for
a known survivor, the reason no test can kill it yet.  For each row the
script copies src/, tests/ and the files the tests read into a temporary
directory, applies the mutant there, runs the named ids with pytest, and
prints "killed" or "survived".  It exits 1 when a row's outcome is not the
expected one.  The checkout itself is never modified.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/blockgd
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    survives: str | None = None  # why no test kills it yet, for a known survivor


BLOCKCALC = "tests/test_blockcalc.py"
CLI = "tests/test_cli.py"
DESCENT = "tests/test_descent.py"
GOLDEN = f"{CLI}::TestGoldenArtifacts"
REPLAY = "tests/test_bench_api.py::test_cli_audit_sweep_replays"

MUTANTS = (
    Mutant("norm_tol", "blockcalc.py", "NORM_TOL = 1e-10", "NORM_TOL = 1e-6",
           (f"{BLOCKCALC}::TestBlockEncodingType::test_norm_tolerance_forgives_rounding_only",)),
    Mutant("qsvt_sup_cap", "blockcalc.py", "if not sup <= 0.5 + NORM_TOL:", "if not sup <= 0.6:",
           (f"{BLOCKCALC}::TestQsvtTransform::test_poly_bound_is_tight_above_half",)),
    Mutant("qsvt_sup_nan", "blockcalc.py", "if not sup <= 0.5 + NORM_TOL:",
           "if sup > 0.5 + NORM_TOL:",
           (f"{BLOCKCALC}::TestQsvtTransform::test_nan_polynomial_violates_the_cap",)),
    Mutant("lcu_sign_index", "blockcalc.py", "list(map(operator.index, signs))",
           "list(map(int, signs))", (f"{BLOCKCALC}::test_argument_errors_name_their_rule",)),
    Mutant("poly_derivative_finite", "chebyshev.py",
           "return _finite(ChebyshevPoly(tuple(coeffs), 0.0), func)",
           "return ChebyshevPoly(tuple(coeffs), 0.0)",
           (f"{CLI}::TestValidateConfig::test_pre_step_checks_fail_alike_in_both_commands",)),
    Mutant("scale_down_eps", "blockcalc.py", "enc.alpha, enc.eps / p,", "enc.alpha, enc.eps,",
           (f"{GOLDEN}::test_generic_audit_run_padded_with_linear_and_pair_terms",)),
    Mutant("lcu_eps", "blockcalc.py", "eps += e.eps", "eps = max(eps, e.eps)",
           (f"{BLOCKCALC}::TestLcu::test_eps_averaged_and_queries_counted",)),
    Mutant("qsvt_eps", "blockcalc.py", "4.0 * d * math.sqrt(enc.eps / enc.alpha)",
           "2.0 * d * math.sqrt(enc.eps / enc.alpha)",
           (f"{BLOCKCALC}::TestQsvtTransform::test_eps_formula",)),
    Mutant("amplify_eps", "blockcalc.py", "gamma * enc.eps + eps_target * boosted_norm",
           "enc.eps + eps_target * boosted_norm",
           (f"{GOLDEN}::test_quadratic_audit_run",)),
    Mutant("chebyshev_trim", "chebyshev.py", "eps / (10.0 * degree))", "eps / degree)",
           ("tests/test_chebyshev.py::TestApproxDerivative::test_trim_threshold_sets_the_degree",)),
    Mutant("schedule_two_norm", "descent.py",
           "bool(float(np.abs(vec).max()) <= radius", "bool(float(np.linalg.norm(vec)) <= radius",
           (f"{GOLDEN}::test_separable_audit_run",
            f"{DESCENT}::TestRunSeparable::test_schedule_flag_is_the_max_norm_bound")),
    Mutant("amplify_bound_closed", "blockcalc.py", "if not boosted_norm <= 1.0 - AMP_MARGIN:",
           "if not boosted_norm < 1.0 - AMP_MARGIN:",
           (f"{BLOCKCALC}::TestAmplify::test_norm_bound_is_closed",
            f"{CLI}::TestValidateConfig::test_exact_saturation_runs_onto_the_closed_bound")),
    Mutant("qsvt_divisor_margin", "descent.py", "2.0 * poly.grid_sup * (1.0 + 1e-12)",
           "2.0 * poly.grid_sup", (f"{GOLDEN}::test_separable_audit_run",),
           survives="equivalent while rounding stays below NORM_TOL: without the margin the "
                    "scaled sup is 1/2 to about 1e-16, and the cap forgives 1e-10"),
    Mutant("report_zero_step_bound", "cli.py", "bound = 16.0 * trace.steps * trace.eps",
           "bound = 16.0 * max(trace.steps, 1) * trace.eps",
           (f"{GOLDEN}::test_zero_step_audit_run",)),
    Mutant("report_matches_tolerance", "cli.py",
           "abs(trace.probability - expected_prob) <= 1e-10",
           "abs(trace.probability - expected_prob) <= 1e-3", (GOLDEN,),
           survives="every run realizes its corners exactly, so the two probabilities "
                    "agree to rounding; a perturbed realization (ROADMAP item 3) can split them"),
    Mutant("check_point_box_bound", "polyfunc.py", "np.abs(x) <= HALF + DOMAIN_TOL",
           "np.abs(x) <= HALF + 0.25",
           ("tests/test_polyfunc.py::TestEvaluate::test_domain_violation_names_the_first_coordinate_outside",
            f"{CLI}::TestValidateConfig::test_x0_outside_the_box_fails_in_both_commands")),
    Mutant("monomial_sign_check", "polyfunc.py", "if min(exps, default=0) < 0:",
           "if min(exps, default=0) < -1:",
           ("tests/test_polyfunc.py::TestConstruction::test_negative_exponent_rejected",)),
    Mutant("monomial_first_bad_index", "polyfunc.py", "enumerate(exps) if e < 0)",
           "enumerate(exps) if e <= 0)",
           ("tests/test_polyfunc.py::TestConstruction::test_error_names_the_first_bad_exponent_only",)),
    Mutant("int_coercion", "polyfunc.py", "return operator.index(value)", "return value",
           (f"{DESCENT}::TestDescentConfigValidation::"
            "test_integer_arguments_are_coerced_by_operator_index",)),
    Mutant("norm_safety_flag", "descent.py", "norm_safety_ok=first_outside_box(rows) is None",
           "norm_safety_ok=True", (GOLDEN, f"{DESCENT}::TestTraceShape"),
           survives="x0 passed check_point and every later iterate passed amplify's "
                    "bound max|x_i| <= 1/2, so no row of a finished run lies outside the box"),
    Mutant("check_int_rejects_bool", "cli.py",
           "isinstance(value, int) and not isinstance(value, bool) and low <= value",
           "isinstance(value, int) and low <= value",
           (f"{CLI}::TestNonFiniteNumbers::test_compare_costs_params_typed",)),
    Mutant("trace_cap", "cli.py", "MAX_TRACE_ENTRIES // objective.n - 1)",
           "MAX_TRACE_ENTRIES // objective.n)",
           (f"{CLI}::TestInputLimits::test_trace_cap_is_inclusive",)),
    Mutant("cost_cap_k", "cli.py", '"K": (1, 16)', '"K": (1, 17)',
           (f"{CLI}::TestInputLimits::test_compare_costs_rejects_with_schema_exit",)),
    Mutant("poly_coeff_cap", "cli.py", "DEGREE_CAP + 2)", "DEGREE_CAP + 3)",
           ("tests/test_chebyshev.py::TestScalarFunctionSchema::test_schema_errors",)),
    Mutant("slot_id_signed_zero", "blockcalc.py", "parts += (value.real + 0.0, value.imag + 0.0)",
           "parts += (value.real, value.imag)",
           (f"{BLOCKCALC}::TestSlotMapIds::test_id_is_the_digest_of_the_vector",)),
    Mutant("writer_bits_key", "cli.py", "np.unique(values.view(np.int64), return_inverse=True)",
           "np.unique(values, return_inverse=True)",
           (f"{CLI}::TestTraceWriters::test_writers_match_json_dumps_and_repr",)),
    Mutant("box_check_flags_nan", "polyfunc.py", "~(np.abs(x) <= HALF + DOMAIN_TOL)",
           "np.abs(x) > HALF + DOMAIN_TOL",
           (f"{DESCENT}::TestBoxChecks::test_nan_coordinates_lie_outside_the_box",)),
    Mutant("chebyshev_positive_zero", "chebyshev.py", "float(c) + 0.0 for c in self.coeffs",
           "float(c) for c in self.coeffs",
           ("tests/test_chebyshev.py::TestApproxDerivative::"
            "test_signed_zero_coefficients_give_one_polynomial",)),
    Mutant("separable_insert_factor", "descent.py", "p >= 1.0 - DOMAIN_TOL", "p >= 0.5",
           (f"{DESCENT}::TestRunSeparable::test_step_size_rule",
            f"{CLI}::TestValidateConfig::test_pre_step_checks_fail_alike_in_both_commands")),
    Mutant("parse_amplitude_norm", "cli.py", "    check_amplitudes(x0)", "    x0 = x0",
           (f"{CLI}::TestValidateConfig::test_pre_step_checks_fail_alike_in_both_commands",)),
    # Each primitive's own charge (depth, queries, ancillas): the cli_audit
    # sweep's replay recomputes every charge from the audit records.
    *(Mutant(f"charge_{op}", "blockcalc.py", old, new, (REPLAY,)) for op, old, new in (
        ("diag_encode", "(), log_n, 0, log_n + 3)", "(), log_n, 0, log_n + 2)"),
        ("entry_project", "log_n, 2, log_n + 3,", "log_n, 1, log_n + 3,"),
        ("product", "[a, b], 0, 2, 0,", "[a, b], 1, 2, 0,"),
        ("lcu", "0, m, (m - 1).bit_length(),", "0, m, m.bit_length(),"),
        ("scale_down", "[enc], 1, 0, 1)", "[enc], 1, 0, 0)"),
        ("amplify", "[enc], m, m, 1,", "[enc], m, m, 2,"),
        ("qsvt_transform", "[enc], d, d, 2,", "[enc], d, d + 1, 2,"),
    )),
    # The ledger rule of _encoding, one counter at a time: an output's count is
    # its own charge plus the sum over its operand positions.
    *(Mutant(f"ledger_sum_{name}", "blockcalc.py", f"{var} += e.{name}", f"{var} += 0", (REPLAY,))
      for var, name in (("depth", "depth_units"), ("queries", "queries"),
                        ("ancillas", "ancillas"))),
    Mutant("charge_projector_encode", "blockcalc.py", "(), 1, 0, log_n)", "(), 1, 0, log_n + 1)",
           (GOLDEN, BLOCKCALC)),
    Mutant("objective_size_index", "polyfunc.py", 'n = as_index(objective.n, "n")',
           "n = int(objective.n)",
           ("tests/test_polyfunc.py::TestConstruction::test_size_is_coerced_by_operator_index",)),
    Mutant("eta_generic", "descent.py", "k_eff = sum(1 for t in objective.terms if t.support)",
           "k_eff = len(objective.terms)",
           (f"{DESCENT}::TestEtaGeneric::test_constant_terms_do_not_count",)),
    Mutant("certified_grad_power", "polyfunc.py", "HALF ** (degree - 1)", "HALF ** degree",
           ("tests/test_polyfunc.py::TestCertifiedBounds::test_bounds_the_grid_maxima",)),
    Mutant("classical_gd_update", "oracle.py", "x = x - eta * objective._gradient(x)",
           "x = x + eta * objective._gradient(x)",
           ("tests/test_oracle.py::TestClassicalGd::test_quadratic_contraction_closed_form",)),
    Mutant("report_within_bound", "cli.py", '"within_bound": bool(max_dev <= bound)',
           '"within_bound": bool(max_dev < bound)',
           (f"{CLI}::test_exit_codes_of_validate_config_and_run",)),
    # Each error class's exit code, moved to the internal-error code 1.
    *(Mutant(f"exit_code_{code}", "errors.py", f"exit_code = {code}", "exit_code = 1",
             (f"{CLI}::TestExitCodes::test_every_error_family_has_one_code",))
      for code in (2, 3, 4, 5, 6, 7)),
    # Alpha rules: a product multiplies its inputs' alphas, a transform starts afresh at 1,
    # and lcu, scale_down and amplify keep their input's alpha.
    Mutant("product_alpha", "blockcalc.py", "a.alpha * b.alpha", "max(a.alpha, b.alpha)",
           (f"{BLOCKCALC}::TestProduct::test_alphas_multiply",)),
    Mutant("qsvt_alpha", "blockcalc.py", "transformed, enc.dim, 1.0,",
           "transformed, enc.dim, enc.alpha,",
           (f"{BLOCKCALC}::TestQsvtTransform::test_output_is_a_fresh_unit_alpha_encoding",)),
    *(Mutant(f"{op}_alpha", "blockcalc.py", old, new,
             (f"{BLOCKCALC}::TestClosureAndCounters::"
              "test_lcu_scale_down_and_amplify_keep_the_input_alpha",)) for op, old, new in (
        ("lcu", "signs), dim, alpha,", "signs), dim, 1.0,"),
        ("scale_down", "enc.dim, enc.alpha, enc.eps / p", "enc.dim, 1.0, enc.eps / p"),
        ("amplify", "enc.dim, enc.alpha, gamma * enc.eps", "enc.dim, 1.0, gamma * enc.eps"),
    )),
    # The one ancilla count, as the audit summary renders it and as the
    # report's per-iteration deltas carry it.
    Mutant("audited_ancillas", "blockcalc.py", '"ancillas": {self.ancillas!r}',
           '"ancillas": {self.ancillas + 1!r}', (REPLAY,)),
    Mutant("deltas_drop_a_counter", "descent.py", "zip(COUNTERS, cur, prev)",
           "zip(COUNTERS[:2], cur, prev)",
           (f"{DESCENT}::TestTraceShape::test_trace_records_and_deltas",
            f"{GOLDEN}::test_quadratic_audit_run")),
    # The recording guard of a primitive, inverted: recorded runs lose their lcu
    # records (the text after the guard names the one guard of the row).
    Mutant("lcu_record_guard", "blockcalc.py", 'is not None:\n        log.record("lcu"',
           'is None:\n        log.record("lcu"', (GOLDEN,)),
    # The public constructor's counter rule, entry_project's integer indices,
    # the parse's rule that f have finite bounds on the box (ends included),
    # and the descent loop's check of each iterate's f and gradient.
    Mutant("constructor_counter_sign", "blockcalc.py", "            if count < 0:",
           "            if count < -1:", (f"{BLOCKCALC}::test_argument_errors_name_their_rule",)),
    Mutant("entry_project_index", "blockcalc.py", 'j, k = as_index(j, "j"), as_index(k, "k")',
           "j, k = int(j), int(k)", (f"{BLOCKCALC}::test_argument_errors_name_their_rule",)),
    Mutant("parse_bounded_objective", "cli.py", "\n    check_bounded(objective)\n", "\n",
           (f"{CLI}::TestValidateConfig::test_pre_step_checks_fail_alike_in_both_commands",)),
    Mutant("drive_finite_iterate", "descent.py",
           "if not (math.isfinite(f) and np.isfinite(gradients[t]).all()):", "if False:",
           (f"{DESCENT}::TestRunSeparable::test_iterate_overflow_fails_at_its_step",)),
    Mutant("bounded_box_edges", "cli.py",
           "np.append(chebyshev_nodes(GRID_POINTS), (-HALF, HALF))", "chebyshev_nodes(GRID_POINTS)",
           (f"{CLI}::TestValidateConfig::test_pre_step_checks_fail_alike_in_both_commands",)),
    # A ChebyshevPoly has at least one coefficient, so qsvt_transform's charge,
    # its degree, is never negative.
    Mutant("chebyshev_nonempty", "chebyshev.py", "if not coeffs:", "if coeffs is None:",
           ("tests/test_chebyshev.py::TestEvalPoly::test_empty_coefficients_rejected",)),
    Mutant("degree_cap_inclusive", "chebyshev.py", "while degree <= DEGREE_CAP:",
           "while degree < DEGREE_CAP:",
           ("tests/test_chebyshev.py::TestApproxDerivative::"
            "test_the_cap_itself_is_a_candidate_degree",)),
)

# What the named tests read besides src/ and tests/.
COPIED = ("src", "tests", "configs", "bench", "README.md", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "_out", "_work")


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the row's one occurrence of old by new in root's copy of src/."""
    path = root / "src" / "blockgd" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text must occur once in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def killed(mutant: Mutant) -> bool:
    """Whether the named tests fail with the mutant applied to a copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="blockgd-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = REPO / name
            if source.is_dir():
                shutil.copytree(source, root / name, ignore=IGNORED)
            elif source.exists():
                shutil.copy2(source, root / name)
        apply(root, mutant)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if run.returncode not in (0, 1):  # 1 is "tests failed"; others mean no run
            raise SystemExit(f"{mutant.name}: pytest exited {run.returncode}")
        return run.returncode == 1


def main(argv: list[str]) -> int:
    rows = [m for m in MUTANTS if not argv or m.name in argv]
    unexpected = 0
    for mutant in rows:
        outcome = "killed" if killed(mutant) else "survived"
        expected = "survived" if mutant.survives else "killed"
        note = "" if outcome == expected else "  UNEXPECTED"
        if mutant.survives and outcome == "survived":
            note = f"  (known: {mutant.survives})"
        unexpected += outcome != expected
        print(f"{mutant.name:28} {outcome}{note}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
