import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import blockgd.blockcalc as bc
from blockgd import chebyshev, cli, descent, oracle, polyfunc
from blockgd.chebyshev import POLY_GRID_POINTS, ChebyshevPoly, ScalarFunction, SeparableObjective
from blockgd.descent import (
    CostParams,
    _canonical_objective,
    _probe_start,
    DescentConfig,
    build_gradient_be,
    build_partial_be,
    envelope_formulas,
    eta_generic,
    gd_step_generic,
    gd_step_separable,
    initial_state_uniform,
    measure_generic_iteration,
    resource_predict,
    run_generic,
    run_separable,
    separable_transform,
    step_size,
)
from blockgd.errors import (
    BlockgdError,
    DomainExit,
    DomainViolation,
    InfeasibleSchedule,
    InvalidConfig,
    InvalidScale,
    NormBoundViolated,
    ScaleOverflow,
    VariableNotInSupport,
)
from blockgd.oracle import classical_gd
from blockgd.polyfunc import MonomialTerm, ObjectiveFunction

SQRT2 = math.sqrt(2)


def obj(n, m_bound, *terms):
    return ObjectiveFunction(n, m_bound, tuple(MonomialTerm(c, tuple(e)) for c, e in terms))


def quadratic_bowl():
    return obj(2, SQRT2, (1.0, (2, 0)), (1.0, (0, 2)))


class TestInitialStateUniform:
    def test_quarter_budget(self):
        x0 = initial_state_uniform(0.25, 1.0, 1, 4)
        assert np.allclose(x0, 0.25)  # q = 4

    def test_zero_steps(self):
        x0 = initial_state_uniform(0.1, 1.0, 0, 4)
        assert np.allclose(x0, 0.5)  # q = 2

    def test_boundary_infeasible(self):
        with pytest.raises(InfeasibleSchedule):
            initial_state_uniform(0.5, 1.0, 1, 4)

    def test_saturated_slack_with_steps_starts_on_half(self):
        # eta*M*T = 0 (or below half an ulp of 1/2) leaves slack 1/2, so q = 2
        # puts x0 on the closed bound 1/2, which every amplification accepts.
        for eta in (0.0, 1e-20):
            assert np.array_equal(initial_state_uniform(eta, 1.0, 2, 3), [0.5] * 3)

    def test_large_n_gets_enough_amplitudes(self):
        x0 = initial_state_uniform(0.1, 1.0, 0, 8)
        # q = 2 would give only 4 amplitudes; n = 8 forces q = 3.
        assert np.allclose(x0, 1 / math.sqrt(8))

    def test_operator_norm_meets_schedule(self):
        for eta, m_bound, steps in ((0.1, 1.0, 3), (0.05, 2.0, 4), (0.02, 1.0, 7)):
            x0 = initial_state_uniform(eta, m_bound, steps, 8)
            assert np.max(np.abs(x0)) <= 0.5 - eta * m_bound * steps + 1e-12


class TestEtaGeneric:
    def test_pinned_value(self):
        assert eta_generic(quadratic_bowl()) == pytest.approx(1 / (4 * SQRT2))

    def test_constant_terms_do_not_count(self):
        f = obj(2, 1.0, (1.0, (2, 0)), (0.3, (0, 0)))
        assert eta_generic(f) == pytest.approx(1 / 2)

    def test_all_constant_gives_zero(self):
        f = obj(2, 1.0, (0.3, (0, 0)))
        assert eta_generic(f) == 0.0


class TestBuildPartial:
    def test_square_term_scaled_derivative(self):
        f = obj(4, 2.0, (1.0, (2, 0, 0, 0)))
        x = bc.diag_encode([0.3, 0.1, 0.0, 0.0])
        out = build_partial_be(x, f, 0, 0, eps=1e-6)
        # (a * e / M) * x_0 = (2/2) * 0.3 at slot 0
        assert np.allclose(np.diag(out.corner), [0.3, 0, 0, 0])

    def test_linear_term_uses_projector(self):
        f = obj(2, 2.0, (1.0, (1, 0)))
        x = bc.diag_encode([0.3, 0.1])
        out = build_partial_be(x, f, 0, 0, eps=1e-6)
        assert np.allclose(np.diag(out.corner), [0.5, 0.0])  # 1/M

    def test_cross_term_collects_other_factors(self):
        f = obj(2, 1.0, (1.0, (1, 1)))
        x = bc.diag_encode([0.2, 0.4])
        out = build_partial_be(x, f, 0, 0, eps=1e-6)
        # d/dx0 (x0 x1) = x1 = 0.4 parked at slot 0
        assert np.allclose(np.diag(out.corner), [0.4, 0.0])

    def test_high_power_products(self):
        f = obj(2, 1.0, (1.0, (3, 2)))
        x = bc.diag_encode([0.4, 0.3])
        out = build_partial_be(x, f, 0, 0, eps=1e-6)
        expected = 3 * 0.4**2 * 0.3**2  # a * e * x0^2 * x1^2, M = 1
        assert np.diag(out.corner)[0] == pytest.approx(expected, abs=1e-12)

    def test_negative_coefficient_sign_flip(self):
        f = obj(2, 2.0, (-1.0, (2, 0)))
        x = bc.diag_encode([0.3, 0.0])
        out = build_partial_be(x, f, 0, 0, eps=1e-6)
        assert np.diag(out.corner)[0] == pytest.approx(-0.3, abs=1e-12)

    def test_variable_not_in_support(self):
        f = obj(3, 1.0, (1.0, (2, 0, 1)))
        x = bc.diag_encode([0.3, 0.1, 0.2, 0.0])
        with pytest.raises(VariableNotInSupport):
            build_partial_be(x, f, 0, 1, eps=1e-6)

    def test_scale_overflow_flags_small_m(self):
        f = obj(1, 1.0, (3.0, (1,)))
        x = bc.diag_encode([0.3])
        with pytest.raises(ScaleOverflow):
            build_partial_be(x, f, 0, 0, eps=1e-6)


    def test_overflowing_factor_is_scale_overflow(self):
        # coeff * exponent / M overflows to inf, and the factor x_0 = 0 makes
        # the corner norm 0: the product with it is nan, not a pass.
        f = obj(2, 1e-8, (1e300, (2, 0)))
        x = bc.diag_encode([0.0, 0.1])
        with pytest.raises(ScaleOverflow):
            build_partial_be(x, f, 0, 0, eps=1e-6)

    @pytest.mark.parametrize("f", [
        obj(2, 1e300, (5e-324, (2, 0))),
        obj(2, 1.0, (1e-310, (2, 0)), (0.5, (0, 2))),
    ], ids=["factor-zero", "factor-subnormal"])
    def test_factor_without_finite_reciprocal_is_invalid_scale(self, f):
        # The factor of x_0's term is 0 or 2e-310: scale_down would need p = 1/factor = inf.
        term = next(i for i, t in enumerate(f.terms) if t.exponents[0])
        with pytest.raises(InvalidScale, match="finite"):
            build_partial_be(bc.diag_encode([0.1, 0.1]), f, term, 0, eps=1e-6)


class TestBuildGradient:
    def test_quadratic_bowl_prefactor(self):
        f = quadratic_bowl()
        x = bc.diag_encode([0.2, 0.1, 0.0, 0.0])
        out = build_gradient_be(x, f, eps=1e-6)
        expected = np.array([0.4, 0.2, 0.0, 0.0]) / (4 * SQRT2)
        assert np.allclose(np.diag(out.corner), expected, atol=1e-12)

    def test_constant_term_gives_zero_corner(self):
        f = obj(2, 1.0, (0.4, (0, 0)))
        x = bc.diag_encode([0.2, 0.1])
        out = build_gradient_be(x, f, eps=1e-6)
        assert np.allclose(out.corner, 0.0)

    def test_cross_term_orientation(self):
        f = obj(2, 1.0, (1.0, (1, 1)))
        x = bc.diag_encode([0.0, 0.5])
        out = build_gradient_be(x, f, eps=1e-6)
        # grad = (x1, x0) = (0.5, 0); prefactor 1/(2*M*K) with K = 1
        assert np.allclose(np.diag(out.corner), [0.25, 0.0], atol=1e-12)

    def test_matches_symbolic_gradient_randomly(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.choice([2, 4]))
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                exps = tuple(int(e) for e in rng.integers(0, 3, size=n))
                terms.append((float(rng.uniform(-0.3, 0.3)), exps))
            f = obj(n, 4.0, *terms)
            k_eff = sum(1 for t in f.terms if t.support)
            if k_eff == 0:
                continue
            point = rng.uniform(-0.3, 0.3, size=n)
            x = bc.diag_encode(point)
            out = build_gradient_be(x, f, eps=1e-8)
            expected = f.gradient(point) / (2 * f.grad_bound * k_eff)
            assert np.allclose(np.diag(out.corner)[:n], expected, atol=1e-10)

    def test_three_variable_term_amplifies(self):
        f = obj(3, 1.0, (0.5, (1, 1, 1)))
        x = bc.diag_encode([0.2, 0.3, 0.1, 0.0])
        out = build_gradient_be(x, f, eps=1e-6)
        expected = f.gradient([0.2, 0.3, 0.1]) / 2  # 1/(2*M*K), M = K = 1
        assert np.allclose(np.diag(out.corner)[:3], expected, atol=1e-10)


class TestGdStepGeneric:
    def test_quadratic_single_step(self):
        f = quadratic_bowl()
        eta = eta_generic(f)
        x = bc.diag_encode([0.2, 0.1])
        grad = build_gradient_be(x, f, eps=1e-6)
        out = gd_step_generic(x, grad, eps=1e-6)
        expected = (1 - 2 * eta) * np.array([0.2, 0.1])
        assert np.allclose(np.diag(out.corner), expected, atol=1e-12)

    def test_constant_objective_is_identity(self):
        f = obj(2, 1.0, (0.4, (0, 0)))
        x = bc.diag_encode([0.2, 0.1])
        grad = build_gradient_be(x, f, eps=1e-6)
        out = gd_step_generic(x, grad, eps=1e-6)
        assert np.allclose(out.corner, x.corner)


class TestRunGeneric:
    def test_contraction_closed_form(self):
        f = quadratic_bowl()
        cfg = DescentConfig(steps=5, eps=1e-6, mode="generic")
        trace = run_generic(f, [0.2, 0.1], cfg)
        eta = eta_generic(f)
        expected = (1 - 2 * eta) ** 5 * np.array([0.2, 0.1])
        assert np.max(np.abs(trace.final_iterate() - expected)) <= 1e-12

    def test_zero_steps(self):
        f = quadratic_bowl()
        trace = run_generic(f, [0.2, 0.1], DescentConfig(steps=0, eps=1e-6, mode="generic"))
        assert len(trace.records) == 1
        assert trace.records[0].x == (0.2, 0.1)
        assert trace.records[0].depth_units == 1  # just the initial encoding

    def test_linear_decreases_by_eta(self):
        f = obj(1, 2.0, (1.0, (1,)))
        eta = eta_generic(f)  # 0.25
        cfg = DescentConfig(steps=3, eps=1e-6, mode="generic")
        trace = run_generic(f, [0.3], cfg)
        xs = trace.iterates().ravel()
        for a, b in zip(xs, xs[1:]):
            assert b == pytest.approx(a - eta, abs=1e-12)

    def test_eta_override_rejected(self):
        f = quadratic_bowl()
        cfg = DescentConfig(steps=1, eps=1e-6, mode="generic", eta=0.1)
        with pytest.raises(InvalidConfig):
            run_generic(f, [0.1, 0.1], cfg)

    def test_matching_eta_accepted(self):
        f = quadratic_bowl()
        cfg = DescentConfig(steps=1, eps=1e-6, mode="generic", eta=eta_generic(f))
        trace = run_generic(f, [0.1, 0.1], cfg)
        assert trace.steps == 1

    def test_x0_domain_checked(self):
        f = quadratic_bowl()
        cfg = DescentConfig(steps=1, eps=1e-6, mode="generic")
        with pytest.raises(DomainViolation):
            run_generic(f, [0.6, 0.0], cfg)

    def test_oracle_agreement(self):
        f = obj(3, 3.0, (0.4, (2, 1, 0)), (-0.2, (0, 1, 1)), (0.1, (1, 0, 0)))
        cfg = DescentConfig(steps=4, eps=1e-6, mode="generic")
        x0 = [0.1, -0.15, 0.2]
        trace = run_generic(f, x0, cfg)
        reference = classical_gd(f, x0, eta_generic(f), 4)
        assert np.max(np.abs(trace.iterates() - reference.as_array())) <= 1e-10

    def test_schedule_flag_reported(self):
        f = quadratic_bowl()
        trace = run_generic(f, [0.2, 0.1], DescentConfig(steps=5, eps=1e-6, mode="generic"))
        # eta*M*T = 5/4 here, so the sufficient bound cannot hold.
        assert not trace.schedule_bound_ok
        assert trace.norm_safety_ok

    def test_probability_matches_final_norm(self):
        f = quadratic_bowl()
        trace = run_generic(f, [0.2, 0.1], DescentConfig(steps=2, eps=1e-6, mode="generic"))
        final = trace.final_iterate()
        assert trace.probability == pytest.approx(float(final @ final) / 2, abs=1e-10)


class TestGdStepSeparable:
    def test_identity_polynomial_contracts(self):
        poly = ChebyshevPoly((0.0, 0.5), 0.0)  # P(x) = x
        x = bc.diag_encode([0.3, -0.2])
        out = gd_step_separable(x, *separable_transform(poly, 1.0, 0.1), 1e-6)
        assert np.allclose(np.diag(out.corner), [0.9 * 0.3, 0.9 * -0.2], atol=1e-12)

    def test_zero_polynomial_is_identity_step(self):
        poly = ChebyshevPoly((0.0,), 0.0)
        x = bc.diag_encode([0.3, -0.2])
        out = gd_step_separable(x, *separable_transform(poly, 1.0, 0.1), 1e-6)
        assert np.allclose(out.corner, x.corner)

    def test_eta_beyond_measured_bound_rejected(self):
        poly = ChebyshevPoly((0.0, 0.5), 0.0)
        for eta in (1.3, math.nan):  # a NaN eta would leave P/divisor unscaled
            with pytest.raises(InvalidConfig, match="eta"):
                separable_transform(poly, 0.4, eta)

    def test_run_applies_one_transform_per_step(self):
        func = ScalarFunction.named("logistic", 1.5)
        n, steps, eta, eps = 5, 3, 0.1, 1e-6
        objective = SeparableObjective(func, n, 1.0)
        x0 = initial_state_uniform(eta, 1.0, steps, n)
        trace = run_separable(objective, x0,
                              DescentConfig(steps=steps, eps=eps, mode="separable", eta=eta))
        transform, p_insert = separable_transform(chebyshev.approx_derivative(func, eps), 1.0, eta)
        encs = [bc.diag_encode(x0)]
        for _ in range(steps):
            encs.append(gd_step_separable(encs[-1], transform, p_insert, eps))
        assert np.array_equal(trace.rows, [e.diagonal().real[:n] for e in encs])
        assert trace.eps_budgets == [e.eps for e in encs]
        assert trace.counters == [tuple(getattr(e, k) for k in bc.COUNTERS) for e in encs]


class TestRunSeparable:
    def test_half_square_closed_form(self):
        sep = SeparableObjective(ScalarFunction.polynomial([0.0, 0.0, 0.5]), n=4,
                                 grad_bound=1.0)
        cfg = DescentConfig(steps=4, eps=1e-6, mode="separable", eta=0.1)
        x0 = [0.2, -0.1, 0.15, 0.05]
        trace = run_separable(sep, x0, cfg)
        assert np.allclose(trace.final_iterate(), 0.9**4 * np.array(x0), atol=1e-12)

    def test_zero_steps(self):
        sep = SeparableObjective(ScalarFunction.named("sin"), n=2, grad_bound=1.0)
        cfg = DescentConfig(steps=0, eps=1e-6, mode="separable", eta=0.1)
        trace = run_separable(sep, [0.1, 0.2], cfg)
        assert len(trace.records) == 1

    def test_sin_matches_cos_update(self):
        sep = SeparableObjective(ScalarFunction.named("sin"), n=4, grad_bound=1.0)
        cfg = DescentConfig(steps=3, eps=1e-6, mode="separable", eta=0.1)
        x0 = np.array([0.3, -0.2, 0.1, 0.0])
        trace = run_separable(sep, x0, cfg)
        x = x0.copy()
        for _ in range(3):
            x = x - 0.1 * np.cos(x)
        tol = 10 * (trace.poly_sup_error + 16 * 3 * 1e-6)
        assert np.max(np.abs(trace.final_iterate() - x)) <= tol

    def test_step_size_rule(self):
        sep = SeparableObjective(ScalarFunction.named("sin"), n=2, grad_bound=1.0)
        assert step_size("separable", sep, 0.5, 1e-6) == 0.5  # 1/(2M) itself
        for eta in (None, 0.0, -0.1, 0.51, math.nan, 5e-324):
            with pytest.raises(InvalidConfig, match="eta"):
                step_size("separable", sep, eta, 1e-6)
        # sup |P| = 2 > M at scale 2, so the divisor is about 4 and 1/(2M) is too large.
        steep = replace(sep, func=ScalarFunction.named("sin", 2.0))
        assert step_size("separable", steep, 0.25, 1e-6) == 0.25
        with pytest.raises(InvalidConfig, match=r"1/3\.99999"):
            step_size("separable", steep, 0.5, 1e-6)
        f = quadratic_bowl()
        assert step_size("generic", f, None, 1e-6) == step_size("generic", f, eta_generic(f), 1e-6)
        with pytest.raises(InvalidConfig, match="pins eta"):
            step_size("generic", f, 2 * eta_generic(f), 1e-6)

    def test_eta_required_and_ranged(self):
        sep = SeparableObjective(ScalarFunction.named("sin"), n=2, grad_bound=1.0)
        with pytest.raises(InvalidConfig):
            run_separable(sep, [0.1, 0.1], DescentConfig(steps=1, eps=1e-6, mode="separable"))
        with pytest.raises(InvalidConfig):
            run_separable(
                sep, [0.1, 0.1],
                DescentConfig(steps=1, eps=1e-6, mode="separable", eta=0.6),
            )

    def test_iterate_overflow_fails_at_its_step(self):
        # The parse (cli.check_bounded) rejects this F, whose value overflows at
        # x = 1/2; a library caller skips the parse, and the loop names the step.
        func = ScalarFunction.polynomial([4.49423278715579e307, 1e300])
        cfg = DescentConfig(steps=0, eps=1e-6, mode="separable", eta=1e-301)
        with pytest.raises(BlockgdError) as info:
            run_separable(SeparableObjective(func, 4, 1.0), [0.5] * 4, cfg)
        assert str(info.value) == "step 0: f = inf or its gradient is not finite at the iterate"

    def test_schedule_flag_is_the_max_norm_bound(self):
        # slack = 1/2 - eta*M*T = 0.2: the uniform start (max 0.177, 2-norm 1/2)
        # and eight coordinates on the slack meet it; one coordinate past it does not.
        sep = SeparableObjective(ScalarFunction.named("sin"), n=8, grad_bound=1.0)
        cfg = DescentConfig(steps=3, eps=1e-6, mode="separable", eta=0.1)
        for x0, flag in ((initial_state_uniform(0.1, 1.0, 3, 8), True), ([0.2] * 8, True),
                         ([0.2 + 1e-9] + [0.0] * 7, False)):
            assert run_separable(sep, x0, cfg).schedule_bound_ok is flag

    def test_depth_scales_with_log_n(self):
        # Same function, same T: dimension enters counters via ceil(log2 n) only.
        cfg = DescentConfig(steps=2, eps=1e-6, mode="separable", eta=0.1)
        traces = {}
        for n in (8, 16):
            sep = SeparableObjective(ScalarFunction.polynomial([0.0, 0.0, 0.5]), n=n,
                                     grad_bound=1.0)
            traces[n] = run_separable(sep, np.full(n, 0.1), cfg)
        d8 = traces[8].per_iteration_deltas()
        d16 = traces[16].per_iteration_deltas()
        for a, b in zip(d8, d16):
            # log2(16) - log2(8) = 1 extra depth unit per initial encode use.
            assert b["depth_units"] >= a["depth_units"]
            assert b["depth_units"] - a["depth_units"] <= a["t"] * 2


class TestEngineConsistency:
    def test_generic_and_separable_agree_on_half_squares(self):
        n = 4
        m_bound = 1.0
        generic = obj(
            n, m_bound, *(
                (0.5, tuple(2 if j == i else 0 for j in range(n)))
                for i in range(n)
            )
        )
        eta = eta_generic(generic)  # 1/(2*M*n)
        sep = SeparableObjective(ScalarFunction.polynomial([0.0, 0.0, 0.5]), n=n,
                                 grad_bound=m_bound)
        x0 = [0.2, -0.1, 0.15, 0.05]
        tg = run_generic(generic, x0, DescentConfig(steps=4, eps=1e-8, mode="generic"))
        ts = run_separable(sep, x0, DescentConfig(steps=4, eps=1e-8, mode="separable",
                                                  eta=eta))
        assert np.max(np.abs(tg.iterates() - ts.iterates())) <= 1e-10

    @pytest.mark.parametrize(
        "engine, objective, cfg, x0, step",
        [
            # eta = 0.5 and f = x: 0.4 -> -0.1 -> -0.6 leaves the box at step 2.
            (run_generic, obj(1, 1.0, (1.0, (1,))),
             DescentConfig(steps=3, eps=1e-6, mode="generic"), [0.4], 2),
            # eta = 0.5 and f = sin: -0.45 - 0.5*cos(-0.45) ~ -0.90 at step 1.
            (run_separable, SeparableObjective(ScalarFunction.named("sin"), n=1, grad_bound=1.0),
             DescentConfig(steps=3, eps=1e-6, mode="separable", eta=0.5), [-0.45], 1),
        ],
        ids=["generic", "separable"],
    )
    def test_adversarial_start_raises_norm_bound(self, engine, objective, cfg, x0, step):
        with pytest.raises(NormBoundViolated) as info:
            engine(objective, x0, cfg)
        assert str(info.value).startswith(f"step {step}:")


class TestTraceShape:
    def test_trace_records_and_deltas(self):
        f = quadratic_bowl()
        trace = run_generic(f, [0.2, 0.1], DescentConfig(steps=3, eps=1e-6, mode="generic"))
        assert [r.t for r in trace.records] == [0, 1, 2, 3]
        deltas = trace.per_iteration_deltas()
        assert len(deltas) == 3
        assert all(d["depth_units"] > 0 for d in deltas)
        # One delta per counter, and each counter's deltas add up to its growth.
        assert all(d.keys() == {"t", *descent.COUNTERS} for d in deltas)
        for i, name in enumerate(descent.COUNTERS):
            assert sum(d[name] for d in deltas) == trace.counters[-1][i] - trace.counters[0][i]
        doc = json.loads("".join(cli._trace_json(trace)))
        assert doc["T"] == 3 and len(doc["iterations"]) == 4
        csv_text = "".join(cli._trace_csv(trace))
        assert csv_text.splitlines()[0] == "t,x0,x1"
        assert len(csv_text.splitlines()) == 5

    def test_reruns_identical(self):
        f = quadratic_bowl()
        cfg = DescentConfig(steps=3, eps=1e-6, mode="generic")
        a = run_generic(f, [0.2, 0.1], cfg)
        b = run_generic(f, [0.2, 0.1], cfg)
        docs = ["".join(cli._trace_json(t)) for t in (a, b)]
        assert docs[0] == docs[1]
        assert a.per_iteration_deltas() == b.per_iteration_deltas()

    def test_iterate_arrays_match_the_tuples_and_are_fresh(self):
        f = quadratic_bowl()
        trace = run_generic(f, [0.2, 0.1], DescentConfig(steps=3, eps=1e-6, mode="generic"))
        oracle = classical_gd(f, [0.2, 0.1], eta_generic(f), 3)
        arrays = (trace.iterates(), trace.final_iterate(), oracle.as_array())
        tuples = ([r.x for r in trace.records], trace.records[-1].x, oracle.rows.tolist())
        for array, rows in zip(arrays, tuples):
            assert array.dtype == float
            assert array.tobytes() == np.asarray(rows, dtype=float).tobytes()
            array[...] = 9.0  # a caller's edit reaches neither trace
        assert trace.iterates()[0].tolist() == [0.2, 0.1]
        assert trace.final_iterate().tolist() == list(trace.records[-1].x)
        assert oracle.as_array()[0].tolist() == [0.2, 0.1]

    def test_each_iterate_value_is_stored_once_as_a_column(self):
        f = quadratic_bowl()
        trace = run_generic(f, [0.2, 0.1], DescentConfig(steps=3, eps=1e-6, mode="generic"))
        oracle = classical_gd(f, [0.2, 0.1], eta_generic(f), 3)
        assert "records" not in vars(trace) and "iterates" not in vars(oracle)
        assert list(vars(oracle)) == ["rows"]
        for column in (trace.rows, trace.gradients, oracle.rows):
            assert type(column) is np.ndarray and column.shape == (4, 2)
            assert not column.flags.writeable
        for column in (trace.f_values, trace.eps_budgets, trace.counters):
            assert type(column) is list and len(column) == 4
        assert all(type(v) is int for c in trace.counters for v in c)
        tuples = [v for v in vars(trace).values() if isinstance(v, tuple)]
        assert tuples == []
        # records is built from the columns on each read, with the same types.
        first, again = trace.records, trace.records
        assert first == again and first is not again
        assert all(type(v) is float for r in first for v in (*r.x, *r.gradient, r.f_value))
        assert [r.eps_budget for r in first] == trace.eps_budgets
        assert [(r.depth_units, r.queries, r.ancillas) for r in first] == trace.counters

    def test_traces_differing_in_one_coordinate_are_unequal(self):
        f = quadratic_bowl()
        trace = run_generic(f, [0.2, 0.1], DescentConfig(steps=3, eps=1e-6, mode="generic"))
        oracle = classical_gd(f, [0.2, 0.1], eta_generic(f), 3)
        for original in (trace, oracle):
            rows = original.rows.copy()
            assert replace(original, rows=rows) == original
            rows[2, 1] = np.nextafter(rows[2, 1], 1.0)
            assert replace(original, rows=rows) != original
        gradients = trace.gradients.copy()
        gradients[1, 0] = -gradients[1, 0]
        assert replace(trace, gradients=gradients) != trace


class TestResourcePredict:
    def test_generic_envelope_k_squared_law(self):
        base = CostParams(terms=2)
        doubled = CostParams(terms=4)
        ratio = (
            envelope_formulas(doubled)["generic_per_iteration"]
            / envelope_formulas(base)["generic_per_iteration"]
        )
        assert ratio == 4.0

    def test_classical_formula_value(self):
        params = CostParams(n=10**6, terms=3, degree=4, vars_per_term=3, steps=10)
        assert envelope_formulas(params)["classical_total"] == 3.6e8

    def test_highly_sparse_below_generic(self):
        for n in (4, 16, 256):
            params = CostParams(n=n, terms=4, degree=4, vars_per_term=2,
                                sparsity=2, sparse_rows=2, tensor_order=2)
            env = envelope_formulas(params)
            assert env["highly_sparse_total"] < env["generic_total"]

    def test_crossover_generic_ratio(self):
        params = CostParams(steps=5)
        report = resource_predict(params)
        rows = report["crossover"]
        per_iter_factor = (
            params.terms**2 * params.degree * params.vars_per_term**2
            * math.log2(1 / params.eps)
        )
        for a, b in zip(rows, rows[1:]):
            assert b["generic"] / a["generic"] == pytest.approx(per_iter_factor)

    def test_measured_counters_monotone_in_k(self):
        depths = [
            measure_generic_iteration(8, k, 3, 2, 1e-6)["depth_units"]
            for k in (1, 2, 4)
        ]
        assert depths[0] < depths[1] < depths[2]

    def test_measured_counters_monotone_in_eps(self):
        depths = [
            measure_generic_iteration(8, 2, 3, 3, eps)["depth_units"]
            for eps in (1e-3, 1e-6, 1e-9)
        ]
        assert depths[0] < depths[1] < depths[2]

    def test_report_structure(self):
        report = resource_predict(CostParams(steps=3))
        assert set(report["implemented_per_iteration"]) == {"generic", "separable"}
        assert len(report["crossover"]) == 3
        assert "envelopes" in report and "envelope_note" in report

    def test_probe_rejects_oversized_family(self):
        with pytest.raises(InvalidConfig):
            measure_generic_iteration(4, 2, 3, 5, 1e-6)  # v > n


class TestDescentConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": -1, "eps": 1e-6, "mode": "generic"},
            {"steps": 1, "eps": 0.0, "mode": "generic"},
            {"steps": 1, "eps": 1e-6, "mode": "other"},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(InvalidConfig):
            DescentConfig(**kwargs)

    @pytest.mark.parametrize("steps, expected", [(2.0, None), ("2", None), (True, 1),
                                                 (np.int64(2), 2)],
                             ids=["float", "string", "bool", "numpy-int"])
    def test_integer_arguments_are_coerced_by_operator_index(self, steps, expected):
        """The library's step counts take what operator.index takes, as a plain int."""
        f = quadratic_bowl()
        if expected is None:
            with pytest.raises(InvalidConfig, match="steps must be an integer"):
                DescentConfig(steps=steps, eps=1e-6, mode="generic")
            with pytest.raises(InvalidConfig, match="steps must be an integer"):
                CostParams(steps=steps)
            with pytest.raises(ValueError, match="steps must be an integer"):
                classical_gd(f, [0.2, 0.1], 0.1, steps)
            return
        trace = run_generic(f, [0.2, 0.1], DescentConfig(steps=steps, eps=1e-6, mode="generic"))
        assert type(trace.steps) is int and trace.steps == expected
        assert len(resource_predict(CostParams(steps=steps))["crossover"]) == expected
        assert classical_gd(f, [0.2, 0.1], 0.1, steps).rows.shape[0] == expected + 1


class TestDiagonalFastPath:
    def test_engines_never_take_a_spectral_norm(self, monkeypatch):
        def refuse_svd(mat):
            raise AssertionError("a diagonal encoding took the dense SVD path")

        monkeypatch.setattr(bc, "spectral_norm", refuse_svd)
        n, steps, eps = 64, 3, 1e-6
        generic = _canonical_objective(n, 3, 4, 3)
        x0 = np.full(n, 0.05)
        trace = run_generic(generic, x0, DescentConfig(steps=steps, eps=eps, mode="generic"))
        oracle = classical_gd(generic, x0, eta_generic(generic), steps)
        assert np.max(np.abs(trace.iterates() - oracle.as_array())) <= 16 * steps * eps
        separable = SeparableObjective(ScalarFunction.named("sin", 1.0), n, 1.0)
        x0 = initial_state_uniform(0.1, 1.0, steps, n)
        cfg = DescentConfig(steps=steps, eps=eps, mode="separable", eta=0.1)
        trace = run_separable(separable, x0, cfg)
        oracle = classical_gd(separable, x0, 0.1, steps)
        assert np.max(np.abs(trace.iterates() - oracle.as_array())) <= 16 * steps * eps

    def test_generic_run_reads_diagonals_only_in_snapshots(self, monkeypatch):
        calls = []
        original = bc.BlockEncoding.diagonal

        def counted(enc):
            calls.append(enc.dim)
            return original(enc)

        monkeypatch.setattr(bc.BlockEncoding, "diagonal", counted)
        n, steps = 16, 3
        objective = _canonical_objective(n, 3, 4, 3)
        run_generic(objective, np.full(n, 0.05), DescentConfig(steps=steps, eps=1e-6, mode="generic"))
        # One read per trace record (t = 0..T); entry_project reads its one entry in place.
        assert len(calls) == steps + 1

    def test_gradient_encoding_allocates_no_length_n_vector(self, monkeypatch):
        # Complexity fences, each an upper bound with its measured slack (Python
        # 3.11, numpy 2.4).  One length-N complex vector takes 16 KiB at
        # n = 2**10 and 4 MiB at 2**18; the gradient's partials hold at most
        # K*v non-zeros, so its encoding needs no vector at any n, and only the
        # update turns a slot map (the gradient) into one.
        vectors = []
        original = bc._vector

        def counted(slots, dim):
            vectors.append(dim)
            return original(slots, dim)

        def traced_peak(build):
            tracemalloc.start()
            try:
                return build(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(bc, "_vector", counted)
        # (depth_units, ancillas): queries are 384 at every n; depth and
        # ancillas add 54 per doubling of n, through the iterate's log2 N charge.
        counts = {2**10: (831, 722), 2**16: (1155, 1046), 2**18: (1263, 1154)}
        for n, (depth, ancillas) in counts.items():
            objective = _canonical_objective(n, 3, 4, 3)
            iterate = bc.diag_encode(_probe_start(n))
            grad, peak = traced_peak(lambda: build_gradient_be(iterate, objective, eps=1e-6))
            # The traced peak is flat in n but swings by about 3 KB with the
            # interpreter's free lists (6.8-10.9 KB measured at every n), so it
            # is fenced only where 1/32 of a complex vector, half a byte per
            # entry, dwarfs that swing: 32 KiB at 2**16, 128 KiB at 2**18.
            # Any length-N buffer, even of bools, exceeds it.
            if n >= 2**16:
                assert peak <= 16 * n // 32
            assert vectors == []
            assert (grad.queries, grad.depth_units,
                    grad.ancillas) == (384, depth, ancillas)
            if n == 2**16:
                _, peak = traced_peak(lambda: gd_step_generic(iterate, grad, eps=1e-6))
                # Measured: 3.50 complex vectors.  Not fenced at 2**10, where the
                # fixed overhead alone brings the peak to 4.09 vectors.
                assert peak <= 4 * 16 * n
                assert vectors == [n]
                vectors.clear()

    def test_recorded_gradient_hashes_only_its_slots(self, monkeypatch):
        # Every encoding of a gradient build is a slot map, and its audit id
        # hashes those slots alone, so the ids cost the same at every n.
        hashed = []
        original = bc._digest

        def spied(data, dim):
            hashed.append(len(data) if type(data) is dict else f"vector of {len(data)}")
            return original(data, dim)

        forms = []
        for n in (2**10, 2**16):
            objective = _canonical_objective(n, 3, 4, 3)
            with bc.recording(bc.AuditLog()):
                iterate = bc.diag_encode(_probe_start(n))  # its id hashes the vector here
                monkeypatch.setattr(bc, "_digest", spied)
                build_gradient_be(iterate, objective, eps=1e-6)
                monkeypatch.undo()
            forms.append(hashed.copy())
            hashed.clear()
        # Measured: 55 ids, of slot maps with 1, 3 or 5 slots.
        assert forms[0] == forms[1]
        assert len(forms[0]) == 55 and set(forms[0]) == {1, 3, 5}

    @pytest.mark.parametrize("steps", [0, 1, 4])
    def test_separable_run_samples_the_polynomial_grid_once(self, monkeypatch, steps):
        calls = []
        original = ChebyshevPoly.eval_unchecked

        def counted(poly, xs):
            calls.append((poly, len(xs)))
            return original(poly, xs)

        monkeypatch.setattr(ChebyshevPoly, "eval_unchecked", counted)
        grids = []
        original_grid = chebyshev.poly_grid

        def grid():
            grids.append(1)
            return original_grid()

        monkeypatch.setattr(chebyshev, "poly_grid", grid)
        chebyshev.approx_derivative.cache_clear()  # a cached poly has its grid_sup already
        n = 8
        func = ScalarFunction.named("sin", 1.0)
        x0 = initial_state_uniform(0.1, 1.0, steps, n)
        run_separable(SeparableObjective(func, n, 1.0), x0,
                      DescentConfig(steps=steps, eps=1e-6, mode="separable", eta=0.1))
        derivative = chebyshev.approx_derivative(func, 1e-6)  # the run's, from the cache
        # P is sampled on the grid once per run, for the divisor.  The run builds
        # one P/divisor: the first step samples it on the grid for its sup check,
        # and every step samples it on the iterate's diagonal.
        assert [size for poly, size in calls if poly is derivative] == [POLY_GRID_POINTS]
        assert [size for poly, size in calls if poly is not derivative] == (
            [POLY_GRID_POINTS] + [n] * steps if steps else [])
        assert len(grids) == 1 + min(steps, 1)


class TestRecordedRuns:
    @pytest.mark.parametrize("mode", ["generic", "separable"])
    def test_jsonl_is_json_dumps_of_each_record(self, mode):
        log = bc.AuditLog()
        with bc.recording(log):
            if mode == "generic":
                # n=5 pads to 8; the negative term and the averages over 3 round.
                objective = obj(5, 0.8727, (0.95, (2, 1, 1, 0, 0)), (-0.93, (0, 1, 2, 1, 0)),
                                (0.3, (0, 0, 0, 0, 1)))
                run_generic(objective, [0.21, -0.17, 0.13, -0.19, 0.11],
                            DescentConfig(steps=3, eps=1e-6, mode="generic"))
            else:
                objective = SeparableObjective(ScalarFunction.named("sin", 1.0), 6, 1.0)
                run_separable(objective, initial_state_uniform(0.1, 1.0, 3, 6),
                              DescentConfig(steps=3, eps=1e-6, mode="separable", eta=0.1))
        assert len(log.records) > 10
        assert all(set(r) == {"seq", "op", "params", "in", "out"} for r in log.records)
        assert log.to_jsonl() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in log.records)

    def test_recorded_generic_step_builds_no_slot_map_vector(self):
        kept = []

        class KeepingLog(bc.AuditLog):
            def record(self, op, inputs, output, **params):
                kept.extend([*inputs, output])
                super().record(op, inputs, output, **params)

        n = 64
        objective = _canonical_objective(n, 3, 4, 3)
        iterate = bc.diag_encode(_probe_start(n))
        with bc.recording(KeepingLog()):
            grad = build_gradient_be(iterate, objective, eps=1e-6)
            gd_step_generic(iterate, grad, eps=1e-6)
        slot_maps = {id(e): e for e in kept if type(e._data) is dict}
        assert len(slot_maps) > 50
        # Only the update's signed average, whose other input is the iterate
        # vector, reads a slot map (the gradient) as a vector.
        assert [e for e in slot_maps.values() if "_vec" in e.__dict__] == [grad]

    def test_unrecorded_run_seals_the_same_encodings_and_records_nothing(self, monkeypatch):
        """A trim of the unrecorded path may not drop or duplicate a primitive."""
        sealed, recorded = [], []
        seal, record = bc._encoding, bc.AuditLog.record

        def spy_seal(*args):
            sealed.append(seal(*args))
            return sealed[-1]

        def spy_record(self, op, inputs, output, **params):
            recorded.append(output)
            record(self, op, inputs, output, **params)

        monkeypatch.setattr(bc, "_encoding", spy_seal)
        monkeypatch.setattr(bc.AuditLog, "record", spy_record)
        n = 16
        objective = _canonical_objective(n, 3, 4, 3)
        cfg = DescentConfig(steps=2, eps=1e-6, mode="generic")
        plain = run_generic(objective, _probe_start(n), cfg)
        unrecorded = len(sealed)
        assert unrecorded > 100
        assert recorded == []
        sealed.clear()
        audit = bc.AuditLog()
        with bc.recording(audit):
            assert run_generic(objective, _probe_start(n), cfg) == plain
        assert len(sealed) == unrecorded
        # One record per sealing, in sealing order.
        assert [id(e) for e in recorded] == [id(e) for e in sealed]
        assert [r["out"]["id"] for r in audit.records] == [e._id for e in sealed]


class TestBoxChecks:
    def test_runs_check_each_point_once(self, monkeypatch):
        calls = []
        original = polyfunc.check_point

        def counted(x, n):
            calls.append(n)
            return original(x, n)

        # Every module that imports the one point check, so none escapes the count.
        for module in (polyfunc, chebyshev, oracle, descent, cli):
            monkeypatch.setattr(module, "check_point", counted)
        n, steps = 8, 3
        generic = _canonical_objective(n, 3, 4, 3)
        separable = SeparableObjective(ScalarFunction.named("sin", 1.0), n, 1.0)
        x0 = _probe_start(n)
        run_generic(generic, x0, DescentConfig(steps=steps, eps=1e-6, mode="generic"))
        run_separable(separable, x0, DescentConfig(steps=steps, eps=1e-6, mode="separable", eta=0.1))
        # x0 once per engine run; its iterates pass amplify's norm bound.
        assert calls == [n, n]
        classical_gd(generic, x0, eta_generic(generic), steps)
        classical_gd(separable, x0, 0.1, steps)
        # x0 once per oracle run; its iterates are checked by first_outside_box.
        assert calls == [n, n, n, n]

    def test_nan_coordinates_lie_outside_the_box(self):
        nan_first = [math.nan, 0.1, 0.0, 0.0]
        generic = _canonical_objective(4, 2, 3, 2)
        separable = SeparableObjective(ScalarFunction.named("sin", 1.0), 4, 1.0)
        for objective in (generic, separable):
            for call in (objective.evaluate, objective.gradient,
                         lambda x, f=objective: classical_gd(f, x, 0.1, 2)):
                with pytest.raises(DomainViolation, match=r"x\[0\] = nan"):
                    call(nan_first)
        # The gradient at 0.4 is inf - inf, so the oracle's first iterate is NaN.
        blowup = ObjectiveFunction(1, 1.0, (MonomialTerm(1e308, (2,)), MonomialTerm(-1e308, (3,))))
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(DomainExit) as info:
            classical_gd(blowup, [0.4], 0.1, 2)
        assert info.value.step == 1

    @pytest.mark.parametrize("method", ["evaluate", "gradient"])
    def test_public_calls_outside_the_box_still_raise(self, method):
        outside = [0.1, 0.6, 0.0, 0.0]
        generic = _canonical_objective(4, 2, 3, 2)
        separable = SeparableObjective(ScalarFunction.named("sin", 1.0), 4, 1.0)
        for objective in (generic, separable):
            with pytest.raises(DomainViolation):
                getattr(objective, method)(outside)


@pytest.mark.parametrize("call, error, message", [
    (lambda: initial_state_uniform(0.1, 1.0, 1, 0), ValueError, "n must be >= 1, got 0"),
    (lambda: run_generic(quadratic_bowl(), [0.1, 0.1],
                         DescentConfig(steps=1, eps=1e-6, mode="separable", eta=0.1)),
     InvalidConfig, "run_generic requires mode='generic', got 'separable'"),
    (lambda: run_separable(SeparableObjective(ScalarFunction.named("sin"), 2, 1.0), [0.1, 0.1],
                           DescentConfig(steps=1, eps=1e-6, mode="generic")),
     InvalidConfig, "run_separable requires mode='separable', got 'generic'"),
    (lambda: CostParams(terms=0), InvalidConfig, "terms must be >= 1"),
    (lambda: CostParams(poly_degree=-1), InvalidConfig, "poly_degree must be >= 0"),
    (lambda: CostParams(eps=1.0), InvalidConfig, "eps must lie in (0, 1)"),
    (lambda: CostParams(eps=0.0), InvalidConfig, "eps must lie in (0, 1)"),
], ids=["uniform-n", "generic-mode", "separable-mode", "cost-int-low", "cost-deg-p-low",
        "cost-eps-one", "cost-eps-zero"])
def test_argument_errors_name_their_rule(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
