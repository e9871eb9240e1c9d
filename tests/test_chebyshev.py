import numpy as np
import pytest
from numpy.polynomial import chebyshev as ncheb

from blockgd.chebyshev import (
    DEGREE_CAP,
    ChebyshevPoly,
    ScalarFunction,
    SeparableObjective,
    approx_derivative,
    chebyshev_nodes,
)
from blockgd.cli import load_scalar_function
from blockgd.errors import DegreeCapExceeded, DomainViolation, SchemaError


class TestScalarFunction:
    @pytest.mark.parametrize("name", ["sin", "cos", "exp", "gaussian", "logistic"])
    def test_named_derivative_matches_finite_difference(self, name):
        func = ScalarFunction.named(name, scale=1.7)
        h = 1e-6
        for x in np.linspace(-0.45, 0.45, 9):
            fd = (func.value(x + h) - func.value(x - h)) / (2 * h)
            assert func.derivative(x) == pytest.approx(fd, abs=1e-7)

    def test_polynomial_value_and_derivative(self):
        func = ScalarFunction.polynomial([1.0, 0.0, 0.5])  # 1 + x^2/2
        assert func.value(0.2) == pytest.approx(1.02)
        assert func.derivative(0.2) == pytest.approx(0.2)

    def test_trailing_zeros_trimmed(self):
        func = ScalarFunction.polynomial([0.0, 1.0, 0.0, 0.0])
        assert func.coeffs == (0.0, 1.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ScalarFunction.named("tan")


class TestApproxDerivative:
    def test_half_square_gives_identity_polynomial(self):
        # F = x^2/2 differentiates to x, exactly: one T_1(2x)/2 coefficient.
        poly = approx_derivative(ScalarFunction.polynomial([0.0, 0.0, 0.5]), 1e-6)
        assert poly.degree == 1
        assert poly.sup_error_bound == 0.0
        assert poly.eval_unchecked(0.25) == pytest.approx(0.25, abs=1e-15)

    def test_polynomial_derivative_is_exact(self):
        coeffs = [0.0, 0.3, 0.0, -0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.05]  # degree 9
        poly = approx_derivative(ScalarFunction.polynomial(coeffs), 1e-6)
        assert poly.degree == 8
        assert poly.sup_error_bound == 0.0
        func = ScalarFunction.polynomial(coeffs)
        for x in np.linspace(-0.5, 0.5, 17):
            assert poly.eval_unchecked(x) == pytest.approx(func.derivative(x), abs=1e-13)

    def test_signed_zero_coefficients_give_one_polynomial(self):
        # Equal functions share one cached polynomial, so it must not depend
        # on the sign of a zero coefficient, which equality ignores.
        negative = ScalarFunction.polynomial([0.1, -0.0, -0.3])
        positive = ScalarFunction.polynomial([0.1, 0.0, -0.3])
        assert negative == positive
        approx_derivative.cache_clear()
        cached = approx_derivative(negative, 1e-6)
        assert approx_derivative(positive, 1e-6) is cached
        fresh = approx_derivative.__wrapped__(positive, 1e-6)
        assert np.array(cached.coeffs).tobytes() == np.array(fresh.coeffs).tobytes()

    def test_sin_low_degree_high_accuracy(self):
        poly = approx_derivative(ScalarFunction.named("sin"), 1e-6)
        assert poly.degree <= 20
        assert poly.sup_error_bound <= 1e-6
        grid = np.linspace(-0.5, 0.5, 101)
        assert np.max(np.abs(poly.eval_unchecked(grid) - np.cos(grid))) <= 2e-6

    def test_measured_error_against_dense_grid(self):
        for name in ("gaussian", "logistic", "exp"):
            func = ScalarFunction.named(name, scale=1.3)
            poly = approx_derivative(func, 1e-8)
            grid = chebyshev_nodes(4096)
            err = np.max(np.abs(poly.eval_unchecked(grid) - func.derivative(grid)))
            assert err <= 1e-8

    def test_doubling_monotonicity(self):
        func = ScalarFunction.named("gaussian", scale=2.0)
        target_grid = chebyshev_nodes(4096)
        target = func.derivative(target_grid)
        errors = []
        for degree in (2, 4, 8, 16, 32):
            series = ncheb.Chebyshev.interpolate(func.derivative, degree,
                                                 domain=[-0.5, 0.5])
            errors.append(
                float(np.max(np.abs(series(target_grid) - target)))
            )
        for worse, better in zip(errors, errors[1:]):
            assert better <= worse + 1e-14

    def test_trim_threshold_sets_the_degree(self):
        # Trailing coefficients below eps/(10*degree) are trimmed: at eps/degree
        # the gaussian would keep degree 11, at eps/(100*degree) exp degree 8.
        for name, scale, degree in (("gaussian", 1.5, 13), ("exp", 1.3, 7)):
            assert approx_derivative(ScalarFunction.named(name, scale), 1e-6).degree == degree

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            approx_derivative(ScalarFunction.named("sin"), 0.3)
        with pytest.raises(ValueError):
            approx_derivative(ScalarFunction.named("sin"), 0.0)

    def test_the_cap_itself_is_a_candidate_degree(self):
        # sin at scale 600 misses 1e-6 at degree 256 and meets it at 512, the cap.
        poly = approx_derivative(ScalarFunction.named("sin", 600.0), 1e-6)
        assert 256 < poly.degree <= DEGREE_CAP

    def test_degree_cap_exceeded(self):
        # A needle-sharp gaussian derivative is not approximable at 1e-6
        # within degree 512 on this interval.
        with pytest.raises(DegreeCapExceeded):
            approx_derivative(ScalarFunction.named("gaussian", scale=400.0), 1e-6)


class TestEvalPoly:
    def test_clenshaw_matches_numpy(self):
        # numpy's chebval against a Clenshaw recurrence written out here, on
        # the mapped argument t = 2x: P = c_0 + t*b_1 - b_2.
        rng = np.random.default_rng(3)
        coeffs = tuple(float(c) for c in rng.uniform(-1, 1, size=9))
        poly = ChebyshevPoly(coeffs, 0.0)
        for x in np.linspace(-0.5, 0.5, 33):
            t, b1, b2 = 2 * float(x), 0.0, 0.0
            for c in reversed(coeffs[1:]):
                b1, b2 = c + 2 * t * b1 - b2, b1
            assert poly.eval_unchecked(x) == pytest.approx(coeffs[0] + t * b1 - b2, abs=1e-13)

    def test_value_at_zero_is_alternating_sum(self):
        coeffs = (0.2, 0.3, -0.1, 0.05, 0.07)
        poly = ChebyshevPoly(coeffs, 0.0)
        # T_k(0) cycles 1, 0, -1, 0, so only even coefficients survive, signed.
        assert poly.eval_unchecked(0.0) == pytest.approx(coeffs[0] - coeffs[2] + coeffs[4], abs=1e-15)

    def test_empty_coefficients_rejected(self):
        # An empty series would have degree -1, a negative qsvt_transform charge.
        with pytest.raises(ValueError, match="at least one coefficient"):
            ChebyshevPoly((), 0.0)

    def test_matches_monomial_basis_evaluation(self):
        for name, scale in (("sin", 1.0), ("gaussian", 1.5), ("logistic", 2.0)):
            poly = approx_derivative(ScalarFunction.named(name, scale), 1e-9)
            power = ncheb.cheb2poly(np.asarray(poly.coeffs))
            for x in np.linspace(-0.5, 0.5, 21):
                direct = float(np.polynomial.polynomial.polyval(2 * x, power))
                assert poly.eval_unchecked(x) == pytest.approx(direct, abs=1e-12)


class TestSeparableObjective:
    def test_evaluate_and_gradient(self):
        sep = SeparableObjective(ScalarFunction.named("sin"), n=3, grad_bound=1.0)
        x = np.array([0.1, -0.2, 0.3])
        assert sep.evaluate(x) == pytest.approx(float(np.sum(np.sin(x))))
        assert sep.gradient(x) == pytest.approx(np.cos(x))

    def test_domain_checked(self):
        sep = SeparableObjective(ScalarFunction.named("sin"), n=2, grad_bound=1.0)
        with pytest.raises(DomainViolation):
            sep.evaluate([0.7, 0.0])


class TestScalarFunctionSchema:
    def test_named_roundtrip(self):
        func = load_scalar_function({"kind": "named", "name": "sin", "scale": 2.0})
        assert func.kind == "sin"
        assert func.scale == 2.0

    def test_poly_roundtrip(self):
        func = load_scalar_function({"kind": "poly", "coeffs": [0.0, 1.0]})
        assert func.coeffs == (0.0, 1.0)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "named", "name": "tan"},
            {"kind": "poly"},
            {"kind": "poly", "coeffs": []},
            {"kind": "poly", "coeffs": ["a"]},
            {"kind": "spline"},
            {"kind": "named", "name": "sin", "scale": "big"},
            {"kind": "named", "name": "sin", "extra": 1},
            {"kind": "poly", "coeffs": [0.0] * 515},  # derivative degree 513 > DEGREE_CAP
        ],
    )
    def test_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            load_scalar_function(doc)
