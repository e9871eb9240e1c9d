import numpy as np
import pytest

from blockgd import chebyshev, oracle, polyfunc
from blockgd.chebyshev import ScalarFunction, SeparableObjective
from blockgd.errors import DomainExit, DomainViolation
from blockgd.oracle import classical_gd
from blockgd.polyfunc import MonomialTerm, ObjectiveFunction


def finite_diff_grad(objective, x, h: float) -> np.ndarray:
    """Central-difference gradient, component-wise, step h: a derivative-free cross-check.

    Like the objectives, it box-checks its point once (through
    polyfunc.check_point, looked up at call time) and then reads the
    objective through its unchecked ``_evaluate``.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = polyfunc.check_point(x, objective.n)
    if polyfunc.first_outside_box(np.abs(x) + h) is not None:
        raise DomainViolation("x +/- h e_m leaves [-1/2, 1/2]^n")
    grad = np.zeros(x.size)
    for m in range(x.size):
        step = np.zeros(x.size)
        step[m] = h
        grad[m] = (objective._evaluate(x + step) - objective._evaluate(x - step)) / (2 * h)
    return grad


def quadratic_bowl():
    return ObjectiveFunction(
        2, 2.0, (MonomialTerm(1.0, (2, 0)), MonomialTerm(1.0, (0, 2)))
    )


class TestClassicalGd:
    def test_quadratic_contraction_closed_form(self):
        trace = classical_gd(quadratic_bowl(), [0.2, 0.1], 0.1, 3)
        assert trace.rows[-1].tolist() == pytest.approx([0.8**3 * 0.2, 0.8**3 * 0.1])
        assert len(trace.rows) == 4

    def test_zero_steps(self):
        trace = classical_gd(quadratic_bowl(), [0.2, 0.1], 0.1, 0)
        assert trace.rows.tolist() == [[0.2, 0.1]]

    def test_constant_function_is_fixed_point(self):
        f = ObjectiveFunction(2, 1.0, (MonomialTerm(0.25, (0, 0)),))
        trace = classical_gd(f, [0.2, -0.1], 0.3, 4)
        for row in trace.rows.tolist():
            assert row == [0.2, -0.1]

    def test_strictly_convex_quadratic_contracts(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            coeffs = rng.uniform(0.2, 1.0, size=n)
            f = ObjectiveFunction(
                n, 10.0,
                tuple(
                    MonomialTerm(float(c), tuple(2 if j == i else 0 for j in range(n)))
                    for i, c in enumerate(coeffs)
                ),
            )
            eta = 0.9 / (2 * float(np.max(coeffs)))
            trace = classical_gd(f, rng.uniform(-0.3, 0.3, size=n), eta, 5)
            norms = [float(np.linalg.norm(row)) for row in trace.rows]
            for a, b in zip(norms, norms[1:]):
                if a > 0:
                    assert b < a

    def test_domain_exit_halts_with_partial_trace(self):
        f = ObjectiveFunction(1, 1.0, (MonomialTerm(1.0, (1,)),))
        with pytest.raises(DomainExit) as err:
            classical_gd(f, [0.4], 0.5, 5)
        assert err.value.step == 2
        assert len(err.value.trace.rows) == 2  # x0 and x1 only

    def test_separable_objective(self):
        sep = SeparableObjective(ScalarFunction.named("sin"), n=4, grad_bound=1.0)
        x0 = np.full(4, 0.2)
        trace = classical_gd(sep, x0, 0.1, 2)
        x = x0.copy()
        for _ in range(2):
            x = x - 0.1 * np.cos(x)
        assert trace.rows[-1].tolist() == pytest.approx(x.tolist())


class TestFiniteDiffGrad:
    def test_square_term(self):
        f = ObjectiveFunction(2, 1.0, (MonomialTerm(1.0, (2, 0)),))
        grad = finite_diff_grad(f, [0.2, 0.0], 1e-4)
        assert grad[0] == pytest.approx(0.4, abs=1e-7)
        assert grad[1] == 0.0

    def test_exact_on_affine(self):
        f = ObjectiveFunction(
            2, 5.0, (MonomialTerm(2.0, (1, 0)), MonomialTerm(-1.0, (0, 1)))
        )
        for h in (1e-1, 1e-2, 1e-3):
            grad = finite_diff_grad(f, [0.1, 0.1], h)
            assert grad == pytest.approx([2.0, -1.0], abs=1e-12)

    def test_cubic_ratio_test(self):
        f = ObjectiveFunction(1, 1.0, (MonomialTerm(1.0, (3,)),))
        # f''' = 6, so the h^2 error term is exactly h^2 at x = 0.
        errs = [abs(finite_diff_grad(f, [0.0], h)[0] - 0.0) for h in (1e-2, 5e-3)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-6)

    def test_h2_convergence_on_random_monomials(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(20):
            n = int(rng.integers(1, 4))
            exps = tuple(int(e) for e in rng.integers(0, 4, size=n))
            if sum(exps) < 3:
                continue  # needs a third derivative for a visible h^2 term
            f = ObjectiveFunction(n, 10.0, (MonomialTerm(float(rng.uniform(0.5, 2.0)), exps),))
            x = rng.uniform(0.15, 0.35, size=n)
            exact = f.gradient(x)
            err = {}
            for h in (2e-3, 1e-3):
                err[h] = float(
                    np.max(np.abs(finite_diff_grad(f, x, h) - exact))
                )
            if err[1e-3] < 1e-14:
                continue  # error at rounding floor, ratio meaningless
            assert 3.5 <= err[2e-3] / err[1e-3] <= 4.5
            checked += 1
        assert checked >= 5

    def test_checks_the_point_once(self, monkeypatch):
        calls = []
        original = polyfunc.check_point

        def counted(x, n):
            calls.append(n)
            return original(x, n)

        for module in (polyfunc, chebyshev, oracle):
            monkeypatch.setattr(module, "check_point", counted)
        n = 8
        generic = ObjectiveFunction(n, 10.0, (MonomialTerm(1.0, (2, 1) + (0,) * (n - 2)),))
        separable = SeparableObjective(ScalarFunction.named("sin"), n=n, grad_bound=1.0)
        for objective in (generic, separable):
            grad = finite_diff_grad(objective, np.full(n, 0.1), 1e-4)
            assert grad == pytest.approx(objective.gradient(np.full(n, 0.1)), abs=1e-7)
        # Once per call to finite_diff_grad, plus the two reference gradients.
        assert calls == [n] * 4

    def test_domain_violation_near_boundary(self):
        f = ObjectiveFunction(1, 1.0, (MonomialTerm(1.0, (2,)),))
        with pytest.raises(DomainViolation):
            finite_diff_grad(f, [0.5], 1e-3)


@pytest.mark.parametrize("steps", [-1, -2**70])
def test_negative_step_count_is_rejected(steps):
    with pytest.raises(ValueError) as info:
        classical_gd(quadratic_bowl(), [0.2, 0.1], 0.1, steps)
    assert type(info.value) is ValueError and str(info.value) == "steps must be non-negative"
