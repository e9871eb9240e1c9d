"""Plain floating-point gradient descent used as ground truth.

classical_gd iterates x <- x - eta * grad f(x) with symbolic gradients
(exact monomial differentiation or the closed-form scalar derivative);
finite_diff_grad provides a second, derivative-free cross-check.  Both work
for monomial-sum and coordinate-separable objectives (ObjectiveFunction,
SeparableObjective): classical_gd reads their unchecked ``_evaluate`` and
``_gradient``, finite_diff_grad anything exposing ``evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainExit, DomainViolation
from .polyfunc import check_point, first_outside_box


@dataclass(frozen=True)
class OracleTrace:
    """Iterates plus objective values and gradient norms, length T + 1.

    ``rows`` holds the iterates as one read-only (T + 1) x n float array, the
    values the ``iterates`` tuples were built from; as_array() returns a
    fresh copy of it.
    """

    iterates: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]
    grad_norms: tuple[float, ...]
    rows: np.ndarray = field(repr=False, compare=False)

    def as_array(self) -> np.ndarray:
        return self.rows.copy()


def classical_gd(objective, x0, eta: float, steps: int) -> OracleTrace:
    """Run exact double-precision descent; halt if an iterate leaves the box.

    A domain exit is surfaced as DomainExit carrying the partial trace: the
    containment schedule is supposed to prevent it, so an exit flags a
    configuration bug rather than something to clip away silently.  Each
    point is box-checked once, x0 by check_point and every later iterate
    before its use, so the objective is read through its unchecked path.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    x = check_point(x0, objective.n)
    rows = np.empty((steps + 1, x.size))
    rows[0] = x
    iterates = [tuple(x.tolist())]
    values = [float(objective._evaluate(x))]
    grads = [np.asarray(objective._gradient(x), dtype=float)]
    for t in range(steps):
        x = x - eta * grads[-1]
        if first_outside_box(x) is not None:
            raise DomainExit(
                f"iterate left [-1/2, 1/2]^n at step {t + 1}",
                step=t + 1,
                trace=_trace(rows[: t + 1], iterates, values, grads),
            )
        rows[t + 1] = x
        iterates.append(tuple(x.tolist()))
        values.append(float(objective._evaluate(x)))
        grads.append(np.asarray(objective._gradient(x), dtype=float))
    return _trace(rows, iterates, values, grads)


def _trace(rows: np.ndarray, iterates: list, values: list, grads: list) -> OracleTrace:
    rows.setflags(write=False)
    return OracleTrace(
        iterates=tuple(iterates),
        values=tuple(values),
        grad_norms=tuple(float(np.linalg.norm(g)) for g in grads),
        rows=rows,
    )


def finite_diff_grad(objective, x, h: float) -> np.ndarray:
    """Central-difference gradient, component-wise, step h."""
    x = np.asarray(x, dtype=float).ravel()
    if h <= 0:
        raise ValueError("h must be positive")
    if first_outside_box(x, h) is not None:
        raise DomainViolation("x +/- h e_m leaves [-1/2, 1/2]^n")
    grad = np.zeros(x.size)
    for m in range(x.size):
        step = np.zeros(x.size)
        step[m] = h
        grad[m] = (objective.evaluate(x + step) - objective.evaluate(x - step)) / (2 * h)
    return grad
