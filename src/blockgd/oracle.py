"""Plain floating-point gradient descent used as ground truth.

classical_gd iterates x <- x - eta * grad f(x) with symbolic gradients
(exact monomial differentiation or the closed-form scalar derivative), for
monomial-sum and coordinate-separable objectives (ObjectiveFunction,
SeparableObjective): it box-checks each point once, then reads the
objective through its unchecked ``_gradient``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainExit
from .polyfunc import as_index, check_point, first_outside_box


@dataclass(frozen=True, eq=False)
class OracleTrace:
    """The iterates x_0 .. x_T as one read-only (T + 1) x n float array.

    as_array() returns a fresh copy of ``rows``.  Two traces are equal when
    their rows are (np.array_equal); a trace is not hashable.
    """

    rows: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, OracleTrace):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)

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
    steps = as_index(steps, "steps")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    x = check_point(x0, objective.n)
    rows = np.empty((steps + 1, x.size))
    rows[0] = x
    for t in range(steps):
        x = x - eta * objective._gradient(x)
        if first_outside_box(x) is not None:
            rows.setflags(write=False)
            raise DomainExit(
                f"iterate left [-1/2, 1/2]^n at step {t + 1}",
                step=t + 1,
                trace=OracleTrace(rows[: t + 1]),
            )
        rows[t + 1] = x
    rows.setflags(write=False)
    return OracleTrace(rows)

