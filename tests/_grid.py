"""Sampled maxima of |f| and ||grad f||_2 on a tensor grid over the box.

The reference that ObjectiveFunction.certified_bounds is checked against,
and the bound estimate behind acceptance criterion 1's random objectives.
Its gradient comes from partial, an exact symbolic differentiator that
shares nothing with the engines' or the objective's own gradient code.
"""

import numpy as np

from blockgd.errors import IndexOutOfRange
from blockgd.polyfunc import HALF, MonomialTerm, ObjectiveFunction


def partial(objective: ObjectiveFunction, m: int) -> ObjectiveFunction:
    """Exact symbolic derivative of objective with respect to variable m (0-based).

    Terms without variable m vanish; the result may be the zero function
    (empty term list).
    """
    if not 0 <= m < objective.n:
        raise IndexOutOfRange(f"variable index {m} not in [0, {objective.n})")
    out = []
    for term in objective.terms:
        e = term.exponents[m]
        if e:
            exps = list(term.exponents)
            exps[m] = e - 1
            out.append(MonomialTerm(term.coeff * e, tuple(exps)))
    return ObjectiveFunction(objective.n, objective.grad_bound, tuple(out))


def _eval_grid(objective, points: np.ndarray) -> np.ndarray:
    out = np.zeros(points.shape[0])
    for term in objective.terms:
        prod = np.full(points.shape[0], term.coeff)
        for m in term.support:
            prod *= points[:, m] ** term.exponents[m]
        out += prod
    return out


def grid_maxima(objective, points_per_axis: int) -> tuple[float, float]:
    """(max |f|, max ||grad f||_2) over points_per_axis**n grid points, ends included."""
    axes = np.linspace(-HALF, HALF, points_per_axis)
    mesh = np.meshgrid(*([axes] * objective.n), indexing="ij")
    points = np.stack(mesh, axis=-1).reshape(-1, objective.n)
    # hypot, not the root of a sum of squares: the square of a partial near
    # 1e-160 is subnormal, and its root can exceed the exact norm by 1e-6.
    grads = [_eval_grid(partial(objective, m), points) for m in range(objective.n)]
    return (float(np.max(np.abs(_eval_grid(objective, points)))),
            float(np.max(np.hypot.reduce(grads, axis=0))))
