"""Sampled maxima of |f| and ||grad f||_2 on a tensor grid over the box.

The reference that ObjectiveFunction.certified_bounds is checked against,
and the bound estimate behind acceptance criterion 1's random objectives.
"""

import numpy as np

from blockgd.polyfunc import HALF


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
    grad_sq = np.zeros(points.shape[0])
    for m in range(objective.n):
        grad_sq += _eval_grid(objective.partial(m), points) ** 2
    return float(np.max(np.abs(_eval_grid(objective, points)))), float(np.sqrt(np.max(grad_sq)))
