"""Polynomial approximation of scalar derivatives on [-1/2, 1/2].

Given a scalar analytic function F, approx_derivative builds a Chebyshev
interpolant P of F' on the box interval, doubling the candidate degree
(2, 4, 8, ..., 512) until the sup error measured on a dense Chebyshev grid
drops below the target.  The measured error is the contract: it is grid
evidence, not a minimax certificate.

Coefficients are in the domain-mapped Chebyshev basis, i.e. P(x) =
sum_k c_k T_k(2x) for x in [-1/2, 1/2]; the polynomial extends to all of
[-1, 1] where the eigenvalue-transform bound check needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from .errors import DegreeCapExceeded
from .polyfunc import HALF, cached_attribute, check_point, init_size_and_bound

GRID_POINTS = 4096
POLY_GRID_POINTS = 2048
DEGREE_CAP = 512
# Largest eps approx_derivative accepts; cli.EPS_RANGES applies it to JSON inputs.
MAX_EPS = 0.25


def _logistic(s, x):
    return 1.0 / (1.0 + np.exp(-s * x))


def _logistic_slope(s, x):
    lv = _logistic(s, x)
    return s * lv * (1.0 - lv)


# (F, F') of each named family at scale s, on a float array x.
NAMED_FAMILIES = {
    "sin": (lambda s, x: np.sin(s * x), lambda s, x: s * np.cos(s * x)),
    "cos": (lambda s, x: np.cos(s * x), lambda s, x: -s * np.sin(s * x)),
    "exp": (lambda s, x: np.exp(s * x), lambda s, x: s * np.exp(s * x)),
    "gaussian": (lambda s, x: np.exp(-((s * x) ** 2)),
                 lambda s, x: -2.0 * s * s * x * np.exp(-((s * x) ** 2))),
    "logistic": (_logistic, _logistic_slope),
}
NAMED_KINDS = tuple(NAMED_FAMILIES)


def chebyshev_nodes(count: int, half_width: float = HALF) -> np.ndarray:
    """First-kind Chebyshev nodes scaled to [-half_width, half_width]."""
    k = np.arange(count)
    return half_width * np.cos(np.pi * (2 * k + 1) / (2 * count))


@cache
def poly_grid() -> np.ndarray:
    """The one read-only grid of [-1, 1] on which sup |P| <= 1/2 is checked.

    Built on first use: evaluating it at import would add about 0.25 MiB of
    resident memory to runs that never transform a polynomial.
    """
    grid = chebyshev_nodes(POLY_GRID_POINTS, 1.0)
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function with a closed-form derivative.

    kind is "poly" (power-basis coeffs, ascending) or one of the named
    families of NAMED_FAMILIES, each parameterized by a scale s:

        sin:      sin(s*x)             derivative  s*cos(s*x)
        cos:      cos(s*x)             derivative -s*sin(s*x)
        exp:      exp(s*x)             derivative  s*exp(s*x)
        gaussian: exp(-(s*x)^2)        derivative -2*s^2*x*exp(-(s*x)^2)
        logistic: 1/(1+exp(-s*x))      derivative  s*L(x)*(1-L(x))
    """

    kind: str
    coeffs: tuple[float, ...] | None = None
    scale: float = 1.0

    @classmethod
    def polynomial(cls, coeffs) -> "ScalarFunction":
        vals = [float(c) for c in coeffs]
        while len(vals) > 1 and vals[-1] == 0.0:
            vals.pop()
        if not vals:
            vals = [0.0]
        return cls(kind="poly", coeffs=tuple(vals))

    @classmethod
    def named(cls, name: str, scale: float = 1.0) -> "ScalarFunction":
        if name not in NAMED_KINDS:
            raise ValueError(f"unknown function name {name!r}; expected one of {NAMED_KINDS}")
        return cls(kind=name, scale=float(scale))

    def value(self, x):
        if self.kind == "poly":
            return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))
        return NAMED_FAMILIES[self.kind][0](self.scale, np.asarray(x, dtype=float))

    def derivative(self, x):
        if self.kind == "poly":
            dcoef = self._derivative_coeffs()
            return np.polynomial.polynomial.polyval(x, np.asarray(dcoef))
        return NAMED_FAMILIES[self.kind][1](self.scale, np.asarray(x, dtype=float))

    def _derivative_coeffs(self) -> list[float]:
        assert self.kind == "poly"
        dcoef = [k * c for k, c in enumerate(self.coeffs)][1:]
        return dcoef or [0.0]


@dataclass(frozen=True)
class SeparableObjective:
    """f(x) = sum_i F(x_i): one shared scalar function applied coordinate-wise."""

    func: ScalarFunction
    n: int
    grad_bound: float

    def __post_init__(self):
        init_size_and_bound(self)

    def evaluate(self, x) -> float:
        return self._evaluate(check_point(x, self.n))

    def gradient(self, x) -> np.ndarray:
        return self._gradient(check_point(x, self.n))

    def _evaluate(self, vec: np.ndarray) -> float:
        """evaluate at a flat float vector already known to lie in the box."""
        return float(np.sum(self.func.value(vec)))

    def _gradient(self, vec: np.ndarray) -> np.ndarray:
        """gradient at a flat float vector already known to lie in the box."""
        return np.asarray(self.func.derivative(vec), dtype=float)


@dataclass(frozen=True)
class ChebyshevPoly:
    """Chebyshev series on [-1/2, 1/2] with its grid-measured sup error.

    coeffs is never empty, so degree >= 0, and zero coefficients are +0.0:
    approx_derivative caches by ScalarFunction equality, which takes -0.0
    for 0.0, so equal functions get equal bits.
    """

    coeffs: tuple[float, ...]
    sup_error_bound: float

    def __post_init__(self):
        coeffs = tuple(float(c) + 0.0 for c in self.coeffs)
        if not coeffs:
            raise ValueError("a ChebyshevPoly needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_unchecked(self, xs) -> np.ndarray:
        """Vectorized evaluation with no domain check (grids, extensions to [-1, 1])."""
        return ncheb.chebval(2.0 * np.asarray(xs, dtype=float), np.asarray(self.coeffs))

    @cached_attribute
    def grid_sup(self) -> float:
        """max |P| on poly_grid(), i.e. over all of [-1, 1]; computed once."""
        return float(np.max(np.abs(self.eval_unchecked(poly_grid()))))


def _trim_trailing(coeffs: np.ndarray, threshold: float) -> np.ndarray:
    keep = len(coeffs)
    while keep > 1 and abs(coeffs[keep - 1]) < threshold:
        keep -= 1
    return coeffs[:keep]


def _finite(poly: ChebyshevPoly, func: ScalarFunction) -> ChebyshevPoly:
    """poly, or DegreeCapExceeded when its sup on [-1, 1] is not finite."""
    if not math.isfinite(poly.grid_sup):
        raise DegreeCapExceeded(f"the polynomial for F' of kind={func.kind!r} has sup "
                                f"{poly.grid_sup} on [-1, 1], which is not finite")
    return poly


@cache
@np.errstate(all="ignore")
def approx_derivative(func: ScalarFunction, eps: float) -> ChebyshevPoly:
    """Approximate F' on [-1/2, 1/2] to measured sup error <= eps, once per (F, eps).

    Polynomial inputs are differentiated exactly (degree deg(F)-1, reported
    error 0).  Named functions are interpolated at Chebyshev nodes with the
    candidate degree doubling from 2 up to the cap of 512; trailing
    coefficients below eps/(10*degree) are trimmed before measurement.  An F'
    not finite on the grid, or a P whose sup on [-1, 1] is not finite (a
    poly F' whose coefficients overflow), raises DegreeCapExceeded, without
    numpy warnings.  Cached (an error is not): a run's step-size check and
    engine share one.
    """
    if not 0.0 < eps <= MAX_EPS:
        raise ValueError(f"eps must lie in (0, 1/4], got {eps}")
    if func.kind == "poly":
        dcoef = func._derivative_coeffs()
        # p(t/2) in the power basis, then convert: exact up to rounding.
        mapped = [c / (2.0**k) for k, c in enumerate(dcoef)]
        coeffs = ncheb.poly2cheb(mapped)
        return _finite(ChebyshevPoly(tuple(coeffs), 0.0), func)

    grid = chebyshev_nodes(GRID_POINTS)
    target = np.asarray(func.derivative(grid), dtype=float)
    if not np.isfinite(target).all():
        raise DegreeCapExceeded(f"F' of kind={func.kind!r} at scale {func.scale} is not "
                                "finite on [-1/2, 1/2]")
    degree = 2
    while degree <= DEGREE_CAP:
        series = ncheb.Chebyshev.interpolate(
            lambda x: np.asarray(func.derivative(x), dtype=float),
            degree,
            domain=[-HALF, HALF],
        )
        coeffs = _trim_trailing(np.asarray(series.coef, dtype=float),
                                eps / (10.0 * degree))
        err = float(np.max(np.abs(ncheb.chebval(2.0 * grid, coeffs) - target)))
        if err <= eps:
            return _finite(ChebyshevPoly(tuple(coeffs), err), func)
        degree *= 2
    raise DegreeCapExceeded(
        f"no degree <= {DEGREE_CAP} reaches sup error {eps} for kind={func.kind!r}"
    )

