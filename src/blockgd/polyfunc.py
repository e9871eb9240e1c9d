"""Monomial-sum objectives and the box check of a point.

An objective is f(x) = sum_i a_i * prod_m x_m^{e_im} over the fixed box
[-1/2, 1/2]^n, together with a caller-supplied bound M on ||grad f||_2
there.  The bound is an input assumption; certified_bounds proves bounds on
|f| and ||grad f||_2 in closed form from the coefficients, and M is
certified when its gradient bound is at most M.

check_point is the one box check of a point handed in from outside: a start
vector (of a parse, a run or the oracle) or the argument of evaluate/gradient.
The helpers as_index (the integer rule of sizes and step counts) and
cached_attribute (the lazy cache of the immutable types) serve every module.

Conventions: variable indices are 0-based, 0**0 == 1 (constant terms are
legal), duplicate exponent tuples are merged at construction, and the zero
function is represented by an empty term list (terms that cancel produce
it, so downstream code must accept it).  Its JSON schema is in blockgd.cli.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, InvalidConfig

HALF = 0.5  # half-width of the box [-1/2, 1/2]^n every engine works in
# Rounding slack on the box edge and on the step-size limits derived from it.
DOMAIN_TOL = 1e-12


def first_outside_box(x) -> int | None:
    """Flat index of the first entry (NaN too) without |x| <= 1/2 + DOMAIN_TOL, or None."""
    bad = np.flatnonzero(~(np.abs(x) <= HALF + DOMAIN_TOL))
    return int(bad[0]) if bad.size else None


def check_point(x, n: int) -> np.ndarray:
    """x as a flat float vector of n coordinates inside the box, else raise.

    Raises InvalidConfig unless x has n coordinates and DomainViolation,
    naming the first coordinate outside, unless it lies in [-1/2, 1/2]^n.
    """
    vec = np.asarray(x, dtype=float).ravel()
    if vec.size != n:
        raise InvalidConfig(f"point has {vec.size} coordinates, expected n={n}")
    m = first_outside_box(vec)
    if m is not None:
        raise DomainViolation(f"x[{m}] = {vec.item(m)!r} lies outside [-1/2, 1/2]")
    return vec


def as_index(value, name: str, error: type[Exception] = ValueError) -> int:
    """value as a plain int by operator.index: numpy ints pass, 2.0 and "2" raise error."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


class cached_attribute:
    """functools.cached_property without its lock, for frozen instances.

    On Python 3.11 cached_property takes an RLock on every first read.  This
    descriptor computes the value on the first read and stores it in the
    instance dict, where later reads find it without calling the descriptor.
    The values cached with it are pure functions of immutable state, so two
    threads reading one first would each store an equal value.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def init_size_and_bound(objective) -> None:
    """Shared __post_init__ of the objectives: n >= 1 (by as_index) and M > 0 finite, coerced."""
    n = as_index(objective.n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    object.__setattr__(objective, "n", n)
    gb = float(objective.grad_bound)
    if not (gb > 0.0 and math.isfinite(gb)):
        raise ValueError(f"grad_bound must be positive and finite, got {gb}")
    object.__setattr__(objective, "grad_bound", gb)


@dataclass(frozen=True)
class MonomialTerm:
    """One term a * x_0^{e_0} ... x_{n-1}^{e_{n-1}} with integer exponents >= 0."""

    coeff: float
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", float(self.coeff))
        # operator.index takes Python and numpy integers and, unlike int,
        # rejects 2.7 (or 2.0) instead of truncating it.  An error names the
        # first offending exponent only, as check_point names one coordinate.
        given = tuple(self.exponents)
        try:
            exps = tuple(map(operator.index, given))
        except TypeError:
            m, e = next((m, e) for m, e in enumerate(given) if not hasattr(e, "__index__"))
            raise ValueError(f"exponents must be integers, got exponents[{m}] = {e!r}") from None
        if min(exps, default=0) < 0:
            m, e = next((m, e) for m, e in enumerate(exps) if e < 0)
            raise ValueError(f"exponents must be non-negative, got exponents[{m}] = {e}")
        object.__setattr__(self, "exponents", exps)
        # Sorted indices of variables that actually appear.  Stored outside
        # the dataclass fields, so eq, hash and repr see coeff and exponents only.
        object.__setattr__(self, "support", tuple(m for m, e in enumerate(exps) if e))

    @property
    def degree(self) -> int:
        """Total degree: sum of all exponents."""
        return sum(self.exponents)


@dataclass(frozen=True)
class ObjectiveFunction:
    """Sum of monomial terms over n variables with gradient bound M.

    ``grad_bound`` is the assumed bound M on ||grad f||_2 over the box,
    which the step size and the schedule use as given; certified_bounds
    tells whether the coefficients prove it.
    """

    n: int
    grad_bound: float
    terms: tuple[MonomialTerm, ...]

    def __post_init__(self):
        init_size_and_bound(self)
        # exponents -> (summed coeff, the term itself while no merge changed it)
        merged: dict[tuple[int, ...], tuple] = {}
        for term in self.terms:
            t = term if isinstance(term, MonomialTerm) else MonomialTerm(*term)
            if len(t.exponents) != self.n:
                raise ValueError(
                    f"term exponents have length {len(t.exponents)}, expected n={self.n}"
                )
            seen = merged.get(t.exponents)
            merged[t.exponents] = (t.coeff, t) if seen is None else (seen[0] + t.coeff, None)
        canonical = tuple(
            MonomialTerm(c, e) if t is None else t
            for e, (c, t) in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "terms", canonical)

    def evaluate(self, x) -> float:
        """Value of f at a point of the box; 0**0 counts as 1."""
        return self._evaluate(check_point(x, self.n))

    def _evaluate(self, vec: np.ndarray) -> float:
        """evaluate at a flat float vector already known to lie in the box."""
        total = 0.0
        for term in self.terms:
            prod = term.coeff
            for m in term.support:
                prod *= vec[m] ** term.exponents[m]
            total += prod
        return total

    def gradient(self, x) -> np.ndarray:
        """All partial derivatives at a point, as a length-n array."""
        return self._gradient(check_point(x, self.n))

    def _gradient(self, vec: np.ndarray) -> np.ndarray:
        """gradient at a flat float vector already known to lie in the box."""
        grad = np.zeros(self.n)
        for term in self.terms:
            for m in term.support:
                prod = term.coeff * term.exponents[m]
                for k in term.support:
                    e = term.exponents[k] - (1 if k == m else 0)
                    if e:
                        prod *= vec[k] ** e
                grad[m] += prod
        return grad

    def certified_bounds(self) -> tuple[float, float]:
        """Closed-form bounds (f_bound, grad_bound) on |f| and ||grad f||_2 over the box.

        Every |x_m| <= 1/2, so |f| <= sum_i |a_i| (1/2)^d_i and |df/dx_m| <=
        c_m = sum_i |a_i| e_im (1/2)^(d_i - 1), whence ||grad f||_2 <=
        sqrt(sum_m c_m^2).  The objective's M is certified when this
        grad_bound is at most M.  O(K*v): only each term's support is read.
        """
        f_bound = 0.0
        partial_bounds: dict[int, float] = {}
        for term in self.terms:
            degree = sum(term.exponents[m] for m in term.support)
            f_bound += abs(term.coeff) * HALF**degree
            for m in term.support:
                c = abs(term.coeff) * term.exponents[m] * HALF ** (degree - 1)
                partial_bounds[m] = partial_bounds.get(m, 0.0) + c
        return f_bound, math.hypot(*partial_bounds.values())

