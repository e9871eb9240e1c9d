"""Monomial-sum objectives with exact symbolic differentiation.

An objective is f(x) = sum_i a_i * prod_m x_m^{e_im} over the fixed box
[-1/2, 1/2]^n, together with a caller-supplied bound M on ||grad f||_2
there.  The bound is an input assumption: validate_bounds can sample-check
it, but the check is evidence, not a proof, and is flagged as such.

Conventions: variable indices are 0-based, 0**0 == 1 (constant terms are
legal), duplicate exponent tuples are merged at construction, and the zero
function is represented by an empty term list (partial derivatives of
constants produce it, so downstream code must accept it).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DomainViolation,
    IndexOutOfRange,
    SchemaError,
)

HALF = 0.5  # half-width of the box [-1/2, 1/2]^n every engine works in
# Rounding slack on the box edge and on the step-size limits derived from it.
DOMAIN_TOL = 1e-12
# Largest n a JSON input may ask for: one complex vector of 2**20 entries is
# 16 MiB, while a larger n would fail (or exhaust memory) before any output.
MAX_N = 2**20
DEFAULT_GRID_CAP = 1_000_000


def first_outside_box(x, margin: float = 0.0) -> int | None:
    """Flat index of the first entry with |x| + margin > 1/2 + DOMAIN_TOL, or None."""
    bad = np.flatnonzero(np.abs(x) + margin > HALF + DOMAIN_TOL)
    return int(bad[0]) if bad.size else None


def check_point(x, n: int) -> np.ndarray:
    """x as a flat float vector of n coordinates inside the box, else raise."""
    vec = np.asarray(x, dtype=float).ravel()
    if vec.size != n:
        raise ValueError(f"point has {vec.size} coordinates, expected {n}")
    m = first_outside_box(vec)
    if m is not None:
        raise DomainViolation(f"x[{m}] = {vec[m]!r} lies outside [-1/2, 1/2]")
    return vec


def init_size_and_bound(objective) -> None:
    """Shared __post_init__ of the objectives: n >= 1 and M > 0 finite, coerced."""
    if int(objective.n) < 1:
        raise ValueError(f"n must be >= 1, got {objective.n}")
    object.__setattr__(objective, "n", int(objective.n))
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
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"exponents must be non-negative, got {exps}")
        object.__setattr__(self, "exponents", exps)
        # Sorted indices of variables that actually appear.  Stored outside
        # the dataclass fields, so eq, hash and repr see coeff and exponents only.
        object.__setattr__(self, "support", tuple(m for m, e in enumerate(exps) if e > 0))

    @property
    def degree(self) -> int:
        """Total degree: sum of all exponents."""
        return sum(self.exponents)

    @property
    def var_count(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class TermProfile:
    """Combinatorial statistics of one term: variable count, degree, support."""

    var_count: int
    degree: int
    support: tuple[int, ...]


@dataclass(frozen=True)
class TermStats:
    """Per-term profiles plus the maxima used by the cost envelopes."""

    term_count: int
    per_term: tuple[TermProfile, ...]
    max_var_count: int
    max_degree: int


@dataclass(frozen=True)
class BoundsReport:
    """Sampled maxima of |f| and ||grad f||_2 over the box.

    ``rigorous`` is always False: the numbers are empirical maxima over a
    finite sample, never certified bounds.
    """

    max_abs_f: float
    max_grad_norm: float
    ok: bool
    method: str
    points: int
    rigorous: bool = False


@dataclass(frozen=True)
class ObjectiveFunction:
    """Sum of monomial terms over n variables with gradient bound M.

    ``grad_bound`` is the assumed bound M on ||grad f||_2 over the box;
    it is required as an input because it is not derivable cheaply.
    """

    n: int
    grad_bound: float
    terms: tuple[MonomialTerm, ...]

    def __post_init__(self):
        init_size_and_bound(self)
        merged: dict[tuple[int, ...], float] = {}
        for term in self.terms:
            t = term if isinstance(term, MonomialTerm) else MonomialTerm(*term)
            if len(t.exponents) != self.n:
                raise ValueError(
                    f"term exponents have length {len(t.exponents)}, expected n={self.n}"
                )
            merged[t.exponents] = merged.get(t.exponents, 0.0) + t.coeff
        canonical = tuple(
            MonomialTerm(c, e) for e, c in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "terms", canonical)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def evaluate(self, x) -> float:
        """Value of f at a point of the box; 0**0 counts as 1."""
        vec = check_point(x, self.n)
        total = 0.0
        for term in self.terms:
            prod = term.coeff
            for m in term.support:
                prod *= vec[m] ** term.exponents[m]
            total += prod
        return total

    def partial(self, m: int) -> "ObjectiveFunction":
        """Exact symbolic derivative with respect to variable m (0-based).

        Terms without variable m vanish; the result may be the zero
        function (empty term list).
        """
        if not 0 <= m < self.n:
            raise IndexOutOfRange(f"variable index {m} not in [0, {self.n})")
        out = []
        for term in self.terms:
            e = term.exponents[m]
            if e == 0:
                continue
            new_exps = list(term.exponents)
            new_exps[m] = e - 1
            out.append(MonomialTerm(term.coeff * e, tuple(new_exps)))
        return ObjectiveFunction(self.n, self.grad_bound, tuple(out))

    def gradient(self, x) -> np.ndarray:
        """All partial derivatives at a point, as a length-n array."""
        vec = check_point(x, self.n)
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

    def stats(self) -> TermStats:
        """Per-term (v, d, s) statistics; invariant under term order."""
        profiles = tuple(
            TermProfile(t.var_count, t.degree, t.support) for t in self.terms
        )
        return TermStats(
            term_count=len(self.terms),
            per_term=profiles,
            max_var_count=max((p.var_count for p in profiles), default=0),
            max_degree=max((p.degree for p in profiles), default=0),
        )

    def _eval_grid(self, points: np.ndarray) -> np.ndarray:
        out = np.zeros(points.shape[0])
        for term in self.terms:
            prod = np.full(points.shape[0], term.coeff)
            for m in term.support:
                prod *= points[:, m] ** term.exponents[m]
            out += prod
        return out

    def validate_bounds(
        self,
        grid_points_per_axis: int,
        *,
        cap: int = DEFAULT_GRID_CAP,
        allow_sampling: bool = True,
        seed: int = 0,
    ) -> BoundsReport:
        """Sample the box and report empirical maxima of |f| and ||grad f||.

        Uses a full tensor grid while grid_points_per_axis**n stays within
        ``cap``; otherwise falls back to ``cap`` Monte-Carlo points (seeded,
        deterministic) unless sampling is disabled.
        """
        if grid_points_per_axis < 2:
            raise ValueError("grid_points_per_axis must be >= 2")
        total = grid_points_per_axis**self.n
        if total <= cap:
            axes = np.linspace(-HALF, HALF, grid_points_per_axis)
            mesh = np.meshgrid(*([axes] * self.n), indexing="ij")
            points = np.stack(mesh, axis=-1).reshape(-1, self.n)
            method = "grid"
        elif allow_sampling:
            rng = np.random.default_rng(seed)
            points = rng.uniform(-HALF, HALF, size=(cap, self.n))
            method = "monte-carlo"
        else:
            raise BudgetExceeded(
                f"{grid_points_per_axis}^{self.n} = {total} grid points exceed "
                f"the cap of {cap} and sampling is disabled"
            )
        values = self._eval_grid(points)
        grad_sq = np.zeros(points.shape[0])
        for m in range(self.n):
            grad_sq += self.partial(m)._eval_grid(points) ** 2
        max_abs_f = float(np.max(np.abs(values))) if values.size else 0.0
        max_grad = float(np.sqrt(np.max(grad_sq))) if grad_sq.size else 0.0
        return BoundsReport(
            max_abs_f=max_abs_f,
            max_grad_norm=max_grad,
            ok=(max_abs_f <= HALF and max_grad <= self.grad_bound),
            method=method,
            points=points.shape[0],
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "M": self.grad_bound,
            "terms": [
                {"coeff": t.coeff, "exponents": list(t.exponents)} for t in self.terms
            ],
        }


def is_finite_number(value) -> bool:
    """True for a JSON number (int or float, not bool) that is finite as a float.

    json accepts NaN, Infinity and overflowing literals such as 1e400; none
    of them is a valid parameter anywhere in the schemas.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def is_size(value) -> bool:
    """True for a JSON integer n with 1 <= n <= MAX_N (bools are not integers)."""
    return isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= MAX_N


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def load_objective(source) -> ObjectiveFunction:
    """Build an ObjectiveFunction from a JSON text or an already-parsed dict.

    Schema: {"n": int in [1, MAX_N], "M": number > 0,
             "terms": [{"coeff": number, "exponents": [int >= 0] * n}, ...]};
    numbers must be finite.
    Parse errors keep json's line/column info; schema errors carry the key
    path of the offending entry.
    """
    doc = json.loads(source) if isinstance(source, (str, bytes)) else source
    _require(isinstance(doc, dict), "$", f"expected object, got {type(doc).__name__}")
    unknown = set(doc) - {"n", "M", "terms"}
    _require(not unknown, "$", f"unknown keys {sorted(unknown)}")
    for key in ("n", "M", "terms"):
        _require(key in doc, "$", f"missing required key '{key}'")
    n = doc["n"]
    _require(is_size(n), "n", f"expected integer in [1, {MAX_N}], got {n!r}")
    m_bound = doc["M"]
    _require(is_finite_number(m_bound) and m_bound > 0, "M",
             f"expected positive finite number, got {m_bound!r}")
    terms = doc["terms"]
    _require(isinstance(terms, list) and terms, "terms", "expected non-empty array")
    parsed = []
    for i, entry in enumerate(terms):
        path = f"terms[{i}]"
        _require(isinstance(entry, dict), path, "expected object")
        unknown = set(entry) - {"coeff", "exponents"}
        _require(not unknown, path, f"unknown keys {sorted(unknown)}")
        for key in ("coeff", "exponents"):
            _require(key in entry, path, f"missing required key '{key}'")
        coeff = entry["coeff"]
        _require(is_finite_number(coeff), f"{path}.coeff",
                 f"expected finite number, got {coeff!r}")
        exps = entry["exponents"]
        _require(isinstance(exps, list), f"{path}.exponents", "expected array")
        _require(len(exps) == n, f"{path}.exponents",
                 f"expected length n={n}, got {len(exps)}")
        for j, e in enumerate(exps):
            _require(isinstance(e, int) and not isinstance(e, bool) and e >= 0,
                     f"{path}.exponents[{j}]",
                     f"expected non-negative integer, got {e!r}")
        parsed.append(MonomialTerm(float(coeff), tuple(exps)))
    return ObjectiveFunction(n, float(m_bound), tuple(parsed))
