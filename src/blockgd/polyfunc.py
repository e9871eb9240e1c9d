"""Monomial-sum objectives with exact symbolic differentiation.

An objective is f(x) = sum_i a_i * prod_m x_m^{e_im} over the fixed box
[-1/2, 1/2]^n, together with a caller-supplied bound M on ||grad f||_2
there.  The bound is an input assumption; certified_bounds proves bounds on
|f| and ||grad f||_2 in closed form from the coefficients, and M is
certified when its gradient bound is at most M.

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

from .errors import DomainViolation, IndexOutOfRange, SchemaError

HALF = 0.5  # half-width of the box [-1/2, 1/2]^n every engine works in
# Rounding slack on the box edge and on the step-size limits derived from it.
DOMAIN_TOL = 1e-12
# Largest n a JSON input may ask for: one complex vector of 2**20 entries is
# 16 MiB, while a larger n would fail (or exhaust memory) before any output.
MAX_N = 2**20
# Largest (T + 1) * n of a run: its traces keep (T + 1) x n floats for the
# iterates, the gradients and the oracle's iterates, 128 MiB each at this cap;
# a larger run would fail (or exhaust memory) before any output.
MAX_TRACE_ENTRIES = 2**24
# Largest total degree of a generic term: assembling a partial derivative
# takes one product per power, so the cap bounds a step's primitive calls.
# compare-costs shares it as its largest d.
MAX_TERM_DEGREE = 64


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
        # One pass coerces, checks and collects the support: at n = 2**20 a
        # term's exponent tuple is a million entries long.
        exps = []
        support = []
        for m, e in enumerate(self.exponents):
            e = int(e)
            if e < 0:
                given = tuple(int(e) for e in self.exponents)
                raise ValueError(f"exponents must be non-negative, got {given}")
            if e:
                support.append(m)
            exps.append(e)
        object.__setattr__(self, "exponents", tuple(exps))
        # Sorted indices of variables that actually appear.  Stored outside
        # the dataclass fields, so eq, hash and repr see coeff and exponents only.
        object.__setattr__(self, "support", tuple(support))

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

    @property
    def term_count(self) -> int:
        return len(self.terms)

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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "M": self.grad_bound,
            "terms": [
                {"coeff": t.coeff, "exponents": list(t.exponents)} for t in self.terms
            ],
        }


# The schema checks, one per kind of JSON value.  Each returns the checked
# value or raises SchemaError with the key path of the offending entry, so a
# loader reads as one check per field.
def check_keys(doc, path: str, required, optional=()) -> dict:
    """doc as a JSON object holding every required key and no other than optional."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected object, got {type(doc).__name__}")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{path}: missing required key '{key}'")
    return doc


def check_int(value, path: str, low: int, high: int) -> int:
    """value as a JSON integer in [low, high]; bools and integral floats are not integers."""
    if isinstance(value, int) and not isinstance(value, bool) and low <= value <= high:
        return value
    raise SchemaError(f"{path}: expected integer in [{low}, {high}], got {value!r}")


def check_number(value, path: str, low: float = -math.inf, high: float = math.inf,
                 high_open: bool = True) -> float:
    """value as a float: a finite JSON number with low < value < high.

    With high_open=False the range is (low, high] instead.  json accepts NaN,
    Infinity and overflowing literals such as 1e400; none of them is a valid
    number anywhere in the schemas, and neither is a bool.
    """
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int too large for a float
            pass
    if math.isfinite(number) and low < number and (
        number < high or (number == high and not high_open)
    ):
        return number
    span = "" if (low, high) == (-math.inf, math.inf) else (
        f" in ({low:g}, {high:g}{')' if high_open else ']'}"
    )
    raise SchemaError(f"{path}: expected finite number{span}, got {value!r}")


def check_array(value, path: str, low: int, high: float = math.inf) -> list:
    """value as a JSON array of low to high entries."""
    if isinstance(value, list) and low <= len(value) <= high:
        return value
    span = (f"at least {low}" if high == math.inf else str(low) if high == low
            else f"{low} to {high}")
    got = f"length {len(value)}" if isinstance(value, list) else type(value).__name__
    raise SchemaError(f"{path}: expected array of length {span}, got {got}")


def check_choice(value, path: str, choices):
    """value as one of choices, compared by type and value (so 1 is not True)."""
    if any(type(value) is type(c) and value == c for c in choices):
        return value
    raise SchemaError(f"{path}: expected one of {list(choices)}, got {value!r}")


def check_size_and_bound(doc: dict) -> tuple[int, float]:
    """An objective object's n in [1, MAX_N] and gradient bound M > 0."""
    return check_int(doc.get("n"), "n", 1, MAX_N), check_number(doc.get("M"), "M", 0.0)


def load_objective(source) -> ObjectiveFunction:
    """Build an ObjectiveFunction from a JSON text or an already-parsed dict.

    Schema: {"n": int in [1, MAX_N], "M": number > 0,
             "terms": [{"coeff": number, "exponents": [int >= 0] * n}, ...]};
    numbers must be finite and each term's total degree is at most
    MAX_TERM_DEGREE.
    Parse errors keep json's line/column info; schema errors carry the key
    path of the offending entry.
    """
    doc = json.loads(source) if isinstance(source, (str, bytes)) else source
    check_keys(doc, "$", ("n", "M", "terms"))
    n, m_bound = check_size_and_bound(doc)
    parsed = []
    for i, entry in enumerate(check_array(doc["terms"], "terms", 1)):
        path = f"terms[{i}]"
        check_keys(entry, path, ("coeff", "exponents"))
        coeff = check_number(entry["coeff"], f"{path}.coeff")
        exps = check_array(entry["exponents"], f"{path}.exponents", n, n)
        for j, e in enumerate(exps):
            check_int(e, f"{path}.exponents[{j}]", 0, MAX_TERM_DEGREE)
        check_int(sum(exps), f"{path} total degree", 0, MAX_TERM_DEGREE)
        parsed.append(MonomialTerm(coeff, tuple(exps)))
    return ObjectiveFunction(n, m_bound, tuple(parsed))
