"""Gradient-descent engines driven by the corner-block calculus.

Both engines run x <- x - eta * grad f(x) through one driver loop: x0 is
box-checked and diag-encoded, a per-engine step function maps each iterate
encoding to the next, and every iterate is written into the trace columns.
The engines differ only in how their step builds the gradient encoding.

run_generic's step, for monomial-sum objectives: single-entry projections
and products assemble each scaled partial derivative, signed averages
combine terms, and amplification strips the leftover 1/2.  The step size is
pinned to eta = 1/(2*M*K) (K counting gradient-contributing terms), the
identification under which the pipeline reproduces the descent update.

run_separable's step, for f(x) = sum_i F(x_i), applies a polynomial
approximation of F' to the iterate diagonal through an eigenvalue
transform, inserts the step size by down-scaling, subtracts, and amplifies.
separable_transform, built once per run, divides P by max(2*M, 2 * measured
sup), so the sup-norm cap holds while the inserted factor stays exactly eta.

Iterates are read directly off the diagonal corner (the simulator's
privilege); the measurement-style read-out still reports the terminal
post-selection probability.  Containment, max_i |x_i| <= 1/2, is enforced
at run time: every step's amplification requires it of the next iterate,
so a bad schedule raises rather than silently clipping.  That bound is
1 - blockcalc.AMP_MARGIN, the margin amplify applies itself.

Nothing here takes an audit log: each blockcalc primitive records itself
into the log of the enclosing ``blockcalc.recording(log)`` block, so a
caller that wants the per-operation record wraps the run in that block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace

import numpy as np

from . import blockcalc as bc
from .blockcalc import COUNTERS, BlockEncoding
from .chebyshev import (
    ChebyshevPoly,
    ScalarFunction,
    SeparableObjective,
    approx_derivative,
)
from .errors import (
    BlockgdError,
    InfeasibleSchedule,
    InvalidConfig,
    NormBoundViolated,
    ScaleOverflow,
    VariableNotInSupport,
)
from .polyfunc import (
    DOMAIN_TOL,
    HALF,
    MonomialTerm,
    ObjectiveFunction,
    as_index,
    check_point,
    first_outside_box,
)

GENERIC = "generic"
SEPARABLE = "separable"


@dataclass(frozen=True)
class DescentConfig:
    """Run parameters: iteration count, per-stage error budget, mode, step size.

    In generic mode the step size is derived from the objective
    (eta = 1/(2*M*K)); supplying a different eta is a configuration error.
    In separable mode eta is required and must satisfy 0 < eta <= 1/divisor
    with divisor = max(2*M, 2 * sup |P|) over the derivative polynomial P
    (descent.separable_transform is the rule; step_size applies it).
    """

    steps: int
    eps: float
    mode: str
    eta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "steps", as_index(self.steps, "steps", InvalidConfig))
        if self.steps < 0:
            raise InvalidConfig(f"T must be non-negative, got {self.steps}")
        if not (0.0 < self.eps < 1.0):
            raise InvalidConfig(f"eps must lie in (0, 1), got {self.eps}")
        if self.mode not in (GENERIC, SEPARABLE):
            raise InvalidConfig(f"mode must be '{GENERIC}' or '{SEPARABLE}', got {self.mode!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One trace row: iterate, objective value, gradient, budgets, counters."""

    t: int
    x: tuple[float, ...]
    f_value: float
    gradient: tuple[float, ...]
    eps_budget: float
    depth_units: int
    queries: int
    ancillas: int
    ancilla_high_water: int  # repeats ancillas while bench/worker.py reads it


@dataclass(eq=False)
class DescentTrace:
    """Per-iterate columns plus terminal post-selection probability.

    Each per-iterate value is stored once, in a column of T + 1 entries:
    ``rows`` (the iterates) and ``gradients`` are read-only (T + 1) x n float
    arrays, ``f_values`` and ``eps_budgets`` float lists, and ``counters``
    holds the COUNTERS of each iterate as Python ints (long runs outgrow
    int64).  ``records`` builds IterationRecords from the columns on each
    read.  Equality compares every field, the arrays by value.
    ``schedule_bound_ok`` records whether max_i |x0_i| <= 1/2 - eta*M*T held
    (the sufficient containment condition a uniform start is built to); runs
    with explicit initial vectors may proceed without it, relying on the
    runtime norm guards instead.
    ``ancillas`` counts naive cumulative consumption, since reuse is not
    modelled; per_iteration_deltas() has the deltas of every counter.
    """

    mode: str
    n: int
    eta: float
    eps: float
    steps: int
    grad_bound: float
    probability: float
    schedule_bound_ok: bool
    norm_safety_ok: bool
    rows: np.ndarray
    gradients: np.ndarray
    f_values: list[float]
    eps_budgets: list[float]
    counters: list[tuple[int, int, int]]
    poly_degree: int | None = None
    poly_sup_error: float | None = None

    def __eq__(self, other):
        if not isinstance(other, DescentTrace):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @property
    def records(self) -> list[IterationRecord]:
        columns = zip(self.rows.tolist(), self.f_values, self.gradients.tolist(),
                      self.eps_budgets, self.counters)
        return [IterationRecord(t, tuple(x), f, tuple(g), e, *c, ancilla_high_water=c[2])
                for t, (x, f, g, e, c) in enumerate(columns)]

    def iterates(self) -> np.ndarray:
        return self.rows.copy()

    def final_iterate(self) -> np.ndarray:
        return self.rows[-1].copy()

    def per_iteration_deltas(self) -> list[dict]:
        return [
            {"t": t, **{k: c - p for k, c, p in zip(COUNTERS, cur, prev)}}
            for t, (prev, cur) in enumerate(zip(self.counters, self.counters[1:]), start=1)
        ]


def eta_generic(objective: ObjectiveFunction) -> float:
    """Pinned generic step size 1/(2*M*K) over gradient-contributing terms.

    Constant terms never reach the averaging stage, so K counts terms with
    non-empty support; an all-constant objective has no descent direction
    and gets eta = 0.
    """
    k_eff = sum(1 for t in objective.terms if t.support)
    if k_eff == 0:
        return 0.0
    return 1.0 / (2.0 * objective.grad_bound * k_eff)


def _reciprocal(x: float) -> float:
    """1/x, and inf for x = 0, as for the subnormal x whose 1/x overflows."""
    return 1.0 / x if x else math.inf


def step_size(mode: str, objective, eta: float | None, eps: float) -> float:
    """The step size a run of mode uses, or InvalidConfig if eta breaks its rule.

    Generic mode pins eta to eta_generic(objective), so a given eta must
    match it, and the pinned eta must be finite; each coefficient factor
    coeff * exponent / M that build_partial_be applies must have a finite
    reciprocal, the scale_down factor of a factor below 1 (one pass over the
    K*v exponents).  Separable mode requires an eta that separable_transform
    accepts for P = approx_derivative(F, eps), the rule run_separable builds
    its steps' transform by (an F' without such a polynomial raises
    DegreeCapExceeded).
    """
    if mode == GENERIC:
        pinned = eta_generic(objective)
        if not math.isfinite(pinned):
            raise InvalidConfig(
                f"eta: 1/(2*M*K) overflows to {pinned} for M = {objective.grad_bound}"
            )
        for term in objective.terms:
            for m in term.support:
                factor = term.coeff * term.exponents[m] / objective.grad_bound
                if not math.isfinite(_reciprocal(factor)):
                    raise InvalidConfig(
                        f"a term's factor coeff * exponent / M = {factor} for variable {m} "
                        f"has no finite reciprocal (coeff {term.coeff}, "
                        f"M {objective.grad_bound})"
                    )
        if eta is not None and not abs(eta - pinned) <= 1e-9 * max(pinned, 1.0):
            raise InvalidConfig(
                f"eta: generic mode pins eta to 1/(2*M*K) = {pinned}; got {eta}"
            )
        return pinned
    if eta is None:
        raise InvalidConfig("eta: separable mode requires an explicit eta")
    separable_transform(approx_derivative(objective.func, eps), objective.grad_bound, eta)
    return eta


def initial_state_uniform(eta: float, grad_bound: float, steps: int, n: int) -> np.ndarray:
    """First n amplitudes of the uniform q-qubit state meeting the schedule.

    q = ceil(log2(1/(1/2 - eta*M*T)^2)), raised to ceil(log2 n) when n needs
    more amplitudes; each amplitude is 2**(-q/2), so the diagonal operator
    built from the result has norm max_i |x_i| <= 1/2 - eta*M*T by
    construction.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    slack = HALF - eta * grad_bound * steps
    if slack <= 0.0:
        raise InfeasibleSchedule(
            f"eta*M*T = {eta * grad_bound * steps} must stay below 1/2"
        )
    q = math.ceil(math.log2(1.0 / slack**2))
    q = max(q, math.ceil(math.log2(n)))
    amplitude = 1.0 / math.sqrt(2.0**q)
    return np.full(n, amplitude)


def _apply_scalar_factor(enc: BlockEncoding, factor: float, eps: float) -> BlockEncoding:
    """Multiply a corner by a real scalar via scale-down / amplification.

    |factor| < 1 is a plain down-scale, |factor| > 1 an amplification
    (subject to its norm bound); a negative sign rides on a one-term
    signed average.  A factor that would push the corner past unit norm is
    rejected: the caller's gradient bound M is too small.  A factor without
    a finite reciprocal (0 or subnormal) fails in scale_down (InvalidScale).
    """
    magnitude = abs(factor)
    # Negated, so that an overflowing factor (inf * 0 = nan) is rejected too.
    if not magnitude * enc.norm <= 1.0 + bc.NORM_TOL:
        raise ScaleOverflow(
            f"|coeff * exponent| / M = {magnitude} would push the corner norm to "
            f"{magnitude * enc.norm}; renormalize the gradient bound"
        )
    if magnitude > 1.0:
        enc = bc.amplify(enc, magnitude, eps)
    elif magnitude < 1.0:
        enc = bc.scale_down(enc, _reciprocal(magnitude))
    if factor < 0.0:
        enc = bc.lcu([enc], [-1])
    return enc


def build_partial_be(
    iterate: BlockEncoding, objective: ObjectiveFunction, term_index: int, var: int, *, eps: float
) -> BlockEncoding:
    """Encoding of (a_i * e_iv / M) * monomial-derivative at diagonal slot var.

    Assembles the derivative of one term with respect to one of its support
    variables: one single-entry projection per needed factor, repeated
    products for powers (the d(f_i) products), the trivial projector when
    the variable appears linearly, then the combined coefficient scaling.
    """
    term = objective.terms[term_index]
    if term.exponents[var] == 0:
        raise VariableNotInSupport(
            f"term {term_index} has no variable {var}; its derivative vanishes"
        )
    factors = []
    for m in term.support:
        exponent = term.exponents[m] - (1 if m == var else 0)
        if exponent == 0:
            continue
        base = bc.entry_project(iterate, m, var)
        acc = base
        for _ in range(exponent - 1):
            acc = bc.product(acc, base)
        factors.append(acc)
    if factors:
        enc = factors[0]
        for extra in factors[1:]:
            enc = bc.product(enc, extra)
    else:
        # Monomial is x_var itself: the derivative factor is the bare projector.
        enc = bc.projector_encode(iterate.dim, var)
    factor = term.coeff * term.exponents[var] / objective.grad_bound
    return _apply_scalar_factor(enc, factor, eps)


def build_gradient_be(
    iterate: BlockEncoding, objective: ObjectiveFunction, *, eps: float
) -> BlockEncoding:
    """Encoding of (1/(2*M*K)) * diag(grad f) at the current iterate.

    Per contributing term: average its v per-variable partials, then restore
    the factor v/2 with _apply_scalar_factor, whose ScaleOverflow cannot fire
    here: the partials sit at distinct slots, so their average's norm is at
    most 1/v.  A final average over the K contributing terms assembles the
    full gradient diagonal.  Constant terms are dropped before averaging.
    """
    contributing = [i for i, t in enumerate(objective.terms) if t.support]
    if not contributing:
        return bc.diag_encode(np.zeros(iterate.dim))
    per_term = []
    for i in contributing:
        support = objective.terms[i].support
        partials = [build_partial_be(iterate, objective, i, p, eps=eps) for p in support]
        combined = bc.lcu(partials, [1] * len(partials))
        per_term.append(_apply_scalar_factor(combined, len(support) / 2.0, eps))
    return bc.lcu(per_term, [1] * len(per_term))


def gd_step_generic(
    iterate: BlockEncoding, gradient: BlockEncoding, *, eps: float
) -> BlockEncoding:
    """One update: signed average of iterate and gradient, then remove the 1/2.

    The amplification precondition is exactly the containment requirement
    max_i |x_{i,t+1}| <= 1/2; its failure signals an invalid schedule.
    """
    halved = bc.lcu([iterate, gradient], [1, -1])
    return bc.amplify(halved, 2.0, eps)


def separable_transform(
    poly: ChebyshevPoly, grad_bound: float, eta: float
) -> tuple[ChebyshevPoly, float]:
    """The one separable step-size rule: (P/divisor, p = 1/(eta*divisor)).

    divisor = max(2*M, 2 * sup |P|) makes |P/divisor| <= 1/2 on [-1, 1]; p
    must be finite and at least 1 - DOMAIN_TOL, else InvalidConfig (a NaN or
    too large eta would leave P/divisor unscaled).
    """
    divisor = max(2.0 * grad_bound, 2.0 * poly.grid_sup * (1.0 + 1e-12))
    p = _reciprocal(eta * divisor) if eta > 0.0 else 0.0
    if not (math.isfinite(p) and p >= 1.0 - DOMAIN_TOL):
        raise InvalidConfig(
            f"eta: expected a value in (0, 1/{divisor}] whose 1/(eta*divisor) is finite, "
            f"got {eta}; divisor = max(2*M, 2*sup|P|) by the measured derivative bound"
        )
    return ChebyshevPoly(tuple(c / divisor for c in poly.coeffs), poly.sup_error_bound / divisor), p


def gd_step_separable(
    iterate: BlockEncoding, transform: ChebyshevPoly, p_insert: float, eps: float
) -> BlockEncoding:
    """One update x <- x - eta * P(x) applied coordinate-wise.

    The eigenvalue transform applies P/divisor, and the down-scale by
    p_insert = 1/(eta*divisor) restores exactly eta * P (both as
    separable_transform returns them); the signed average subtracts, and the
    final amplification strips the 1/2.
    """
    transformed = bc.qsvt_transform(iterate, transform)
    if p_insert > 1.0 + DOMAIN_TOL:
        transformed = bc.scale_down(transformed, p_insert)
    halved = bc.lcu([iterate, transformed], [1, -1])
    return bc.amplify(halved, 2.0, eps)


def _drive(objective, x0, cfg: DescentConfig, eta: float, step, **extra) -> DescentTrace:
    """The one descent loop: encode x0, apply step T times, trace every iterate.

    step maps the iterate encoding to the next one; a BlockgdError it raises
    is re-raised, as its own type, naming the offending step.  The objective
    is read without a box check: x0 passed check_point and each later iterate
    amplify's max_i |x_i| <= 1/2.  As |df/dx_i| <= M on the box, a step moves
    a coordinate by at most eta*M, so schedule_bound_ok is max_i |x0_i| <=
    1/2 - eta*M*T.  f and its gradient are evaluated without numpy warnings,
    and a non-finite one (an objective that overflows between the grid points
    of cli.check_bounded) raises BlockgdError (exit 7) naming the step.
    """
    vec = check_point(x0, objective.n)
    enc = bc.diag_encode(vec)
    rows = np.empty((cfg.steps + 1, objective.n))
    gradients = np.empty_like(rows)
    f_values, eps_budgets, counters = [], [], []
    ledger = operator.attrgetter(*COUNTERS)
    for t in range(cfg.steps + 1):
        if t:
            try:
                enc = step(enc)
            except BlockgdError as exc:
                hint = ("; the initial vector violates the containment schedule"
                        if isinstance(exc, NormBoundViolated) else "")
                raise type(exc)(f"step {t}: {exc}{hint}") from exc
        x = rows[t]
        x[:] = np.real(enc.diagonal()[: objective.n])
        with np.errstate(all="ignore"):
            gradients[t] = objective._gradient(x)
            f = float(objective._evaluate(x))
        if not (math.isfinite(f) and np.isfinite(gradients[t]).all()):
            raise BlockgdError(f"step {t}: f = {f} or its gradient is not finite at the iterate")
        f_values.append(f)
        eps_budgets.append(enc.eps)
        counters.append(ledger(enc))
    rows.setflags(write=False)
    gradients.setflags(write=False)
    uniform = np.full(enc.dim, 1.0 / math.sqrt(enc.dim))
    radius = HALF - eta * objective.grad_bound * cfg.steps
    return DescentTrace(
        mode=cfg.mode,
        n=objective.n,
        eta=eta,
        eps=cfg.eps,
        steps=cfg.steps,
        grad_bound=objective.grad_bound,
        probability=bc.apply_postselect(enc, uniform).prob,
        schedule_bound_ok=bool(float(np.abs(vec).max()) <= radius + DOMAIN_TOL),
        norm_safety_ok=first_outside_box(rows) is None,
        rows=rows,
        gradients=gradients,
        f_values=f_values,
        eps_budgets=eps_budgets,
        counters=counters,
        **extra,
    )


def run_generic(objective: ObjectiveFunction, x0, cfg: DescentConfig) -> DescentTrace:
    """Drive T generic steps from diag-encoded x0 and trace every iterate.

    The sufficient containment condition max_i |x0_i| <= 1/2 - eta*M*T is
    recorded on the trace, not enforced up front: objectives that contract
    (or an explicit, well-chosen x0) may run safely far beyond it, and any
    actual violation surfaces as NormBoundViolated at the offending step.
    """
    if cfg.mode != GENERIC:
        raise InvalidConfig(f"run_generic requires mode='{GENERIC}', got {cfg.mode!r}")
    eta = step_size(GENERIC, objective, cfg.eta, cfg.eps)

    def step(enc: BlockEncoding) -> BlockEncoding:
        grad = build_gradient_be(enc, objective, eps=cfg.eps)
        return gd_step_generic(enc, grad, eps=cfg.eps)

    return _drive(objective, x0, cfg, eta, step)


def run_separable(objective: SeparableObjective, x0, cfg: DescentConfig) -> DescentTrace:
    """Drive T separable steps with a shared derivative polynomial."""
    if cfg.mode != SEPARABLE:
        raise InvalidConfig(
            f"run_separable requires mode='{SEPARABLE}', got {cfg.mode!r}"
        )
    eta = step_size(SEPARABLE, objective, cfg.eta, cfg.eps)
    poly = approx_derivative(objective.func, cfg.eps)  # the one step_size built
    transform, p_insert = separable_transform(poly, objective.grad_bound, eta)

    def step(enc: BlockEncoding) -> BlockEncoding:
        return gd_step_separable(enc, transform, p_insert, cfg.eps)

    return _drive(
        objective, x0, cfg, eta, step,
        poly_degree=poly.degree, poly_sup_error=poly.sup_error_bound,
    )


# ---------------------------------------------------------------------------
# Resource prediction
# ---------------------------------------------------------------------------

ENVELOPE_NOTE = (
    "asymptotic envelopes with unit constants; scaling guides, not runtime predictions"
)
# The cost regimes, in the order of the report's rows; each has an envelope
# "<regime>_total".
REGIMES = ("generic", "separable", "highly_sparse", "tensor_oracle", "classical")


@dataclass(frozen=True)
class CostParams:
    """Inputs for the cost report (blockgd.cli.load_cost_params reads them from JSON)."""

    n: int = 16
    terms: int = 3          # K
    degree: int = 4         # d, max total degree per term
    vars_per_term: int = 3  # v
    steps: int = 5          # T
    eps: float = 1e-6
    poly_degree: int = 8    # deg(P) for the separable engine
    sparsity: int = 2       # s
    sparse_rows: int = 2    # number of populated rows in the sparse regime
    tensor_order: int = 2   # p, half the homogeneous degree

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int":  # every field but eps; deg(P) may be 0
                value = as_index(getattr(self, f.name), f.name, InvalidConfig)
                low = 0 if f.name == "poly_degree" else 1
                if value < low:
                    raise InvalidConfig(f"{f.name} must be >= {low}")
                object.__setattr__(self, f.name, value)
        if not (0.0 < self.eps < 1.0):
            raise InvalidConfig("eps must lie in (0, 1)")


def _finite_or_none(formula) -> float | None:
    """The formula's value, or None when it overflows or divides by zero."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        return None
    return value if math.isfinite(value) else None


def envelope_formulas(params: CostParams) -> dict:
    """Per-regime cost envelopes with all constants set to one (logs base 2).

    An envelope that overflows, or whose eps power underflows to zero, is
    None (JSON null) instead of an infinity or a crash.
    """
    ln_n = math.log2(params.n) if params.n > 1 else 1.0
    ln_eps = math.log2(1.0 / params.eps)
    k, d, v, t = params.terms, params.degree, params.vars_per_term, params.steps
    s, rows, p = params.sparsity, params.sparse_rows, params.tensor_order
    formulas = {
        "generic_per_iteration": lambda: ln_n * (k**2) * d * (v**2) * ln_eps,
        "generic_total": lambda: ln_n * ((k**2) * d * (v**2) * ln_eps) ** t,
        "separable_per_iteration": lambda: ln_n * params.poly_degree * ln_eps,
        "separable_total": lambda: ln_n * (params.poly_degree * ln_eps) ** t,
        "highly_sparse_total": lambda: ln_n * ((s**2) * (rows**2) * p * ln_eps) ** t,
        "tensor_oracle_total": (
            lambda: ln_n * (p ** (5 * t)) * (s**t) / (params.eps ** (4 * t))
        ),
        "classical_total": lambda: float(params.n * d * k * v * t),
    }
    return {name: _finite_or_none(formula) for name, formula in formulas.items()}


def _canonical_objective(n: int, terms: int, degree: int, vars_per_term: int) -> ObjectiveFunction:
    """Deterministic synthetic family used to measure implemented counters."""
    if vars_per_term > n:
        raise InvalidConfig(f"v = {vars_per_term} cannot exceed n = {n}")
    if terms > n:
        raise InvalidConfig(f"probe family requires K <= n, got K = {terms}")
    if degree < vars_per_term:
        raise InvalidConfig(f"d = {degree} cannot be below v = {vars_per_term}")
    coeff = 1.0 / (4.0 * terms)
    built = []
    for i in range(terms):
        exps = [0] * n
        for j in range(vars_per_term):
            exps[(i + j) % n] = 1
        exps[i % n] += degree - vars_per_term
        built.append(MonomialTerm(coeff, tuple(exps)))
    return ObjectiveFunction(n, float(degree), tuple(built))


def _probe_start(n: int) -> np.ndarray:
    """Probe start point: 0.05 per coordinate, shrunk so that ||x0||_2 <= 1/2."""
    return np.full(n, min(0.05, HALF / math.sqrt(n)))


def measure_generic_iteration(
    n: int, terms: int, degree: int, vars_per_term: int, eps: float
) -> dict:
    """Measured counter increments of one generic iteration on the probe family."""
    objective = _canonical_objective(n, terms, degree, vars_per_term)
    cfg = DescentConfig(steps=1, eps=eps, mode=GENERIC)
    trace = run_generic(objective, _probe_start(n), cfg)
    return trace.per_iteration_deltas()[0]


def measure_separable_iteration(n: int, poly_degree: int, eps: float) -> dict:
    """Measured counter increments of one separable iteration (exact P of given degree)."""
    coeffs = [0.0] * (poly_degree + 1) + [0.5 / (poly_degree + 1)]
    func = ScalarFunction.polynomial(coeffs)
    objective = SeparableObjective(func=func, n=n, grad_bound=1.0)
    cfg = DescentConfig(steps=1, eps=eps, mode=SEPARABLE, eta=0.1)
    trace = run_separable(objective, _probe_start(n), cfg)
    return trace.per_iteration_deltas()[0]


def resource_predict(params: CostParams) -> dict:
    """Cost report: measured per-iteration counters, envelopes, crossover rows.

    The measured block reruns one iteration of a canonical synthetic family
    through the actual pipeline, so those numbers are exact implemented
    counters; the envelope block evaluates the per-regime asymptotic
    formulas with unit constants and is labeled as such.
    """
    measured = {
        "generic": measure_generic_iteration(
            params.n, params.terms, params.degree, params.vars_per_term, params.eps
        ),
        "separable": measure_separable_iteration(
            params.n, params.poly_degree, params.eps
        ),
    }
    crossover = []
    for t in range(1, params.steps + 1):
        env = envelope_formulas(replace(params, steps=t))
        crossover.append({"T": t, **{r: env[f"{r}_total"] for r in REGIMES}})
    return {
        "implemented_per_iteration": measured,
        "envelopes": envelope_formulas(params),
        "envelope_note": ENVELOPE_NOTE,
        "crossover": crossover,
    }
