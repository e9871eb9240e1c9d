"""Seeded input generator for the blockgd benchmark.

Everything here is plain data (JSON-ready dicts and lists) built with the
standard library's ``random.Random(seed)``, so one seed gives the same inputs
in every process and the program under test sees only the generated inputs.

Every input is feasible by construction, never by discarding runs that fail:

* each objective carries a gradient bound ``M`` proved from its form;
* each start point keeps every iterate of its schedule strictly inside the
  box ``[-1/2, 1/2]^n`` and every amplification below its norm cap, by the
  bounds worked out in ``generic_objective``, ``generic_x0`` and
  ``separable_bound``.

Why each workload exists (BENCHMARK.json repeats it for the two it lists):

* ``generic_dense``: the generic engine at n=256, T=3 on K=3, d=4, v=3
  monomials.  Dense ``blockcalc`` algebra dominates: almost all of a run is
  the SVD behind ``spectral_norm``.  Diagonal-native encodings should show
  their gain here.
* ``separable_steps``: the separable engine at n=16 and 32 with T=40.
  Per-step fixed costs dominate (sup checks on 2048-point Chebyshev grids,
  small SVDs), not O(N^3).  Hoisting per-step work out of the step loop shows
  here and not on ``generic_dense``.
* ``cli_audit``: ``python -m blockgd`` processes run one at a time: the
  shipped configs with ``--audit``, ``compare-costs`` and a ``--sweep
  --audit`` over generated configs in both modes.  Start-up, artifact writing
  and the audit log's hashing dominate; the sweep covers the thread pool.
"""

from __future__ import annotations

import math
import random

HALF = 0.5
EPS = 1e-6
SEPARABLE_FAMILIES = ("sin", "cos", "exp", "gaussian", "logistic")
# For scales in [0.5, 2] the derivative polynomial stays below 2.8 M on all of
# [-1, 1] for every family (gaussian breaks this near |s| = 3), so the engine's
# check eta * 2 sup|P| <= 1 holds for any eta = 1/(4 M H) with H >= 2.
SCALE_RANGE = (0.5, 2.0)
# M is the proved bound times this pad, so that T steps of size eta*|P| <= 1/(4T)
# move an iterate by at most 1/(4*PAD) + eps and never reach the box edge.
M_PAD = 1.0625
# Generic coefficient magnitudes; see generic_objective for why the band is narrow.
COEFF_RANGE = (0.92, 1.0)
# Radius ladder for generic start points, widest first (see generic_x0).
X0_RADII = (0.25, 0.2, 0.15, 0.1, 0.05)
GENERIC_RADIUS_CAP = 0.45
# The CLI's envelope code underflows eps**(4T) to 0 for eps = 1e-6 at T >= 14
# and exits 1; the traced cli_audit run probes that defect with T in this range.
DEFECT_T_RANGE = (14, 16)


def separable_bound(name: str, scale: float) -> float:
    """Proved sup of |F'| on [-1/2, 1/2] for a named family, times M_PAD."""
    s = abs(scale)
    bound = {
        "sin": s,                                 # |s cos(sx)| <= s
        "cos": s,                                 # |s sin(sx)| <= s
        "exp": s * math.exp(s / 2.0),             # s e^{sx} at x = 1/2
        "gaussian": s * math.sqrt(2.0 / math.e),  # 2s|u|e^{-u^2} <= s sqrt(2/e)
        "logistic": s / 4.0,                      # s L(1-L) <= s/4
    }[name]
    return bound * M_PAD


def separable_instance(name: str, n: int, steps: int, scale: float, horizon: int) -> dict:
    """Named family at a given scale, eta = 1/(4 M H) for a horizon H >= max(T, 2).

    x0 is the uniform state for that schedule, |x0| <= 1/4, and T steps move
    an iterate by at most T eta (M / M_PAD + eps) < 1/4.
    """
    m_bound = separable_bound(name, scale)
    return {
        "name": name,
        "scale": scale,
        "n": n,
        "M": m_bound,
        "T": steps,
        "eps": EPS,
        "eta": 1.0 / (4.0 * m_bound * horizon),
    }


def stratified_scales(rng: random.Random, count: int) -> list:
    """One scale from each of `count` equal strata of SCALE_RANGE, random signs.

    Every seed then covers the whole range evenly, so the spread of step
    costs across a cycle, not just their sum, is nearly seed-independent.
    """
    lo, hi = SCALE_RANGE
    return [rng.choice((-1.0, 1.0)) * (lo + (hi - lo) * (k + rng.random()) / count)
            for k in range(count)]


def generic_objective(rng: random.Random, n: int, negatives: int, terms: int = 3,
                      degree: int = 4, vars_per_term: int = 3) -> dict:
    """K terms a * prod x_m^{e_m} of total degree d over v distinct variables.

    Supports, the extra exponent and which `negatives` terms are negative are
    random.  M = sum_i |a_i| * sqrt(sum_m e_im^2) * (1/2)^(d-1) bounds
    ||grad f||_2 on the box, because |d term / d x_m| <= |a| e_m (1/2)^(d-1)
    there.

    |a| lies in COEFF_RANGE.  For the defaults that puts every coefficient
    factor |a| e_m / M of build_partial_be above 1 (so each partial is
    amplified, never scaled down), and each partial at most
    |a| e_max / 2^(d-1) / M < 0.3 of M, below the 1/2 cap of the
    amplifications in build_partial_be and build_gradient_be.  Together with
    a fixed count of negative terms (each adds one signed average per
    partial), the sequence of calculus operations, and so the cost of a run,
    is the same for every seed.
    """
    seen = set()
    out = []
    while len(out) < terms:
        support = rng.sample(range(n), vars_per_term)
        exps = [0] * n
        for m in support:
            exps[m] = 1
        for _ in range(degree - vars_per_term):
            exps[rng.choice(support)] += 1
        if tuple(exps) in seen:  # merged terms would change K; draw a fresh support
            continue
        seen.add(tuple(exps))
        out.append({"coeff": rng.uniform(*COEFF_RANGE), "exponents": exps})
    for i in rng.sample(range(terms), negatives):
        out[i]["coeff"] = -out[i]["coeff"]
    m_bound = sum(
        abs(t["coeff"]) * math.sqrt(sum(e * e for e in t["exponents"])) * HALF ** (degree - 1)
        for t in out
    )
    factors = [abs(t["coeff"]) * e / m_bound for t in out for e in t["exponents"] if e]
    if min(factors) <= 1.0 or max(factors) * HALF ** (degree - 1) >= 0.5:
        raise AssertionError("generator invariant broken: see generic_objective")
    return {"n": n, "M": m_bound, "terms": out}


def _radius_after(objective: dict, r0: float, steps: int) -> float:
    """Bound on ||x_t||_inf after `steps` generic steps from ||x0||_inf <= r0.

    With eta = 1/(2 M K) and ||x||_inf <= r, each coordinate moves by at most
    eta * sum_i |a_i| e_max,i r^(d_i - 1) in one step.
    """
    terms = objective["terms"]
    eta = 1.0 / (2.0 * objective["M"] * len(terms))
    r = r0
    for _ in range(steps):
        r += eta * sum(
            abs(t["coeff"]) * max(t["exponents"]) * r ** (sum(t["exponents"]) - 1)
            for t in terms
        )
    return r


def generic_x0(rng: random.Random, objective: dict, steps: int, l2_cap: float = 0.9) -> list:
    """Random start with ||x0||_2 <= l2_cap and ||x_t||_inf < 0.45 for t <= T.

    The radius is the widest rung of X0_RADII whose worst-case growth over
    the schedule stays below GENERIC_RADIUS_CAP.
    """
    r0 = next(r for r in X0_RADII
              if _radius_after(objective, r, steps) < GENERIC_RADIUS_CAP)
    n = objective["n"]
    x0 = [rng.uniform(-r0, r0) for _ in range(n)]
    norm = math.sqrt(sum(v * v for v in x0))
    target = rng.uniform(l2_cap / 2.0, l2_cap)
    if norm > target:
        x0 = [v * target / norm for v in x0]
    return x0


def generic_instance(rng: random.Random, n: int, steps: int, negatives: int) -> dict:
    objective = generic_objective(rng, n, negatives)
    return {"objective": objective, "x0": generic_x0(rng, objective, steps),
            "T": steps, "eps": EPS}


def generic_config(instance: dict) -> dict:
    """CLI config for a generic instance (eta is pinned by the engine)."""
    return {"mode": "generic", "objective": instance["objective"],
            "x0": instance["x0"], "T": instance["T"], "eps": instance["eps"]}


def separable_config(instance: dict) -> dict:
    return {
        "mode": "separable",
        "objective": {"kind": "named", "name": instance["name"],
                      "scale": instance["scale"], "n": instance["n"], "M": instance["M"]},
        "x0": {"uniform_q": "auto"},
        "T": instance["T"],
        "eps": instance["eps"],
        "eta": instance["eta"],
    }


def defect_config(rng: random.Random) -> dict:
    """Contracting quadratic sum a*(x0^2 + x1^2) with T >= 14 at eps = 1e-6.

    M = 2a * ||x||_2 <= a*sqrt(2) on the box; eta = 1/(2 M K) makes each step
    the contraction x <- x * (1 - 1/(2 sqrt 2)), so the run itself succeeds and
    only the envelope code afterwards can fail.
    """
    a = rng.uniform(0.5, 1.0)
    return {
        "mode": "generic",
        "objective": {"n": 2, "M": a * math.sqrt(2.0),
                      "terms": [{"coeff": a, "exponents": [2, 0]},
                                {"coeff": a, "exponents": [0, 2]}]},
        "x0": [rng.uniform(0.005, 0.05), rng.uniform(0.005, 0.05)],
        "T": rng.randint(*DEFECT_T_RANGE),
        "eps": EPS,
    }


def generate(workload: str, seed: int, tiny: bool = False) -> dict:
    """All inputs of one workload for one seed.

    ``tiny`` shrinks every size for the harness self-check only.
    """
    rng = random.Random(f"{workload}:{seed}")
    base = {"workload": workload, "seed": seed}
    if workload == "generic_dense":
        n, steps, count = (16, 2, 2) if tiny else (256, 3, 2)
        # One and two negative terms: the same pair of op sequences every seed.
        return {**base, "instances": [generic_instance(rng, n, steps, 1 + i % 2)
                                      for i in range(count)]}
    if workload == "separable_steps":
        sizes, steps = ((4, 8), 5) if tiny else ((16, 32), 40)
        # Every family at both sizes and across the scale range in each
        # cycle, so the mix of work is the same for every seed.
        return {**base, "instances": [
            separable_instance(name, n, steps, scale, steps)
            for name in SEPARABLE_FAMILIES for n in sizes
            for scale in stratified_scales(rng, 2 if tiny else 4)]}
    if workload == "cli_audit":
        # Each slot class draws T in the users' range 1..13 as an antithetic
        # pair (T, 14 - T): every sweep spans short and long runs, and its
        # total work, hence its time, barely depends on the seed.
        classes = [("generic", 8), ("separable", 8)] if tiny else [
            ("generic", 128), ("generic", 64), ("separable", 256), ("separable", 128)]
        top = 3 if tiny else 13
        sweep = []
        for mode, n in classes:
            first = rng.randint(1, top)
            name = SEPARABLE_FAMILIES[rng.randrange(len(SEPARABLE_FAMILIES))]
            scales = stratified_scales(rng, 2)
            for i, steps in enumerate((first, top + 1 - first)):
                if mode == "generic":
                    config = generic_config(generic_instance(rng, n, steps, 1 + i))
                else:
                    config = separable_config(
                        separable_instance(name, n, steps, scales[i], top))
                sweep.append({"name": f"gen{len(sweep)}_{mode}_n{n}_T{steps}",
                              "config": config})
        return {**base, "sweep": sweep, "defect": defect_config(rng)}
    raise ValueError(f"unknown workload {workload!r}")
