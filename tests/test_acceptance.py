"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import blockgd.blockcalc as bc
from blockgd.blockcalc import BlockEncoding
from blockgd.chebyshev import ScalarFunction, SeparableObjective
from blockgd.descent import (
    CostParams,
    DescentConfig,
    envelope_formulas,
    eta_generic,
    initial_state_uniform,
    measure_generic_iteration,
    run_generic,
    run_separable,
)
from blockgd.errors import DomainExit
from blockgd.oracle import classical_gd
from blockgd.polyfunc import MonomialTerm, ObjectiveFunction
from _dilation import corner_of, realize_dilation
from _grid import grid_maxima

REPO = Path(__file__).resolve().parents[1]
SQRT2 = math.sqrt(2)


def _passed(line: str):
    print(f"PASS {line}")


def _random_instance(rng):
    """One randomized objective with bounds checked by sampling."""
    n = int(rng.choice([2, 4, 8]))
    k = int(rng.integers(1, 5))
    terms = []
    for _ in range(k):
        v = int(rng.integers(1, min(3, n) + 1))
        chosen = rng.choice(n, size=v, replace=False)
        total = int(rng.integers(v, 5))
        exps = [0] * n
        for idx in chosen:
            exps[int(idx)] = 1
        exps[int(chosen[0])] += total - v
        terms.append(MonomialTerm(float(rng.uniform(-1.0, 1.0)), tuple(exps)))
    raw = ObjectiveFunction(n, 1.0, tuple(terms))
    if not raw.terms:
        return None
    max_abs_f, max_grad_norm = grid_maxima(raw, 5)
    scale = min(1.0, 0.4 / max(max_abs_f, 1e-9))
    scaled_terms = tuple(MonomialTerm(t.coeff * scale, t.exponents) for t in raw.terms)
    m_bound = max(1.5 * scale * max_grad_norm, 0.1)
    objective = ObjectiveFunction(n, m_bound, scaled_terms)
    max_abs_f, max_grad_norm = grid_maxima(objective, 5)
    if not (max_abs_f <= 0.5 and max_grad_norm <= m_bound):
        return None
    return objective


def test_criterion_01_oracle_equivalence_generic():
    rng = np.random.default_rng(20250808)
    started = time.monotonic()
    completed = 0
    while completed < 25:
        objective = _random_instance(rng)
        if objective is None:
            continue
        steps = int(rng.integers(1, 6))
        x0 = rng.uniform(-0.15, 0.15, size=objective.n)
        eta = eta_generic(objective)
        if eta == 0.0:
            continue
        try:
            reference = classical_gd(objective, x0, eta, steps)
        except DomainExit:
            continue  # not a compliant start for this schedule
        if np.max(np.abs(reference.as_array())) > 0.45:
            continue
        cfg = DescentConfig(steps=steps, eps=1e-6, mode="generic")
        trace = run_generic(objective, x0, cfg)
        deviation = float(np.max(np.abs(trace.iterates() - reference.as_array())))
        assert deviation <= 16 * steps * 1e-6, (
            f"instance {completed}: deviation {deviation}"
        )
        completed += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _passed(f"criterion 1: 25 randomized generic runs match the oracle "
            f"within 16*T*eps ({elapsed:.2f}s)")


def test_criterion_02_closed_form_contraction():
    objective = ObjectiveFunction(
        2, SQRT2, (MonomialTerm(1.0, (2, 0)), MonomialTerm(1.0, (0, 2)))
    )
    eta = eta_generic(objective)
    assert eta == pytest.approx(1 / (4 * SQRT2), abs=1e-15)
    cfg = DescentConfig(steps=5, eps=1e-6, mode="generic")
    x0 = np.array([0.2, 0.1])
    trace = run_generic(objective, x0, cfg)
    expected = (1 - 2 * eta) ** 5 * x0
    deviation = float(np.max(np.abs(trace.final_iterate() - expected)))
    assert deviation <= 1e-8
    _passed(f"criterion 2: x_5 matches (1-2*eta)^5 * x_0 within 1e-8 "
            f"(deviation {deviation:.2e})")


def test_criterion_03_primitive_exactness():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dim = int(rng.choice([2, 4, 8]))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi) * float(rng.uniform(1.0, 2.0))
        enc = bc.diag_encode(psi)
        assert np.max(np.abs(enc.corner - np.diag(psi))) <= 1e-12
    for _ in range(50):
        dim = int(rng.choice([2, 4, 8, 16]))
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat /= np.linalg.norm(mat, 2) * float(rng.uniform(1.0, 2.5))
        u = realize_dilation(BlockEncoding(mat))
        assert np.linalg.norm(u.conj().T @ u - np.eye(2 * dim), 2) <= 1e-10
    for _ in range(20):
        diag = rng.uniform(-0.9, 0.9, size=8)
        coeffs = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 6)))
        poly = np.polynomial.Polynomial(coeffs)
        sup = float(np.max(np.abs(poly(np.linspace(-1, 1, 2001)))))
        poly = np.polynomial.Polynomial(coeffs * (0.45 / max(sup, 1e-9)))
        out = bc.qsvt_transform(BlockEncoding(np.diag(diag)), poly)
        assert np.max(np.abs(np.diag(out.corner) - poly(diag))) <= 1e-10
    _passed("criterion 3: diagonal encodings exact to 1e-12, dilations unitary "
            "to 1e-10, eigenvalue transforms elementwise to 1e-10")


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mat /= np.linalg.norm(mat, 2) * float(rng.uniform(1.3, 2.5))
        return ("leaf", mat)
    op = rng.choice(["product", "lcu", "scale"])
    if op == "product":
        return ("product", _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if op == "scale":
        return ("scale", _random_tree(rng, depth - 1), float(rng.uniform(1.2, 3.0)))
    m = int(rng.integers(2, 4))
    signs = [int(s) for s in rng.choice([-1, 1], size=m)]
    return ("lcu", [_random_tree(rng, depth - 1) for _ in range(m)], signs)


def _anc_dim(node) -> int:
    kind = node[0]
    if kind == "leaf":
        return 2
    if kind == "product":
        return _anc_dim(node[1]) * _anc_dim(node[2])
    if kind == "scale":
        return 2 * _anc_dim(node[1])
    return len(node[1]) * math.prod(_anc_dim(c) for c in node[1])


def _calculus_eval(node) -> BlockEncoding:
    kind = node[0]
    if kind == "leaf":
        return BlockEncoding(node[1])
    if kind == "product":
        return bc.product(_calculus_eval(node[1]), _calculus_eval(node[2]))
    if kind == "scale":
        return bc.scale_down(_calculus_eval(node[1]), node[2])
    return bc.lcu([_calculus_eval(c) for c in node[1]], node[2])


def test_criterion_04_dilation_composition_soundness():
    rng = np.random.default_rng(44)
    checked = 0
    worst = 0.0
    while checked < 20:
        tree = _random_tree(rng, depth=int(rng.integers(1, 4)))
        if tree[0] == "leaf" or _anc_dim(tree) > 128:
            continue
        calculus = _calculus_eval(tree).corner
        oracle = corner_of(tree, 4)
        deviation = float(np.max(np.abs(calculus - oracle)))
        assert deviation <= 1e-9, f"tree {checked}: deviation {deviation}"
        worst = max(worst, deviation)
        checked += 1
    _passed(f"criterion 4: 20 composed dilations agree with the calculus "
            f"within 1e-9 (worst {worst:.2e})")


def _half_square_separable(n):
    return SeparableObjective(
        ScalarFunction.polynomial([0.0, 0.0, 0.5]), n=n, grad_bound=1.0
    )


def _tiny_quadratic(n, k, coeff):
    terms = tuple(
        MonomialTerm(coeff, tuple(2 if j == i else 0 for j in range(n)))
        for i in range(k)
    )
    return ObjectiveFunction(n, 1.0, terms)


def test_criterion_05_norm_safety_schedules():
    runs = 0
    # Generic schedules: eta is pinned to 1/(2*M*K), so eta*M*T = T/(2K).
    for k, steps, n in ((2, 1, 4), (4, 2, 8), (4, 3, 4), (8, 7, 8)):
        objective = _tiny_quadratic(n, k, 0.01)
        eta = eta_generic(objective)
        slack = 0.5 - eta * objective.grad_bound * steps
        x0 = initial_state_uniform(eta, objective.grad_bound, steps, n)
        assert float(np.max(np.abs(x0))) == slack  # exactly achieved
        trace = run_generic(objective, x0, DescentConfig(steps=steps, eps=1e-6,
                                                         mode="generic"))
        assert trace.norm_safety_ok
        assert max(max(abs(v) for v in r.x) for r in trace.records) <= 0.5
        runs += 1
    # Separable schedules with dyadic eta*T.
    for eta, steps, n in ((0.25, 1, 4), (0.125, 2, 4), (0.0625, 4, 8),
                          (0.1875, 2, 8), (0.09375, 4, 4), (0.109375, 4, 8)):
        objective = _half_square_separable(n)
        slack = 0.5 - eta * steps
        x0 = initial_state_uniform(eta, 1.0, steps, n)
        assert float(np.max(np.abs(x0))) == slack
        trace = run_separable(
            objective, x0,
            DescentConfig(steps=steps, eps=1e-6, mode="separable", eta=eta),
        )
        assert trace.norm_safety_ok
        assert max(max(abs(v) for v in r.x) for r in trace.records) <= 0.5
        runs += 1
    assert runs == 10
    _passed("criterion 5: 10 exactly-saturated uniform schedules stay within "
            "max|x_i| <= 1/2 with no norm-bound violations")


def test_criterion_06_post_selection_contract():
    runs = []
    for n, k in ((2, 2), (4, 3), (8, 4)):
        objective = _tiny_quadratic(n, k, 0.02)
        runs.append(
            run_generic(
                objective, np.full(n, 0.2),
                DescentConfig(steps=3, eps=1e-6, mode="generic"),
            )
        )
    for n in (2, 4, 8):
        runs.append(
            run_separable(
                _half_square_separable(n), np.full(n, 0.2),
                DescentConfig(steps=3, eps=1e-6, mode="separable", eta=0.1),
            )
        )
    for trace in runs:
        final = trace.final_iterate()
        expected = float(final @ final) / trace.n
        assert abs(trace.probability - expected) <= 1e-10
    _passed("criterion 6: post-selection probability equals ||x_T||^2 / n "
            "within 1e-10 on all completed runs")


def test_criterion_07_separable_engine():
    objective = SeparableObjective(ScalarFunction.named("sin", 1.0), n=8,
                                   grad_bound=1.0)
    x0 = initial_state_uniform(0.1, 1.0, 3, 8)
    cfg = DescentConfig(steps=3, eps=1e-6, mode="separable", eta=0.1)
    trace = run_separable(objective, x0, cfg)
    assert trace.poly_degree <= 20
    x = np.asarray(x0, dtype=float)
    for _ in range(3):
        x = x - 0.1 * np.cos(x)
    tolerance = 10 * (trace.poly_sup_error + 16 * 3 * 1e-6)
    deviation = float(np.max(np.abs(trace.iterates()[-1] - x)))
    assert deviation <= tolerance
    _passed(f"criterion 7: separable sin run matches x - 0.1*cos(x) within "
            f"{tolerance:.2e} (deviation {deviation:.2e}, degree "
            f"{trace.poly_degree})")


def test_criterion_08_counter_regression():
    objective = _tiny_quadratic(4, 2, 0.02)
    cfg = DescentConfig(steps=3, eps=1e-6, mode="generic")
    first = run_generic(objective, np.full(4, 0.2), cfg).per_iteration_deltas()
    second = run_generic(objective, np.full(4, 0.2), cfg).per_iteration_deltas()
    assert first == second  # exactly reproducible increments
    base = envelope_formulas(CostParams(terms=3))["generic_per_iteration"]
    doubled = envelope_formulas(CostParams(terms=6))["generic_per_iteration"]
    assert doubled / base == 4.0  # K-squared law, exactly
    k_depths = [measure_generic_iteration(8, k, 3, 2, 1e-6)["depth_units"]
                for k in (1, 2, 4)]
    d_depths = [measure_generic_iteration(8, 2, d, 2, 1e-6)["depth_units"]
                for d in (2, 3, 4)]
    v_depths = [measure_generic_iteration(8, 2, 4, v, 1e-6)["depth_units"]
                for v in (1, 2, 3)]
    e_depths = [measure_generic_iteration(8, 2, 3, 3, eps)["depth_units"]
                for eps in (1e-3, 1e-6, 1e-9)]
    for series in (k_depths, d_depths, v_depths, e_depths):
        assert series == sorted(series), f"not monotone: {series}"
        assert series[-1] > series[0]
    _passed("criterion 8: increments reproducible, envelope K-squared ratio "
            "exactly 4, measured depth monotone in K, d, v, log(1/eps)")


def test_criterion_09_error_budget_soundness():
    rng = np.random.default_rng(99)
    eps0 = 1e-4
    for trial in range(20):
        a_mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a_mat /= np.linalg.norm(a_mat, 2) * 1.5
        b_mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b_mat /= np.linalg.norm(b_mat, 2) * 1.5
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noise *= eps0 / np.linalg.norm(noise, 2)
        clean = BlockEncoding(a_mat)
        dirty = BlockEncoding(a_mat + noise, eps=eps0)
        other = BlockEncoding(b_mat)
        ops = [
            lambda u, v: bc.product(u, v),
            lambda u, v: bc.product(v, u),
            lambda u, v: bc.lcu([u, v], [1, -1]),
        ]
        op = ops[trial % len(ops)]
        out_clean = op(clean, other)
        out_dirty = op(dirty, other)
        deviation = out_clean.alpha * float(
            np.linalg.norm(out_clean.corner - out_dirty.corner, 2)
        )
        assert deviation <= out_dirty.eps + 1e-12
    _passed("criterion 9: injected 1e-4 perturbations stay within the "
            "propagated error budget over 20 trials")


def test_criterion_10_cli_determinism(tmp_path):
    for config in ("quadratic.json", "separable_sin.json"):
        outputs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"{config}-{tag}"
            result = subprocess.run(
                [sys.executable, "-m", "blockgd", "run",
                 "--config", str(REPO / "configs" / config),
                 "--out", str(out_dir), "--audit"],
                capture_output=True,
                text=True,
                cwd=REPO,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out_dir)
        first, second = outputs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    _passed("criterion 10: repeated CLI runs of both bundled configs are "
            "byte-identical")
