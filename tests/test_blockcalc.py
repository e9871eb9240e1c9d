import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import Polynomial

import blockgd.blockcalc as bc
from blockgd.blockcalc import AuditLog, BlockEncoding
from blockgd.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidErrorBudget,
    InvalidScale,
    MixedAlpha,
    NormBoundViolated,
    NormTooLarge,
    NotDiagonal,
    NotHermitian,
    NotNormalized,
    PolyBoundViolated,
)
from _audit_replay import SUMMARY, replay
from _dilation import corner_of, realize_dilation
from _poly import cheb_poly


def refuse_svd(mat):
    raise AssertionError("a diagonal encoding took the dense SVD path")


def random_diagonal(rng, dim, bound=0.2):
    """Real diagonal in [-bound, bound] with about a third of its entries zero."""
    diag = rng.uniform(-bound, bound, size=dim)
    diag[rng.random(dim) < 0.3] = 0.0
    return diag


def dense_twin(enc):
    return BlockEncoding(enc.corner, enc.alpha, enc.ancillas, enc.eps,
                         depth_units=enc.depth_units, queries=enc.queries)


def primitive_outputs(x, y):
    """One output of every two-sided calculus primitive applied to x and y."""
    return {
        "entry_project": bc.entry_project(x, 1, 2),
        "product": bc.product(x, y),
        "lcu": bc.lcu([x, y, x], [1, -1, -1]),
        "scale_down": bc.scale_down(y, 3.0),
        "amplify": bc.amplify(x, 2.0, 1e-6),
        "qsvt_transform": bc.qsvt_transform(y, cheb_poly([0.05, -0.1, 0.3])),
    }


def random_contraction(rng, dim, max_norm=0.9):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return mat / np.linalg.norm(mat, 2) * max_norm * rng.uniform(0.2, 1.0)


class TestBlockEncodingType:
    def test_norm_invariant_enforced(self):
        with pytest.raises(NormTooLarge):
            BlockEncoding(np.diag([1.2, 0.0]))

    @pytest.mark.parametrize("excess, fits", [(0.5e-10, True), (1e-8, False)])
    def test_norm_tolerance_forgives_rounding_only(self, excess, fits):
        # NORM_TOL = 1e-10 admits a rounding excess, not a norm of 1 + 1e-8,
        # in every storage of a corner and in diag_encode's amplitude vector.
        top = 1.0 + excess
        builds = (
            lambda: BlockEncoding(np.diag([top, 0.0])),
            lambda: bc._encoding(np.array([top, 0.0], dtype=complex), 2, 1.0, 0.0, (), 0, 0, 0),
            lambda: bc._encoding({0: complex(top)}, 2, 1.0, 0.0, (), 0, 0, 0),
            lambda: bc.diag_encode([top]),
        )
        for build in builds:
            if fits:
                build()
            else:
                with pytest.raises(NormTooLarge):
                    build()

    def test_padding_to_power_of_two(self):
        enc = BlockEncoding(np.diag([0.5, 0.5, 0.5]))
        assert enc.dim == 4
        assert enc.corner[3, 3] == 0.0

    def test_immutable_corner(self):
        for enc in (BlockEncoding(np.diag([0.5, 0.5])), bc.diag_encode([0.5, 0.5])):
            with pytest.raises(ValueError):
                enc.corner[0, 0] = 1.0
            assert np.array_equal(enc.corner, np.diag([0.5, 0.5]))

    def test_counters_are_keyword_only(self):
        enc = BlockEncoding(np.diag([0.5, 0.5]), 1.0, 3, 0.0, depth_units=4, queries=5)
        assert tuple(getattr(enc, name) for name in bc.COUNTERS) == (4, 5, 3)
        with pytest.raises(TypeError):
            BlockEncoding(np.diag([0.5, 0.5]), 1.0, 3, 0.0, (4, 5))

    def test_numpy_scalars_render_as_json_numbers(self):
        # The constructor makes alpha and eps floats and the counters ints.
        enc = BlockEncoding(np.eye(2) * 0.5, np.float64(1.0), np.int64(2), np.float32(0.0),
                            depth_units=np.int32(3), queries=True)
        assert enc._audited.startswith(
            '{"alpha": 1.0, "ancillas": 2, "depth_units": 3, "eps": 0.0, "id": ')
        assert enc._audited.endswith('"queries": 1}')
        assert json.loads(enc._audited) == enc.summary()

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            BlockEncoding(np.diag([0.5, 0.5]), alpha=0.5)

    @pytest.mark.parametrize("corner, kwargs, error", [
        (np.diag([1.2, 0.0]), {}, NormTooLarge),
        (np.diag([math.nan, 0.1]), {}, NormTooLarge),
        (np.diag([math.inf, 0.1]), {}, NormTooLarge),
        (np.array([[0.1, math.nan], [0.0, 0.1]]), {}, NormTooLarge),
        (np.diag([0.5, 0.5]), {"alpha": math.nan}, ValueError),
        (np.diag([0.5, 0.5]), {"alpha": math.inf}, ValueError),
        (np.diag([0.5, 0.5]), {"eps": math.nan}, ValueError),
        (np.diag([0.5, 0.5]), {"eps": math.inf}, ValueError),
        (np.diag([0.5, 0.5]), {"eps": -1e-9}, ValueError),
        (np.diag([0.5, 0.5]), {"ancillas": -1}, ValueError),
    ], ids=["norm", "norm-nan", "norm-inf", "off-diagonal-nan", "alpha-nan", "alpha-inf",
            "eps-nan", "eps-inf", "eps-negative", "ancillas-negative"])
    def test_sealing_checks(self, corner, kwargs, error):
        with pytest.raises(error):
            BlockEncoding(corner, **kwargs)
        # The primitives seal through the same checks; alpha is the one of
        # them a caller's argument reaches.
        if "alpha" in kwargs:
            with pytest.raises(error, match="alpha"):
                bc.diag_encode([0.5, 0.5], alpha=kwargs["alpha"])


    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.1, math.nan)],
                             ids=["nan", "inf", "complex-nan"])
    def test_non_finite_diagonal_rejected_in_every_form(self, entry):
        diag = np.array([entry, 0.1], dtype=complex)
        with pytest.raises(NormTooLarge):
            bc.diag_encode(diag)
        with pytest.raises(NormTooLarge):
            bc._encoding(diag, 2, 1.0, 0.0, (), 0, 0, 0)
        # A slot map's norm stays NaN whether the NaN comes first or last.
        for slots in ({0: diag[0], 1: diag[1]}, {1: diag[1], 0: diag[0]}):
            with pytest.raises(NormTooLarge):
                bc._encoding(slots, 2, 1.0, 0.0, (), 0, 0, 0)


class TestDiagEncode:
    def test_basis_state(self):
        enc = bc.diag_encode([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(enc.corner, np.diag([1, 0, 0, 0]))
        assert enc.ancillas == 5  # log2(4) + 3
        assert enc.eps == 0.0
        assert enc.depth_units == 2

    def test_uniform_state(self):
        enc = bc.diag_encode([0.5] * 4)
        assert np.allclose(np.diag(enc.corner), 0.5)

    def test_norm_too_large(self):
        with pytest.raises(NormTooLarge):
            bc.diag_encode([0.8, 0.8, 0.4, 0.4])

    def test_exactness_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.choice([2, 4, 8]))
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi) * rng.uniform(1.0, 2.0)
            enc = bc.diag_encode(psi)
            assert np.max(np.abs(enc.corner - np.diag(psi))) <= 1e-12


class TestEntryProject:
    def test_keep_first_entry(self):
        x = bc.diag_encode([0.1, 0.2, 0.3, 0.4])
        out = bc.entry_project(x, 0, 0)
        assert np.allclose(out.corner, np.diag([0.1, 0, 0, 0]))

    def test_move_entry(self):
        x = bc.diag_encode([0.1, 0.2, 0.3, 0.4])
        out = bc.entry_project(x, 1, 3)
        assert np.allclose(out.corner, np.diag([0, 0, 0, 0.2]))
        assert out.queries == x.queries + 2
        assert out.ancillas == x.ancillas + 2 + 3

    def test_zero_entry(self):
        x = bc.diag_encode([0.0, 0.2])
        out = bc.entry_project(x, 0, 0)
        assert np.allclose(out.corner, 0.0)

    def test_requires_diagonal(self):
        enc = BlockEncoding(np.full((2, 2), 0.3))
        with pytest.raises(NotDiagonal):
            bc.entry_project(enc, 0, 0)

    def test_index_checked(self):
        x = bc.diag_encode([0.1, 0.2])
        with pytest.raises(IndexOutOfRange):
            bc.entry_project(x, 2, 0)

    def test_dense_diagonal_check_comes_first_and_forgives_diag_tol(self):
        off = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotDiagonal, match="entry_project requires a diagonal corner"):
            bc.entry_project(BlockEncoding(np.diag([0.3, 0.2]) + 1e3 * bc.DIAG_TOL * off), 5, 0)
        near = BlockEncoding(np.diag([0.3, 0.2]) + bc.DIAG_TOL * off)
        out = bc.entry_project(near, 1, 0)
        assert np.array_equal(out.diagonal(), [0.2, 0.0])

    def test_indices_are_recorded_as_plain_ints(self):
        audit = AuditLog()
        with bc.recording(audit):
            bc.entry_project(bc.projector_encode(np.int64(4), True), np.int64(1), True)
        assert [r["params"] for r in audit.records] == [{"dim": 4, "k": 1}, {"j": 1, "k": 1}]
        assert [type(v) for r in audit.records for v in r["params"].values()] == [int] * 4

    def test_slot_maps_and_vectors_are_diagonal_by_their_form(self, monkeypatch):
        def refuse(enc):
            raise AssertionError("a diagonal form was checked for off-diagonal entries")

        monkeypatch.setattr(BlockEncoding, "is_diagonal", refuse)
        vector = bc.diag_encode([0.1, 0.2, 0.3, 0.4])
        slots = bc.entry_project(vector, 2, 1)
        assert type(vector._data) is not dict and type(slots._data) is dict
        assert np.array_equal(bc.entry_project(slots, 1, 3).diagonal(), [0, 0, 0, 0.3])


class TestProduct:
    def test_diagonal_product(self):
        a = bc.diag_encode([0.5, 0.4])
        b = bc.diag_encode([0.2, 0.1])
        out = bc.product(a, b)
        assert np.allclose(np.diag(out.corner), [0.1, 0.04])

    def test_identity_left_factor(self):
        eye = BlockEncoding(np.eye(2))
        b = bc.diag_encode([0.3, -0.2])
        out = bc.product(eye, b)
        assert np.allclose(out.corner, b.corner)

    def test_error_propagation_rule(self):
        a = BlockEncoding(np.diag([0.5, 0.5]), alpha=1.0, eps=1e-3)
        b = BlockEncoding(np.diag([0.4, 0.4]), alpha=2.0, eps=0.0)
        out = bc.product(a, b)
        assert out.eps == pytest.approx(2e-3)
        assert out.alpha == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bc.product(bc.diag_encode([0.5, 0.5]), bc.diag_encode([0.5] * 4))

    def test_alphas_multiply(self):
        a = BlockEncoding(np.diag([0.5, 0.5]), alpha=2.0)
        b = BlockEncoding(np.diag([0.4, 0.4]), alpha=3.0)
        assert bc.product(a, b).alpha == 6.0


class TestLcu:
    def test_signed_difference(self):
        x = bc.diag_encode([0.4, 0.2])
        g = bc.diag_encode([0.1, 0.3])
        out = bc.lcu([x, g], [1, -1])
        assert np.allclose(np.diag(out.corner), [0.15, -0.05])

    def test_single_input_is_identity_on_corner(self):
        x = bc.diag_encode([0.4, 0.2])
        out = bc.lcu([x], [1])
        assert np.allclose(out.corner, x.corner)
        assert out.ancillas == x.ancillas

    def test_single_input_sign_flip(self):
        x = bc.diag_encode([0.4, 0.2])
        out = bc.lcu([x], [-1])
        assert np.allclose(np.diag(out.corner), [-0.4, -0.2])

    def test_three_equal_inputs(self):
        e = bc.diag_encode([0.3, 0.1])
        out = bc.lcu([e, e, e], [1, 1, 1])
        assert np.allclose(out.corner, e.corner)

    def test_eps_averaged_and_queries_counted(self):
        a = BlockEncoding(np.diag([0.5, 0.5]), eps=3e-4)
        b = BlockEncoding(np.diag([0.2, 0.2]), eps=1e-4)
        out = bc.lcu([a, b], [1, 1])
        assert out.eps == pytest.approx(2e-4)
        assert out.queries == 2
        assert out.ancillas == 1  # ceil(log2 2)

    def test_mixed_alpha_rejected(self):
        a = BlockEncoding(np.diag([0.5, 0.5]), alpha=1.0)
        b = BlockEncoding(np.diag([0.5, 0.5]), alpha=2.0)
        with pytest.raises(MixedAlpha):
            bc.lcu([a, b], [1, 1])


class TestScaleDown:
    def test_elementwise_division(self):
        enc = bc.diag_encode([0.4, -0.2])
        out = bc.scale_down(enc, 4.0)
        assert np.allclose(np.diag(out.corner), [0.1, -0.05])
        assert out.ancillas == enc.ancillas + 1
        assert out.depth_units == enc.depth_units + 1

    def test_rotation_angle_recorded(self):
        audit = AuditLog()
        with bc.recording(audit):
            bc.scale_down(bc.diag_encode([0.4, 0.2]), 2.0)
        record = audit.records[-1]
        assert record["op"] == "scale_down"
        assert record["params"]["theta"] == pytest.approx(2 * math.pi / 3)

    def test_p_at_most_one_rejected(self):
        enc = bc.diag_encode([0.4, 0.2])
        with pytest.raises(InvalidScale):
            bc.scale_down(enc, 1.0)


class TestAmplify:
    def test_exact_rescale(self):
        enc = bc.diag_encode([0.2, -0.1])
        out = bc.amplify(enc, 2.0, 1e-6)
        assert np.allclose(np.diag(out.corner), [0.4, -0.2])
        assert out.ancillas == enc.ancillas + 1

    def test_repetition_count_formula(self):
        enc = bc.diag_encode([0.05, 0.02])
        out = bc.amplify(enc, 3.0, 1e-6)
        added = out.depth_units - enc.depth_units
        assert added == 196  # ceil(12 * ln(1.2e7))

    def test_norm_bound_strict(self):
        enc = bc.diag_encode([0.3, 0.0])
        with pytest.raises(NormBoundViolated):
            bc.amplify(enc, 2.0, 1e-6)  # 0.6 > 1/2

    def test_norm_bound_is_closed(self):
        # The containment bound max_i |x_i| <= 1/2 is closed: a boosted norm of
        # exactly 1/2 passes, and the next float above it does not.
        out = bc.amplify(bc.diag_encode([0.25, -0.1]), 2.0, 1e-6)
        assert out.norm == 0.5
        above = bc.diag_encode([np.nextafter(0.25, 1), 0.0])
        with pytest.raises(NormBoundViolated, match="= 0.5000000000000001 must not exceed 0.5"):
            bc.amplify(above, 2.0, 1e-6)

    def test_gamma_must_exceed_one(self):
        enc = bc.diag_encode([0.3, 0.0])
        with pytest.raises(InvalidScale):
            bc.amplify(enc, 1.0, 1e-6)

    def test_non_finite_inputs_are_rejected(self):
        enc = bc.diag_encode([0.0, 0.0])
        with pytest.raises(InvalidScale):
            bc.amplify(enc, math.nan, 1e-6)
        with pytest.raises(NormBoundViolated):
            bc.amplify(enc, math.inf, 1e-6)  # inf * 0 = nan
        with pytest.raises(InvalidScale, match="repetitions"):
            bc.amplify(enc, 2.0, 1e-320)  # 4 * gamma / eps overflows

    @pytest.mark.parametrize("eps_target", [0.0, -1.0, math.nan, math.inf])
    def test_eps_target_outside_open_half_line(self, eps_target):
        with pytest.raises(InvalidErrorBudget, match="eps_target"):
            bc.amplify(bc.diag_encode([0.1, 0.1]), 2.0, eps_target)

    def test_then_scale_down_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            diag = rng.uniform(-0.2, 0.2, size=4)
            enc = bc.diag_encode(diag)
            gamma = rng.uniform(1.2, 2.0)
            out = bc.scale_down(bc.amplify(enc, gamma, 1e-8), gamma)
            assert np.max(np.abs(out.corner - enc.corner)) <= 1e-8 + 1e-10


class TestQsvtTransform:
    def test_half_identity_polynomial(self):
        # The steepest admissible linear transform: P(x) = x/2.
        enc = bc.diag_encode([0.3, -0.2])
        out = bc.qsvt_transform(enc, cheb_poly([0.0, 0.5]))
        assert np.allclose(out.corner, enc.corner / 2)
        assert out.alpha == 1.0
        assert out.ancillas == enc.ancillas + 2

    def test_full_identity_violates_cap(self):
        # |x| reaches 1 on [-1, 1], above the 1/2 cap the transform requires.
        enc = bc.diag_encode([0.3, -0.2])
        with pytest.raises(PolyBoundViolated):
            bc.qsvt_transform(enc, cheb_poly([0.0, 1.0]))

    def test_half_square(self):
        enc = bc.diag_encode([0.4, 0.2])
        out = bc.qsvt_transform(enc, cheb_poly([0.0, 0.0, 0.5]))
        assert np.allclose(np.diag(out.corner), [0.08, 0.02])

    def test_output_is_a_fresh_unit_alpha_encoding(self):
        enc = BlockEncoding(np.diag([0.3, -0.2]), alpha=2.0, eps=1e-4)
        out = bc.qsvt_transform(enc, cheb_poly([0.0, 0.5]))
        assert out.alpha == 1.0
        assert out.eps == pytest.approx(4 * math.sqrt(1e-4 / 2.0))

    def test_degree_two_charges_its_degree(self):
        # The charge and the eps term come from the polynomial's own degree.
        enc = BlockEncoding(np.diag([0.3, -0.2]), alpha=2.0, eps=1e-4, depth_units=3, queries=5)
        out = bc.qsvt_transform(enc, cheb_poly([0.0, 0.0, 0.4]))
        assert np.allclose(np.diag(out.corner), [0.036, 0.016])
        assert (out.depth_units, out.queries) == (3 + 2, 5 + 2)
        assert out.eps == pytest.approx(4 * 2 * math.sqrt(1e-4 / 2.0))

    def test_eps_formula(self):
        enc = BlockEncoding(np.diag([0.3, 0.3]), alpha=1.0, eps=1e-4)
        out = bc.qsvt_transform(enc, cheb_poly([0.0, 0.5]))
        assert out.eps == pytest.approx(4 * 1 * math.sqrt(1e-4))

    def test_poly_bound_violated(self):
        enc = bc.diag_encode([0.3, 0.0])
        with pytest.raises(PolyBoundViolated):
            bc.qsvt_transform(enc, cheb_poly([0.7]))

    def test_poly_bound_is_tight_above_half(self):
        # Constants, so the sup is exact: 0.55 fails, within NORM_TOL of 1/2 passes.
        enc = bc.diag_encode([0.3, 0.0])
        with pytest.raises(PolyBoundViolated, match=r"sup \|poly\| = 0\.55 "):
            bc.qsvt_transform(enc, cheb_poly([0.55]))
        bc.qsvt_transform(enc, cheb_poly([0.5 + 0.5e-10]))

    def test_nan_polynomial_violates_the_cap(self):
        # A NaN sup fails the cap; it must not reach the corner as a NaN norm.
        enc = bc.diag_encode([0.3, 0.0])
        with pytest.raises(PolyBoundViolated, match=r"sup \|poly\| = nan "):
            bc.qsvt_transform(enc, cheb_poly([math.nan]))

    def test_requires_hermitian(self):
        mat = np.array([[0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(NotHermitian):
            bc.qsvt_transform(BlockEncoding(mat), cheb_poly([0.0, 0.5]))

    def test_dense_hermitian_eigen_transform(self):
        rng = np.random.default_rng(8)
        mat = rng.normal(size=(4, 4))
        mat = (mat + mat.T) / 2
        mat /= np.linalg.norm(mat, 2) * 1.5
        enc = BlockEncoding(mat)
        out = bc.qsvt_transform(enc, cheb_poly([0.0, 0.0, 0.4]))
        w, v = np.linalg.eigh(mat)
        expected = (v * Polynomial([0.0, 0.0, 0.4])(w)) @ v.T
        assert np.max(np.abs(out.corner - expected)) <= 1e-10

    def test_exact_polynomials_elementwise(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            diag = rng.uniform(-0.9, 0.9, size=8)
            enc = BlockEncoding(np.diag(diag))
            coeffs = rng.uniform(-1, 1, size=int(rng.integers(1, 6)))
            poly = Polynomial(coeffs)
            sup = np.max(np.abs(poly(np.linspace(-1, 1, 2001))))
            coeffs = coeffs * (0.45 / max(sup, 1e-9))
            out = bc.qsvt_transform(enc, cheb_poly(coeffs))
            poly = Polynomial(coeffs)
            assert np.max(np.abs(np.diag(out.corner) - poly(diag))) <= 1e-10


class TestRealizeDilation:
    def test_zero_block(self):
        u = realize_dilation(BlockEncoding(np.zeros((2, 2))))
        expected = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        assert np.allclose(u, expected)

    def test_identity_block(self):
        u = realize_dilation(BlockEncoding(np.eye(2)))
        expected = np.block(
            [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]]
        )
        assert np.allclose(u, expected)

    def test_unitarity_random(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.choice([2, 4, 8, 16]))
            enc = BlockEncoding(random_contraction(rng, dim, max_norm=1.0))
            u = realize_dilation(enc)
            defect = np.linalg.norm(u.conj().T @ u - np.eye(2 * dim), 2)
            assert defect <= 1e-10
            assert np.array_equal(u[:dim, :dim], enc.corner)


    def test_unitarity_diagonal_native(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = bc.diag_encode(random_diagonal(rng, 8))
            y = bc.diag_encode(random_diagonal(rng, 8))
            encs = [x, bc.projector_encode(8, 3), *primitive_outputs(x, y).values()]
            for enc in encs:
                u = realize_dilation(enc)
                defect = np.linalg.norm(u.conj().T @ u - np.eye(2 * enc.dim), 2)
                assert defect <= 1e-10
                assert np.array_equal(u[: enc.dim, : enc.dim], enc.corner)


def slot_map(x, support, signs):
    """A signed average of single-entry projections of x: stored as a slot map."""
    return bc.lcu([bc.entry_project(x, j, j) for j in support], signs)


def stored_as_slots(enc) -> bool:
    return isinstance(enc._data, dict)


def assert_same_corner(got, want, label):
    """Bit-equal summaries (ids included), corners and post-selections.

    Corners are compared byte for byte after adding 0.0, as ids are: a dense
    twin's matrix product may hold -0.0 where a diagonal form holds +0.0.
    """
    assert got.summary() == want.summary(), label
    assert (got.corner + 0.0).tobytes() == (want.corner + 0.0).tobytes(), label
    phi = np.full(got.dim, 1.0 / math.sqrt(got.dim))
    got_post, want_post = bc.apply_postselect(got, phi), bc.apply_postselect(want, phi)
    assert got_post.prob == want_post.prob, label
    if want_post.state is None:
        assert got_post.state is None, label
    else:
        assert got_post.state.tobytes() == want_post.state.tobytes(), label


class TestDiagonalStorage:
    def test_primitives_match_dense_twin(self, monkeypatch):
        rng = np.random.default_rng(31)
        phi = np.full(8, 1.0 / math.sqrt(8))
        for _ in range(20):
            diags = [random_diagonal(rng, 8) for _ in range(2)]
            with monkeypatch.context() as patch:
                patch.setattr(bc, "spectral_norm", refuse_svd)
                x, y = (bc.diag_encode(d) for d in diags)
                xs = slot_map(x, [0, 2, 5], [1, -1, 1])
                ys = slot_map(y, [2, 3], [1, 1])
                fast = primitive_outputs(x, y)
                sparse = primitive_outputs(xs, ys)
                leaves = [x, xs, ys, bc.projector_encode(8, 5)]
                fast_post = bc.apply_postselect(fast["lcu"], phi)
            for name in ("entry_project", "product", "lcu", "scale_down", "amplify"):
                assert stored_as_slots(sparse[name]), name
                assert "_vec" not in sparse[name].__dict__, name
            dense = primitive_outputs(dense_twin(x), dense_twin(y))
            sparse_dense = primitive_outputs(dense_twin(xs), dense_twin(ys))
            for leaf in leaves:
                assert leaf.summary() == dense_twin(leaf).summary()
            for name, enc in fast.items():
                want = dense[name].summary()
                got = enc.summary()
                assert got == want, name
                assert np.array_equal(enc.corner, dense[name].corner), name
                assert enc.norm == dense[name].norm, name
                assert_same_corner(sparse[name], sparse_dense[name], name)
                assert sparse[name].norm == sparse_dense[name].norm, name
            dense_post = bc.apply_postselect(dense["lcu"], phi)
            assert fast_post.prob == dense_post.prob
            assert np.array_equal(fast_post.state, dense_post.state)
            for first, second in ((x, dense_twin(y)), (xs, dense_twin(ys)), (xs, y), (x, ys)):
                mixed = primitive_outputs(first, second)
                want = primitive_outputs(dense_twin(first), dense_twin(second))
                for name in ("product", "lcu"):
                    assert mixed[name].summary() == want[name].summary(), name

    def test_complex_entry_is_stored_as_a_vector(self):
        x = bc.diag_encode([0.1, 0.2j, 0.0, 0.3])
        assert stored_as_slots(bc.entry_project(x, 0, 1))
        out = bc.entry_project(x, 1, 2)
        assert not stored_as_slots(out)
        assert out.summary() == bc.entry_project(dense_twin(x), 1, 2).summary()


# A program is a dimension, a small-support diagonal and a list of steps; each
# step applies one primitive to encodings made earlier, named by index.
@st.composite
def storage_programs(draw):
    dim = draw(st.sampled_from([4, 8, 16]))
    support = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=3, unique=True))
    values = [0.0] * dim
    for k in support:
        values[k] = draw(st.floats(-0.2, 0.2))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["entry_project", "product", "scale_down", "amplify", "lcu"]))
        pick = st.integers(0, 10**6)
        if op == "entry_project":
            step = (op, draw(pick), draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)))
        elif op == "product":
            step = (op, draw(pick), draw(pick))
        elif op == "scale_down":
            step = (op, draw(pick), draw(st.floats(1.01, 4.0)))
        elif op == "amplify":
            step = (op, draw(pick), draw(st.floats(1.01, 3.0)))
        else:
            m = draw(st.integers(1, 4))
            step = (op, [draw(pick) for _ in range(m)],
                    [draw(st.sampled_from([1, -1])) for _ in range(m)])
        steps.append(step)
    return dim, values, support, steps


def step_operands(step):
    """Indices (into the encodings made so far) of the operands a step reads."""
    op, *args = step
    if op == "lcu":
        return args[0]
    return args[:2] if op == "product" else args[:1]


def apply_step(step, operands):
    op, *args = step
    if op == "entry_project":
        return bc.entry_project(operands[0], args[1], args[2])
    if op == "product":
        return bc.product(*operands)
    if op == "scale_down":
        return bc.scale_down(operands[0], args[1])
    if op == "amplify":
        return bc.amplify(operands[0], args[1], 1e-6)
    return bc.lcu(operands, args[1])


def reference_step(step, vectors):
    """The step as plain numpy arithmetic on length-N diagonals."""
    op, *args = step
    if op == "entry_project":
        out = np.zeros(len(vectors[0]), dtype=complex)
        out[args[2]] = vectors[0][args[1]]
        return out
    if op == "product":
        return vectors[0] * vectors[1]
    if op == "scale_down":
        return vectors[0] / args[1]
    if op == "amplify":
        return args[1] * vectors[0]
    return sum(s * v for s, v in zip(args[1], vectors)) / len(vectors)


def svd_is_exact(enc) -> bool:
    """Whether a dense twin's SVD norm of this diagonal is exactly max |d_i|.

    LAPACK rescales a matrix whose largest entry is below about 1.3e-138
    before its SVD, and the rescaled norm can miss max |d_i| by an ulp.
    """
    return enc.norm == 0.0 or enc.norm > 1e-130


class TestStorageEquivalence:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(storage_programs())
    def test_slot_maps_match_dense_twins(self, program):
        dim, values, support, steps = program
        # The log records the primitive calls on the pool alone; the dense
        # twins come from the unrecorded constructor.
        log = AuditLog()
        with bc.recording(log):
            x = bc.diag_encode(values)
            pool = [x] + [bc.entry_project(x, k, k) for k in support]
            pool.append(bc.projector_encode(dim, support[0]))
        vectors = [e.diagonal() for e in pool]
        for i, step in enumerate(steps):
            picked = [j % len(pool) for j in step_operands(step)]
            operands = [pool[j] for j in picked]
            twins = [dense_twin(e) for e in operands]
            try:
                with bc.recording(log):
                    out = apply_step(step, operands)
            except NormBoundViolated:
                with pytest.raises(NormBoundViolated):
                    apply_step(step, twins)
                continue
            # Every diagonal, signed zeros included, and every norm are the
            # bits the parent's vector arithmetic gives.
            vec = reference_step(step, [vectors[j] for j in picked])
            assert out.diagonal().tobytes() == vec.tobytes(), i
            assert out.norm == float(np.abs(vec).max()), i
            if all(svd_is_exact(e) for e in (*operands, out)):
                twin = apply_step(step, twins)
                assert_same_corner(out, twin, i)
                assert out.norm == twin.norm, i
            pool.append(out)
            vectors.append(vec)
        assert len(log.records) == len(pool)
        assert replay(log.to_jsonl()) is None


class TestApplyPostselect:
    def test_probability_in_unit_interval_and_state_normalized(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            enc = BlockEncoding(random_contraction(rng, 4))
            phi = rng.normal(size=4) + 1j * rng.normal(size=4)
            phi /= np.linalg.norm(phi)
            out = bc.apply_postselect(enc, phi)
            assert 0.0 <= out.prob <= 1.0
            if out.prob > 0:
                assert np.linalg.norm(out.state) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_probability(self):
        diag = np.array([0.3, -0.1, 0.2, 0.4])
        enc = bc.diag_encode(diag)
        phi = np.full(4, 0.5)
        out = bc.apply_postselect(enc, phi)
        assert out.prob == pytest.approx(np.sum(diag**2) / 4)
        assert np.linalg.norm(out.state) == pytest.approx(1.0)

    def test_identity_keeps_state(self):
        enc = BlockEncoding(np.eye(4))
        phi = np.zeros(4)
        phi[2] = 1.0
        out = bc.apply_postselect(enc, phi)
        assert out.prob == pytest.approx(1.0)
        assert np.allclose(out.state, phi)

    def test_zero_corner_undefined_state(self):
        enc = BlockEncoding(np.zeros((2, 2)))
        out = bc.apply_postselect(enc, np.array([1.0, 0.0]))
        assert out.prob == 0.0
        assert out.state is None

    def test_requires_unit_state(self):
        enc = BlockEncoding(np.eye(2))
        with pytest.raises(NotNormalized):
            bc.apply_postselect(enc, np.array([0.5, 0.5]))


class TestClosureAndCounters:
    def test_random_pipelines_preserve_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            a = BlockEncoding(random_contraction(rng, 4))
            b = BlockEncoding(random_contraction(rng, 4))
            outs = [
                bc.product(a, b),
                bc.lcu([a, b], [1, -1]),
                bc.scale_down(a, float(rng.uniform(1.1, 3.0))),
            ]
            for out in outs:
                assert out.norm <= 1.0 + bc.NORM_TOL
                assert out.dim & (out.dim - 1) == 0
                assert math.isfinite(out.eps) and out.eps >= 0
                assert out.alpha >= 1.0
                for field in bc.COUNTERS:
                    assert getattr(out, field) >= max(getattr(a, field), 0)

    def test_lcu_scale_down_and_amplify_keep_the_input_alpha(self):
        enc = BlockEncoding(np.diag([0.2, -0.1]), alpha=2.0, eps=1e-4)
        outs = [bc.lcu([enc, enc], [1, -1]), bc.scale_down(enc, 3.0), bc.amplify(enc, 2.0, 1e-6)]
        assert [out.alpha for out in outs] == [2.0, 2.0, 2.0]

    def test_counters_monotone_under_composition(self):
        x = bc.diag_encode([0.2, 0.1, 0.3, 0.05])
        y = bc.entry_project(x, 0, 0)
        z = bc.product(y, y)
        w = bc.lcu([z, z], [1, -1])
        chain = [x, y, z, w]
        for before, after in zip(chain, chain[1:]):
            for field in bc.COUNTERS:
                assert getattr(after, field) >= getattr(before, field)


class TestErrorBudgetSoundness:
    def test_perturbation_never_exceeds_propagated_eps(self):
        rng = np.random.default_rng(13)
        eps0 = 1e-4
        for _ in range(20):
            a_mat = random_contraction(rng, 4, max_norm=0.7)
            b_mat = random_contraction(rng, 4, max_norm=0.7)
            noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            noise *= eps0 / np.linalg.norm(noise, 2)
            clean_a = BlockEncoding(a_mat)
            dirty_a = BlockEncoding(a_mat + noise, eps=eps0)
            b = BlockEncoding(b_mat)
            for op in (
                lambda u, v: bc.product(u, v),
                lambda u, v: bc.lcu([u, v], [1, 1]),
                lambda u, v: bc.lcu([u, v], [1, -1]),
            ):
                clean = op(clean_a, b)
                dirty = op(dirty_a, b)
                deviation = clean.alpha * np.linalg.norm(clean.corner - dirty.corner, 2)
                assert deviation <= dirty.eps + 1e-12


class TestDilationComposition:
    def test_product_pair(self):
        rng = np.random.default_rng(21)
        a_mat = random_contraction(rng, 4)
        b_mat = random_contraction(rng, 4)
        calculus = bc.product(BlockEncoding(a_mat), BlockEncoding(b_mat))
        oracle = corner_of(("product", ("leaf", a_mat), ("leaf", b_mat)), 4)
        assert np.max(np.abs(calculus.corner - oracle)) <= 1e-9

    def test_lcu_triple(self):
        rng = np.random.default_rng(22)
        mats = [random_contraction(rng, 4) for _ in range(3)]
        signs = [1, -1, 1]
        calculus = bc.lcu([BlockEncoding(m) for m in mats], signs)
        oracle = corner_of(("lcu", [("leaf", m) for m in mats], signs), 4)
        assert np.max(np.abs(calculus.corner - oracle)) <= 1e-9

    def test_scale_node(self):
        rng = np.random.default_rng(23)
        mat = random_contraction(rng, 4)
        calculus = bc.scale_down(BlockEncoding(mat), 2.5)
        oracle = corner_of(("scale", ("leaf", mat), 2.5), 4)
        assert np.max(np.abs(calculus.corner - oracle)) <= 1e-9


    def test_diagonal_native_pipeline(self):
        rng = np.random.default_rng(24)
        a, b, c = (random_diagonal(rng, 4, bound=0.3) for _ in range(3))
        x, y, z = (bc.diag_encode(v) for v in (a, b, c))
        calculus = bc.lcu([bc.product(x, y), bc.scale_down(z, 2.0)], [1, -1])
        tree = (
            "lcu",
            [("product", ("leaf", np.diag(a)), ("leaf", np.diag(b))),
             ("scale", ("leaf", np.diag(c)), 2.0)],
            [1, -1],
        )
        oracle = corner_of(tree, 4)
        assert np.max(np.abs(calculus.corner - oracle)) <= 1e-9


class TestAuditLog:
    def test_records_before_and_after(self):
        audit = AuditLog()
        with bc.recording(audit):
            x = bc.diag_encode([0.2, 0.1])
            bc.entry_project(x, 0, 1)
        assert [r["op"] for r in audit.records] == ["diag_encode", "entry_project"]
        rec = audit.records[1]
        assert rec["in"][0]["id"] == audit.records[0]["out"]["id"]
        assert rec["out"]["queries"] == rec["in"][0]["queries"] + 2
        assert rec["seq"] == 1

    def test_jsonl_deterministic(self):
        def build():
            audit = AuditLog()
            with bc.recording(audit):
                x = bc.diag_encode([0.2, 0.1])
                g = bc.entry_project(x, 0, 0)
                bc.lcu([x, g], [1, -1])
            return audit.to_jsonl()

        assert build() == build()

    def test_inner_block_records_to_its_own_log_then_restores_the_outer(self):
        outer, inner = AuditLog(), AuditLog()
        with bc.recording(outer):
            x = bc.diag_encode([0.2, 0.1])
            with bc.recording(inner):
                bc.scale_down(x, 2.0)
            with bc.recording(None):
                bc.scale_down(x, 3.0)
            bc.entry_project(x, 0, 1)
        assert [r["op"] for r in outer.records] == ["diag_encode", "entry_project"]
        assert [r["op"] for r in inner.records] == ["scale_down"]

    def test_jsonl_writes_each_record_as_json_dumps_does(self):
        audit = AuditLog()
        with bc.recording(audit):
            x = bc.diag_encode([0.2, -0.0, 1e-310, 0.1])
            g = bc.entry_project(x, 0, 3)
            bc.lcu([g, bc.product(g, g)], [1, -1])
            bc.amplify(g, 2.0, 1e-6)
            # No record carries a token that strict JSON lacks: scale_down
            # rejects an infinite p.
            with pytest.raises(InvalidScale):
                bc.scale_down(g, math.inf)
        assert audit.to_jsonl() == "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in audit.records)

    def test_replay_requires_the_exact_summary_keys(self):
        audit = AuditLog()
        with bc.recording(audit):
            x = bc.diag_encode([0.2, 0.1])
            bc.scale_down(x, 2.0)
        assert replay(audit.to_jsonl()) is None
        assert all(s.keys() == SUMMARY for r in audit.records for s in (*r["in"], r["out"]))
        # A stray key (such as a second ancilla count) or a missing one is a
        # replay failure, in an input summary as in an output summary.
        stray, missing = (json.loads(json.dumps(audit.records)) for _ in range(2))
        stray[1]["in"][0]["ancilla_high_water"] = stray[1]["in"][0]["ancillas"]
        del missing[0]["out"]["eps"]
        for records, seq in ((stray, 1), (missing, 0)):
            jsonl = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
            assert replay(jsonl)[:2] == (seq, "keys")

    def test_block_left_by_an_exception_leaves_no_log_active(self):
        audit = AuditLog()
        with pytest.raises(InvalidScale):
            with bc.recording(audit):
                x = bc.diag_encode([0.2, 0.1])
                bc.scale_down(x, 0.5)
        assert bc._RECORDER.get() is None
        bc.diag_encode([0.3])
        assert [r["op"] for r in audit.records] == ["diag_encode"]


class CountingSha1:
    """hashlib.sha1 stand-in that counts the bytes it is fed."""

    fed = 0

    def __init__(self, data=b""):
        self._hash = hashlib.sha1()
        self.update(data)

    def update(self, data):
        CountingSha1.fed += memoryview(data).nbytes
        self._hash.update(data)

    def hexdigest(self):
        return self._hash.hexdigest()


class TestAuditIds:
    def test_dense_diagonal_corner_shares_the_diagonal_id(self):
        diag = np.array([0.3, 0.0, -0.2, 0.1])
        dense = BlockEncoding(np.diag(diag))
        native = bc.diag_encode(diag).summary()["id"]
        assert dense.summary()["id"] == native
        assert bc.diag_encode(diag[::-1]).summary()["id"] != native

    def test_off_diagonal_entry_changes_id(self):
        mat = np.diag([0.3, 0.0, -0.2, 0.1])
        base = BlockEncoding(mat).summary()["id"]
        for i, j in ((0, 1), (3, 2), (1, 3)):
            bumped = mat.copy()
            bumped[i, j] = 1e-3
            assert BlockEncoding(bumped).summary()["id"] != base, (i, j)

    def test_signed_zeros_share_id(self):
        plus = np.array([0.5, 0.0, 0.25, 0.0], dtype=complex)
        minus = np.array([0.5, -0.0, 0.25, complex(-0.0, -0.0)])
        ids = {
            bc.diag_encode(plus).summary()["id"],
            bc.diag_encode(minus).summary()["id"],
            BlockEncoding(np.diag(plus)).summary()["id"],
            BlockEncoding(np.diag(minus)).summary()["id"],
            BlockEncoding(-np.diag(-plus)).summary()["id"],
        }
        assert len(ids) == 1

    def test_diagonal_id_hashes_linear_bytes(self, monkeypatch):
        dim = 4096
        enc = bc.diag_encode(np.full(dim, 0.01))
        monkeypatch.setattr(CountingSha1, "fed", 0)
        monkeypatch.setattr(bc, "hashlib", SimpleNamespace(sha1=CountingSha1))
        assert len(enc.summary()["id"]) == 12
        assert 0 < CountingSha1.fed <= 16 * dim + 64


# Magnitudes from zero through subnormals to the unit bound, each with either sign.
SLOT_MAGNITUDES = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e-300, max_value=1.0),
)


@st.composite
def slot_maps(draw):
    """(dim, slots): a power-of-two dim up to 2**13, slots at 0 and N-1 among others."""
    dim = 2 ** draw(st.integers(0, 13))
    keys = {0, dim - 1} | set(draw(st.lists(st.integers(0, dim - 1), max_size=4)))
    slots = {}
    for k in sorted(keys):
        real = draw(SLOT_MAGNITUDES) * draw(st.sampled_from([1.0, -1.0]))
        slots[k] = complex(real, draw(st.sampled_from([0.0, -0.0])))
    return dim, slots


class TestSlotMapIds:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(slot_maps())
    def test_id_is_the_digest_of_the_vector(self, drawn):
        dim, slots = drawn
        enc = bc._encoding(dict(slots), dim, 1.0, 0.0, (), 0, 0, 0)
        assert type(enc._data) is dict
        ident = enc._id
        assert "_vec" not in enc.__dict__
        vec = bc._vector(slots, dim)
        assert ident == bc._digest(slots, dim) == bc._digest(vec, dim)
        assert ident == bc._encoding(vec, dim, 1.0, 0.0, (), 0, 0, 0)._id
        # A dense twin of the largest dims would take up to 1 GiB.
        if dim <= 64:
            assert ident == BlockEncoding(np.diag(vec))._id

    def test_zero_runs_longer_than_the_buffer_are_fed_in_pieces(self, monkeypatch):
        # Slots far apart at a large dim: a signed zero, a subnormal and -1.
        # The zero runs between them are left out of the hash, not fed as zeros.
        dim = 2**13
        slots = {0: complex(-0.0, -0.0), 5000: complex(1e-310, 0.0), dim - 1: complex(-1.0, 0.0)}
        vec = bc._vector(slots, dim)
        monkeypatch.setattr(CountingSha1, "fed", 0)
        monkeypatch.setattr(bc, "hashlib", SimpleNamespace(sha1=CountingSha1))
        enc = bc._encoding(slots, dim, 1.0, 0.0, (), 0, 0, 0)
        assert enc._id == bc._digest(vec, dim)
        assert CountingSha1.fed < 16 * dim
        assert enc._id == bc._encoding(vec, dim, 1.0, 0.0, (), 0, 0, 0)._id

    def test_slot_map_id_hashes_only_its_slots(self, monkeypatch):
        dim = 2**20
        slots = {3: complex(0.25, 0.0), 70000: complex(-0.5, 0.0), dim - 1: complex(1e-310, 0.0)}
        enc = bc._encoding(slots, dim, 1.0, 0.0, (), 0, 0, 0)
        monkeypatch.setattr(CountingSha1, "fed", 0)
        monkeypatch.setattr(bc, "hashlib", SimpleNamespace(sha1=CountingSha1))
        assert len(enc._id) == 12
        assert "_vec" not in enc.__dict__
        assert 0 < CountingSha1.fed <= 24 * len(slots) + 64


def _set_alpha(enc):
    enc.alpha = 2.0


@pytest.mark.parametrize("call, error, message", [
    (lambda: BlockEncoding(np.zeros((2, 3))), DimensionMismatch,
     "corner must be square, got shape (2, 3)"),
    (lambda: _set_alpha(bc.diag_encode([0.1, 0.2])), AttributeError,
     "BlockEncoding is immutable; cannot set 'alpha'"),
    (lambda: BlockEncoding(np.eye(2) * 0.5, ancillas=2.7), ValueError,
     "ancillas must be an integer, got 2.7"),
    (lambda: BlockEncoding(np.eye(2) * 0.5, depth_units=1.5), ValueError,
     "depth_units must be an integer, got 1.5"),
    (lambda: BlockEncoding(np.eye(2) * 0.5, queries="q"), ValueError,
     "queries must be an integer, got 'q'"),
    (lambda: BlockEncoding(np.eye(2) * 0.5, depth_units=-4), ValueError,
     "depth_units must be non-negative, got -4"),
    (lambda: BlockEncoding(np.eye(2) * 0.5, queries=-1), ValueError,
     "queries must be non-negative, got -1"),
    (lambda: bc.projector_encode(3, 4), IndexOutOfRange, "index 4 not in [0, 4)"),
    (lambda: bc.projector_encode(4, 1.0), ValueError, "k must be an integer, got 1.0"),
    (lambda: bc.projector_encode(4.0, 1), ValueError, "dim must be an integer, got 4.0"),
    (lambda: bc.entry_project(bc.diag_encode([0.1, 0.2]), 0, 2), IndexOutOfRange,
     "target index 2 not in [0, 2)"),
    (lambda: bc.entry_project(bc.diag_encode([0.1, 0.2, 0.3, 0.4]), 1, 2.0), ValueError,
     "k must be an integer, got 2.0"),
    (lambda: bc.entry_project(bc.projector_encode(4, 1), 1.0, 2), ValueError,
     "j must be an integer, got 1.0"),
    (lambda: bc.lcu([], []), ValueError, "lcu requires at least one encoding"),
    (lambda: bc.lcu([bc.diag_encode([0.1, 0.2])], [1, 1]), ValueError,
     "signs and encodings must have equal length"),
    (lambda: bc.lcu([bc.diag_encode([0.1, 0.2])] * 2, [1, 2]), ValueError,
     "signs must be +/-1, got [1, 2]"),
    (lambda: bc.lcu([bc.diag_encode([0.1, 0.2])], [1.5]), ValueError,
     "signs must be +/-1, got [1.5]"),
    (lambda: bc.lcu([bc.diag_encode([0.1, 0.2])], [-1.9]), ValueError,
     "signs must be +/-1, got [-1.9]"),
    (lambda: bc.lcu([bc.diag_encode([0.1, 0.2])], ["1"]), ValueError,
     "signs must be +/-1, got ['1']"),
    (lambda: bc.lcu([bc.diag_encode([0.1, 0.2]), bc.diag_encode([0.1] * 4)], [1, 1]),
     DimensionMismatch, "lcu inputs must share one dimension"),
    (lambda: bc.apply_postselect(bc.diag_encode([0.1, 0.2]), [1.0, 0.0, 0.0, 0.0]),
     DimensionMismatch, "state has dim 4, corner 2"),
], ids=["non-square-corner", "setattr", "ancillas-fraction", "depth-units-fraction",
        "queries-string", "depth-units-negative", "queries-negative", "projector-index",
        "projector-index-float", "projector-dim-float", "entry-project-target",
        "entry-project-target-float", "entry-project-source-float",
        "lcu-empty", "lcu-signs-length", "lcu-sign-value", "lcu-sign-fraction",
        "lcu-sign-negative-fraction", "lcu-sign-string", "lcu-dimensions",
        "postselect-dimension"])
def test_argument_errors_name_their_rule(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
