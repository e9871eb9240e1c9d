import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgd.errors import DomainViolation, IndexOutOfRange, SchemaError
from blockgd.polyfunc import MonomialTerm, ObjectiveFunction, load_objective
from _grid import grid_maxima

REPO = Path(__file__).resolve().parents[1]


def make(n, m_bound, *terms):
    return ObjectiveFunction(n, m_bound, tuple(MonomialTerm(c, tuple(e)) for c, e in terms))


class TestEvaluate:
    def test_worked_monomial(self):
        # x1^2 * x2^3 * x5 at (1/2, 1/2, 0, 0, 1/2): (1/4)(1/8)(1/2) = 1/64
        f = make(5, 1.0, (1.0, (2, 3, 0, 0, 1)))
        assert f.evaluate([0.5, 0.5, 0.0, 0.0, 0.5]) == pytest.approx(1 / 64, abs=1e-15)

    def test_constant_term_empty_product(self):
        f = make(3, 1.0, (0.3, (0, 0, 0)))
        assert f.evaluate([0.1, -0.2, 0.5]) == 0.3

    def test_sum_of_linear_terms(self):
        f = make(2, 5.0, (1.0, (1, 0)), (1.0, (0, 1)))
        assert f.evaluate([0.1, -0.2]) == pytest.approx(-0.1, abs=1e-15)

    def test_domain_violation(self):
        f = make(2, 1.0, (1.0, (1, 0)))
        with pytest.raises(DomainViolation):
            f.evaluate([0.6, 0.0])

    def test_zero_function(self):
        f = ObjectiveFunction(2, 1.0, ())
        assert f.evaluate([0.1, 0.1]) == 0.0


class TestPartial:
    def test_hand_differentiated_monomial(self):
        f = make(5, 1.0, (1.0, (2, 3, 0, 0, 1)))
        df = f.partial(0)
        assert len(df.terms) == 1
        assert df.terms[0].coeff == 2.0
        assert df.terms[0].exponents == (1, 3, 0, 0, 1)

    def test_absent_variable_gives_zero_function(self):
        f = make(5, 1.0, (1.0, (2, 3, 0, 0, 1)))
        assert f.partial(2).terms == ()

    def test_linear_term_gives_constant(self):
        f = make(1, 1.0, (1.0, (1,)))
        df = f.partial(0)
        assert df.terms[0].coeff == 1.0
        assert df.terms[0].exponents == (0,)

    def test_index_out_of_range(self):
        f = make(2, 1.0, (1.0, (1, 0)))
        with pytest.raises(IndexOutOfRange):
            f.partial(2)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                exps = rng.integers(0, 3, size=n)
                terms.append((float(rng.uniform(-1, 1)), tuple(int(e) for e in exps)))
            f = make(n, 10.0, *terms)
            x = rng.uniform(-0.4, 0.4, size=n)
            for m in range(n):
                exact = f.partial(m).evaluate(x)
                errs = []
                for h in (1e-3, 1e-4):
                    step = np.zeros(n)
                    step[m] = h
                    fd = (f.evaluate(x + step) - f.evaluate(x - step)) / (2 * h)
                    errs.append(abs(fd - exact))
                # Central differences converge at O(h^2); C estimated at h=1e-3.
                c_est = errs[0] / 1e-6 + 1.0
                assert errs[1] <= c_est * 1e-8 + 1e-12

    def test_nonzero_partial_count_equals_support_union(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            terms = []
            for _ in range(int(rng.integers(1, 5))):
                exps = tuple(int(e) for e in rng.integers(0, 3, size=n))
                terms.append((float(rng.uniform(-1, 1)), exps))
            f = make(n, 1.0, *terms)
            union = set()
            for t in f.terms:
                union.update(t.support)
            nonzero = sum(1 for m in range(n) if f.partial(m).terms)
            assert nonzero == len(union)


class TestTermStats:
    """Each term's support and degree, from which the report takes v and d."""

    def test_worked_example_three_vars(self):
        f = make(5, 1.0, (1.0, (2, 3, 0, 0, 1)))
        term = f.terms[0]
        assert len(term.support) == 3
        assert term.support == (0, 1, 4)
        assert term.degree == 6

    def test_worked_example_five_vars(self):
        f = make(9, 1.0, (1.0, (1, 1, 1, 0, 0, 0, 4, 0, 2)))
        term = f.terms[0]
        assert len(term.support) == 5
        assert term.degree == 9

    def test_constant_term(self):
        f = make(3, 1.0, (2.0, (0, 0, 0)))
        term = f.terms[0]
        assert term.support == ()
        assert term.degree == 0

    def test_invariant_under_term_permutation(self):
        a = make(3, 1.0, (1.0, (2, 0, 0)), (0.5, (0, 1, 1)))
        b = make(3, 1.0, (0.5, (0, 1, 1)), (1.0, (2, 0, 0)))
        assert a.terms == b.terms
        assert a == b


class TestConstruction:
    def test_duplicates_merge(self):
        f = make(2, 1.0, (1.0, (1, 1)), (2.0, (1, 1)))
        assert len(f.terms) == 1
        assert f.terms[0].coeff == 3.0

    def test_cancellation_yields_zero_function(self):
        f = make(2, 1.0, (1.0, (1, 1)), (-1.0, (1, 1)))
        assert f.terms == ()

    def test_wrong_exponent_length_rejected(self):
        with pytest.raises(ValueError):
            make(3, 1.0, (1.0, (1, 0)))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MonomialTerm(1.0, (-1, 0))

    def test_distinct_terms_are_built_once(self, monkeypatch):
        built = []
        original = MonomialTerm.__post_init__

        def counted(term):
            built.append(term.exponents)
            original(term)

        monkeypatch.setattr(MonomialTerm, "__post_init__", counted)
        given = tuple(MonomialTerm(0.1 * (k + 1), (k, 1, 0, 2)) for k in range(3))
        f = ObjectiveFunction(4, 1.0, given)
        assert len(built) == 3
        assert all(kept is term for kept, term in zip(f.terms, given))
        # A merge still builds its term anew, in the canonical order.
        f = make(2, 1.0, (1.0, (1, 1)), (0.5, (0, 1)), (2.0, (1, 1)))
        assert [(t.coeff, t.exponents) for t in f.terms] == [(0.5, (0, 1)), (3.0, (1, 1))]

    def test_support_and_coercion(self):
        term = MonomialTerm(1, np.array([0, 2, 0, 1]))
        assert term.coeff == 1.0 and type(term.coeff) is float
        assert term.exponents == (0, 2, 0, 1)
        assert all(type(e) is int for e in term.exponents)
        assert term.support == (1, 3)
        with pytest.raises(ValueError, match=r"got \(0, 2, -1\)"):
            MonomialTerm(1.0, (0, 2, -1))


# Objectives with n <= 4, K <= 4 and term degree <= 4; constant terms, terms
# that merge or cancel, and K = 0 (the zero function) included.
@st.composite
def small_objectives(draw):
    n = draw(st.integers(1, 4))
    exponents = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(
        lambda e: sum(e) <= 4)
    coeffs = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
    terms = draw(st.lists(st.tuples(coeffs, exponents), max_size=4))
    return make(n, 1.0, *terms)


class TestCertifiedBounds:
    @settings(max_examples=200, deadline=None)
    @given(small_objectives())
    def test_bounds_the_grid_maxima(self, f):
        f_bound, grad_bound = f.certified_bounds()
        max_abs_f, max_grad_norm = grid_maxima(f, 5)
        assert max_abs_f <= f_bound * (1 + 1e-12)
        assert max_grad_norm <= grad_bound * (1 + 1e-12)

    def test_exact_on_quadratic_json(self):
        config = json.loads((REPO / "configs" / "quadratic.json").read_text())
        f = load_objective(config["objective"])
        assert f.certified_bounds() == (0.5, f.grad_bound) == (0.5, math.sqrt(2))

    def test_steep_line_and_zero_function(self):
        assert make(1, 1.0, (2.0, (1,))).certified_bounds() == (1.0, 2.0)  # M = 1 uncertified
        assert ObjectiveFunction(3, 1.0, ()).certified_bounds() == (0.0, 0.0)


class TestJsonSchema:
    def test_roundtrip(self):
        f = make(2, 1.5, (1.0, (2, 0)), (-0.5, (0, 1)))
        again = load_objective(json.dumps(f.to_json_dict()))
        assert again == f

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ({"n": 2, "M": 1.0}, "terms"),
            ({"n": 0, "M": 1.0, "terms": [{"coeff": 1.0, "exponents": []}]}, "n"),
            ({"n": 1, "M": -1.0, "terms": [{"coeff": 1.0, "exponents": [1]}]}, "M"),
            ({"n": 1, "M": 1.0, "terms": []}, "terms"),
            ({"n": 2, "M": 1.0, "terms": [{"coeff": 1.0, "exponents": [1]}]},
             "terms[0].exponents"),
            ({"n": 1, "M": 1.0, "terms": [{"coeff": 1.0, "exponents": [-1]}]},
             "terms[0].exponents[0]"),
            ({"n": 1, "M": 1.0, "terms": [{"coeff": "x", "exponents": [1]}]},
             "terms[0].coeff"),
            ({"n": 1, "M": 1.0, "terms": [{"coeff": 1.0, "exponents": [1]}], "zz": 0},
             "zz"),
            ({"n": 1, "M": 1.0, "terms": [{"coeff": 1.0, "exponents": [65]}]},
             "terms[0].exponents[0]"),
            ({"n": 2, "M": 1.0, "terms": [{"coeff": 1.0, "exponents": [1, 1]},
                                          {"coeff": 1.0, "exponents": [40, 25]}]},
             "terms[1] total degree"),
        ],
    )
    def test_schema_errors_carry_paths(self, doc, fragment):
        with pytest.raises(SchemaError) as err:
            load_objective(doc)
        assert fragment in str(err.value)

    def test_parse_error_is_line_precise(self):
        with pytest.raises(json.JSONDecodeError) as err:
            load_objective('{\n  "n": oops\n}')
        assert err.value.lineno == 2
