import math
from dataclasses import asdict, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhj_spectra import (
    DegeneratePotentialError,
    PotentialParams,
    UnsupportedBranchError,
    Variant,
    classify_symmetry,
    evaluate_potential,
    infinity_analysis,
)

finite_reals = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestParams:
    def test_alpha_normalized_positive(self):
        assert PotentialParams(1.0, -3.0, -2.0).alpha == 2.0

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            PotentialParams(1.0, -3.0, 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PotentialParams(float("nan"), -3.0, 1.0)

    def test_s(self):
        assert PotentialParams(4.0, -8.0, 2.0).s == 1.0

    def test_s_needs_positive_v1(self):
        with pytest.raises(DegeneratePotentialError):
            PotentialParams(-1.0, -3.0, 1.0).s


class TestLambda:
    """lam is one float: derived from V2, or given exactly to from_lambda."""

    @given(
        v1=st.floats(min_value=1e-3, max_value=1e3),
        v2=finite_reals,
        alpha=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_derived_lambda_is_the_real_rows(self, v1, v2, alpha):
        # The real row's complex expression, written out; signed zeros included.
        params = PotentialParams(v1, v2, alpha)
        expected = (-v2 / (2.0 * complex(math.sqrt(v1)) * alpha)).real
        assert repr(params.lam) == repr(expected)
        assert repr(classify_symmetry(params, Variant.REAL_SINH_GORDON).lambda_value) == (
            repr(complex(expected))
        )

    def test_from_lambda_keeps_lambda_and_derives_v2(self):
        # The round trip through V2 loses an ulp here: from_lambda keeps the
        # lambda given, and V2 = -2 sqrt(V1) alpha lambda is the V2 stored.
        lam = 1.4999999990000001
        params = PotentialParams.from_lambda(2.0, lam, 1.0)
        assert params.v2 == -2.0 * math.sqrt(2.0) * 1.0 * lam == -4.242640684290858
        assert params.lam == lam
        assert PotentialParams(2.0, params.v2, 1.0).lam == 1.499999999
        assert infinity_analysis(params).lam == lam
        assert classify_symmetry(params, Variant.REAL_SINH_GORDON).lambda_value == lam
        # A V2 that is given is the V2 stored; alpha is normalized first.
        assert PotentialParams(1.0, -3.0000000001, 1.0).v2 == -3.0000000001
        params = PotentialParams.from_lambda(1.0, 1.5, -1.0)
        assert (params.v2, params.alpha, params.lam) == (-3.0, 1.0, 1.5)

    def test_equality_hash_and_repr_leave_lambda_out(self):
        # The same potential compares equal whichever way lambda was set ...
        given = PotentialParams.from_lambda(2.0, 1.4999999990000001, 1.0)
        derived = PotentialParams(2.0, given.v2, 1.0)
        assert given.lam != derived.lam
        assert given == derived and hash(given) == hash(derived)
        assert repr(given) == "PotentialParams(v1=2.0, v2=-4.242640684290858, alpha=1.0)"
        assert asdict(given) == {"v1": 2.0, "v2": given.v2, "alpha": 1.0}
        # ... another V2 does not, and replace derives lambda from V2 again.
        assert given != PotentialParams(2.0, -4.242640684290859, 1.0)
        assert replace(given).lam == derived.lam
        assert replace(given, v1=8.0).lam == PotentialParams(8.0, given.v2, 1.0).lam

    @pytest.mark.parametrize(
        "v1, lam, alpha, error, match",
        [
            (0.0, 1.0, 1.0, UnsupportedBranchError, "needs V1 > 0, got V1 = 0.0"),
            (-1.0, 1.0, 1.0, UnsupportedBranchError, "needs V1 > 0, got V1 = -1.0"),
            (1.0, 1.0, 0.0, ValueError, "alpha must be nonzero"),
            (1.0, math.inf, 1.0, ValueError, "V2 = -inf overflows float64"),
            (1e300, 1.5, 1e300, ValueError,
             "V2 = -inf overflows float64 at this working point"),
        ],
    )
    def test_from_lambda_rejects(self, v1, lam, alpha, error, match):
        with pytest.raises(error, match=match):
            PotentialParams.from_lambda(v1, lam, alpha)

    def test_no_lambda_without_the_pole_analysis(self):
        # V1 <= 0 and an underflowing 2 sqrt(V1) alpha keep their typed errors,
        # however lambda was set.
        for v1 in (0.0, -1.0):
            with pytest.raises(UnsupportedBranchError, match="needs V1 > 0"):
                PotentialParams(v1, -3.0, 1.0).lam
        match = r"underflows to 0 at V1 = 5e-324, alpha = 1e-200"
        for params in (PotentialParams(5e-324, -1.0, 1e-200),
                       PotentialParams.from_lambda(5e-324, 1.5, 1e-200)):
            with pytest.raises(DegeneratePotentialError, match=match):
                params.lam


class TestEvaluate:
    def test_value_at_origin_is_v2(self):
        params = PotentialParams(1.0, -3.0, 1.0)
        assert evaluate_potential(params, Variant.REAL_SINH_GORDON, 0.0) == -3.0 + 0j

    def test_high_precision_point(self):
        # sinh(1)^2 - 3 cosh(1), frozen from a 50-digit mpmath evaluation
        params = PotentialParams(1.0, -3.0, 1.0)
        value = evaluate_potential(params, Variant.REAL_SINH_GORDON, 1.0)
        with mpmath.workdps(50):
            expected = float(mpmath.sinh(1) ** 2 - 3 * mpmath.cosh(1))
        assert value.imag == 0.0
        assert value.real == pytest.approx(expected, rel=1e-15)
        assert value.real == pytest.approx(-3.2481440589039143, rel=1e-12)

    @given(v1=finite_reals, v2=finite_reals, x=finite_reals)
    def test_real_variant_even_exactly(self, v1, v2, x):
        params = PotentialParams(v1, v2, 1.0)
        plus = evaluate_potential(params, Variant.REAL_SINH_GORDON, x)
        minus = evaluate_potential(params, Variant.REAL_SINH_GORDON, -x)
        assert plus == minus

    @given(x=st.floats(min_value=-5.0, max_value=5.0))
    def test_imag_cosh_even_in_x(self, x):
        params = PotentialParams(1.0, 4.0, 1.0)
        plus = evaluate_potential(params, Variant.IMAG_COSH, x)
        minus = evaluate_potential(params, Variant.IMAG_COSH, -x)
        assert plus == minus

    def test_complex_variants_fix_alpha_two(self):
        # the stored alpha is ignored for the complex family
        params = PotentialParams(1.0, 3.0, 7.0)
        x = 0.4
        expected = math.sinh(2 * x) ** 2 + 3j * math.cosh(2 * x)
        assert evaluate_potential(params, Variant.IMAG_COSH, x) == pytest.approx(expected)
        expected = 1j * math.sinh(2 * x) ** 2 + 3 * math.cosh(2 * x)
        assert evaluate_potential(params, Variant.IMAG_SINH, x) == pytest.approx(expected)

    def test_nonfinite_x_rejected(self):
        params = PotentialParams(1.0, -3.0, 1.0)
        with pytest.raises(ValueError):
            evaluate_potential(params, Variant.REAL_SINH_GORDON, float("inf"))

    def test_array_evaluation(self):
        params = PotentialParams(1.0, -3.0, 1.0)
        x = np.linspace(-2, 2, 11)
        values = evaluate_potential(params, Variant.REAL_SINH_GORDON, x)
        assert values.shape == x.shape
        assert np.all(values.imag == 0.0)

    def test_double_well_shape(self):
        # V2 < 0 < V1 with -V2 >= 2 V1: symmetric double well with minima at
        # cosh(alpha x*) = -V2 / (2 V1)
        params = PotentialParams(1.0, -3.0, 1.0)
        x = np.linspace(-4.0, 4.0, 40001)
        values = evaluate_potential(params, Variant.REAL_SINH_GORDON, x).real
        x_star = math.acosh(1.5)
        assert abs(abs(x[np.argmin(values)]) - x_star) < 1e-3
        assert values.min() < params.v2  # below the local hump at the origin
        assert values[0] > params.v2 and values[-1] > params.v2


class TestClassify:
    def test_real_pt_and_lambda(self):
        report = classify_symmetry(PotentialParams(1.0, -3.0, 1.0), Variant.REAL_SINH_GORDON)
        assert report.pt_symmetric
        assert report.physical_qes_possible
        assert report.lambda_value == 1.5 + 0j

    def test_real_positive_v2_not_physical(self):
        report = classify_symmetry(PotentialParams(1.0, 3.0, 1.0), Variant.REAL_SINH_GORDON)
        assert report.lambda_value == -1.5 + 0j
        assert not report.physical_qes_possible

    def test_imag_cosh_lambda_is_plus_minus_i(self):
        report = classify_symmetry(PotentialParams(1.0, 4.0, 2.0), Variant.IMAG_COSH)
        assert report.pt_symmetric
        assert not report.physical_qes_possible
        assert sorted(c.imag for c in report.lambda_candidates) == [-1.0, 1.0]
        assert all(c.real == 0.0 for c in report.lambda_candidates)

    def test_imag_sinh_not_pt_symmetric(self):
        report = classify_symmetry(PotentialParams(1.0, 3.0, 2.0), Variant.IMAG_SINH)
        assert not report.pt_symmetric
        assert not report.physical_qes_possible
        assert report.lambda_value.imag != 0.0

    def test_v1_zero_degenerate(self):
        with pytest.raises(DegeneratePotentialError):
            classify_symmetry(PotentialParams(0.0, -3.0, 1.0), Variant.REAL_SINH_GORDON)

    def test_underflowing_denominator_degenerate(self):
        # 2 sqrt(V1) alpha = 2 * 2.2e-162 * 1e-200 underflows to 0: lambda has
        # no value, and the error names the working point.
        params = PotentialParams(5e-324, -1.0, 1e-200)
        match = r"underflows to 0 at V1 = 5e-324, alpha = 1e-200"
        with pytest.raises(DegeneratePotentialError, match=match):
            classify_symmetry(params, Variant.REAL_SINH_GORDON)
        with pytest.raises(DegeneratePotentialError, match=match):
            infinity_analysis(params)
        # The complex variants' fixed frequency 2 keeps it nonzero.
        for variant in (Variant.IMAG_COSH, Variant.IMAG_SINH):
            assert math.isfinite(abs(classify_symmetry(params, variant).lambda_value))


# (variant, V1, V2, alpha, repr of lambda_value, repr of -lambda_value): the
# branches with V1 < 0 or V2 = +-0, pinned bit for bit, signed zeros included.
PINNED_LAMBDAS = [
    ("REAL_SINH_GORDON", -1.0, -3.0, 1.0, "-1.5j", "(-0+1.5j)"),
    ("REAL_SINH_GORDON", -4.0, 3.0, 0.5, "1.5j", "(-0-1.5j)"),
    ("IMAG_COSH", -1.0, -3.0, 1.0, "(0.75+0j)", "(-0.75-0j)"),
    ("IMAG_COSH", -4.0, 3.0, 0.5, "(-0.375-0j)", "(0.375+0j)"),
    # -V2 = -0.0 over a complex denominator reads +0.
    ("REAL_SINH_GORDON", 1.0, 0.0, 1.0, "0j", "(-0-0j)"),
    ("REAL_SINH_GORDON", 1.0, -0.0, 1.0, "0j", "(-0-0j)"),
    ("REAL_SINH_GORDON", -1.0, 0.0, 1.0, "0j", "(-0-0j)"),
    ("REAL_SINH_GORDON", -1.0, -0.0, 1.0, "0j", "(-0-0j)"),
    ("IMAG_COSH", 1.0, 0.0, 1.0, "-0j", "(-0+0j)"),
    ("IMAG_COSH", 1.0, -0.0, 1.0, "0j", "(-0-0j)"),
    ("IMAG_COSH", -1.0, 0.0, 1.0, "-0j", "(-0+0j)"),
    ("IMAG_COSH", -1.0, -0.0, 1.0, "0j", "(-0-0j)"),
    ("IMAG_SINH", 1.0, 0.0, 1.0, "0j", "(-0-0j)"),
    ("IMAG_SINH", 1.0, -0.0, 1.0, "0j", "(-0-0j)"),
    ("IMAG_SINH", -1.0, 0.0, 1.0, "(-0+0j)", "-0j"),
    ("IMAG_SINH", -1.0, -0.0, 1.0, "0j", "(-0-0j)"),
]


def _reference_potential(v1, v2, alpha, variant, x):
    """Each variant's V written out on its own, as numpy evaluates it."""
    if variant is Variant.REAL_SINH_GORDON:
        # Cast, not + 0j: V = -0.0 (V1 <= 0, V2 = -0.0, x = 0) keeps its sign.
        value = v1 * np.sinh(alpha * x) ** 2 + v2 * np.cosh(alpha * x)
        return np.asarray(value, dtype=complex)
    a = 2.0
    if variant is Variant.IMAG_COSH:
        return v1 * np.sinh(a * x) ** 2 + 1j * v2 * np.cosh(a * x)
    return 1j * v1 * np.sinh(a * x) ** 2 + v2 * np.cosh(a * x)


class TestPinnedBranches:
    """V1 < 0 and V2 = +-0: bits (repr, signed zeros included), not closeness."""

    @pytest.mark.parametrize("name, v1, v2, alpha, lam, minus_lam", PINNED_LAMBDAS)
    def test_lambda_bits(self, name, v1, v2, alpha, lam, minus_lam):
        report = classify_symmetry(PotentialParams(v1, v2, alpha), Variant[name])
        assert repr(report.lambda_value) == lam
        assert [repr(c) for c in report.lambda_candidates] == [lam, minus_lam]
        assert report.physical_qes_possible == (lam == "(0.75+0j)")

    @pytest.mark.parametrize("name, v1, v2, alpha", [row[:4] for row in PINNED_LAMBDAS])
    def test_potential_bits(self, name, v1, v2, alpha):
        variant = Variant[name]
        params = PotentialParams(v1, v2, alpha)
        x = np.array([0.0, -0.0, 0.5, -1.25, 1e-200])
        expected = _reference_potential(v1, v2, alpha, variant, x)
        values = evaluate_potential(params, variant, x)
        assert [repr(v) for v in values.tolist()] == [repr(v) for v in expected.tolist()]
        scalar = evaluate_potential(params, variant, 0.0)
        assert repr(scalar) == repr(complex(expected[0]))
