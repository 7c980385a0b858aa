import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhj_spectra import (
    ComplexResidueError,
    PotentialParams,
    UnsupportedBranchError,
    enumerate_qes_sets,
    fixed_pole_analysis,
    indicial_residues,
    infinity_analysis,
    riccati_fixed_term,
)
from qhj_spectra.qhj import INTEGER_TOLERANCE, SET_RESIDUES, QesSet

import series_tools

QUARTER = Fraction(1, 4)
THREE_QUARTERS = Fraction(3, 4)

positive_v1 = st.floats(min_value=0.05, max_value=50.0)
any_v2 = st.floats(min_value=-50.0, max_value=50.0)
positive_alpha = st.floats(min_value=0.2, max_value=5.0)


class TestRiccatiFixedTerm:
    def test_direct_value_at_origin(self):
        term = riccati_fixed_term(PotentialParams(1.0, -3.0, 1.0))
        assert term.evaluate(0.0, 0.0) == pytest.approx(-0.5)

    def test_double_pole_coefficient_exact(self):
        term = riccati_fixed_term(PotentialParams(2.3, -1.7, 0.9))
        assert term.double_pole_coefficient(1) == Fraction(3, 16)
        assert term.double_pole_coefficient(-1) == Fraction(3, 16)

    def test_double_pole_coefficient_only_at_the_fixed_poles(self):
        with pytest.raises(ValueError, match=r"^fixed poles sit at y = \+-1, got 0$"):
            riccati_fixed_term(PotentialParams(1.0, -3.0, 1.0)).double_pole_coefficient(0)

    @given(v1=positive_v1, v2=any_v2, alpha=positive_alpha,
           energy=st.floats(min_value=-20, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_double_pole_coefficient_numeric_limit(self, v1, v2, alpha, energy):
        # cross-check the exact 3/16 by series extraction on a circle
        term = riccati_fixed_term(PotentialParams(v1, v2, alpha))
        for pole in (1, -1):
            coeffs = series_tools.circle_coefficients(
                lambda z: term.evaluate(z, energy), pole, 0.5, -2, -2
            )
            assert coeffs[-2].real == pytest.approx(3.0 / 16.0, abs=1e-12)
            assert abs(coeffs[-2].imag) < 1e-12

    @given(y=st.floats(min_value=-4.0, max_value=4.0), energy=any_v2)
    def test_even_when_v2_vanishes(self, y, energy):
        if abs(abs(y) - 1.0) < 1e-3:
            return
        term = riccati_fixed_term(PotentialParams(2.0, 0.0, 1.3))
        assert term.evaluate(y, energy) == pytest.approx(term.evaluate(-y, energy))

    def test_matches_the_dimensional_fixed_term(self):
        # The paper's G(y; E), from (V1, V2, alpha), against the term built
        # from (s, lambda) at eps = E / alpha^2, at complex y off the poles.
        rng = np.random.default_rng(38)
        for _ in range(500):
            v1, v2 = float(rng.uniform(0.05, 30.0)), float(rng.uniform(-30.0, 30.0))
            alpha, energy = float(rng.uniform(0.2, 5.0)), float(rng.uniform(-50.0, 50.0))
            y = complex(rng.uniform(-5.0, 5.0), rng.uniform(-2.0, 2.0))
            if min(abs(y - 1.0), abs(y + 1.0)) < 1e-2:
                continue
            q = y * y - 1.0
            expected = (y * y + 2.0) / (4.0 * q * q) + (
                energy - v1 * y * y - v2 * y + v1) / (alpha * alpha * q)
            term = riccati_fixed_term(PotentialParams(v1, v2, alpha))
            assert term.evaluate(y, energy / alpha**2) == pytest.approx(expected, rel=1e-12)

    def test_requires_positive_v1(self):
        with pytest.raises(UnsupportedBranchError):
            riccati_fixed_term(PotentialParams(-1.0, -3.0, 1.0))
        with pytest.raises(UnsupportedBranchError):
            riccati_fixed_term(PotentialParams(0.0, -3.0, 1.0))


class TestIndicialResidues:
    def test_three_sixteenths(self):
        low, high = indicial_residues(Fraction(3, 16))
        assert (low, high) == (QUARTER, THREE_QUARTERS)
        assert isinstance(low, Fraction) and isinstance(high, Fraction)

    def test_zero(self):
        assert indicial_residues(Fraction(0)) == (0, 1)

    def test_double_root(self):
        assert indicial_residues(Fraction(1, 4)) == (Fraction(1, 2), Fraction(1, 2))

    def test_sum_and_product(self):
        low, high = indicial_residues(Fraction(3, 16))
        assert low + high == 1
        assert low * high == Fraction(3, 16)

    def test_float_input(self):
        low, high = indicial_residues(0.1875)
        assert low == pytest.approx(0.25) and high == pytest.approx(0.75)

    def test_negative_discriminant(self):
        with pytest.raises(ComplexResidueError):
            indicial_residues(Fraction(1, 2))

    def test_irrational_root_falls_back_to_float(self):
        low, high = indicial_residues(Fraction(1, 8))
        assert isinstance(low, float)
        assert low + high == pytest.approx(1.0)


class TestFixedPoleAnalysis:
    def test_residues_exact_for_random_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v1 = float(rng.uniform(0.05, 30.0))
            v2 = float(rng.uniform(-30.0, 30.0))
            alpha = float(rng.uniform(0.2, 5.0))
            term = riccati_fixed_term(PotentialParams(v1, v2, alpha))
            for pole in (1, -1):
                analysis = fixed_pole_analysis(term, pole)
                assert analysis.residues == (QUARTER, THREE_QUARTERS)
                assert analysis.double_pole_coefficient == Fraction(3, 16)

    def test_a0_candidates(self):
        term = riccati_fixed_term(PotentialParams(4.0, -8.0, 2.0))
        analysis = fixed_pole_analysis(term, 1)
        assert sorted(analysis.a0_candidates) == [-1.0, 1.0]

    @given(v1=positive_v1, alpha=positive_alpha,
           energy=st.floats(min_value=-10, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_series_matching_consistency(self, v1, alpha, energy):
        # mechanical Laurent matching must reproduce the closed-form residues
        # and leave sub-1e-10 residuals at the matched orders
        term = riccati_fixed_term(params_for_set(2, 0, v1, alpha))
        for pole in (1, -1):
            for branch, expected in ((0, 0.25), (1, 0.75)):
                b, _, residuals = series_tools.match_fixed_pole(
                    term, pole, energy, branch
                )
                assert b == pytest.approx(expected, abs=1e-10)
                assert residuals[0] < 1e-10 and residuals[1] < 1e-10


def params_for_set(set_index, n, v1, alpha):
    return PotentialParams.from_lambda(v1, QesSet(set_index, n).lam, alpha)


class TestInfinity:
    def test_table_anchor(self):
        analysis = infinity_analysis(PotentialParams(1.0, -3.0, 1.0))
        assert analysis.lam == pytest.approx(1.5)
        assert analysis.c_physical == -1.0
        assert analysis.m_paper == pytest.approx(3.0)

    def test_sign_flip(self):
        assert infinity_analysis(PotentialParams(1.0, 3.0, 1.0)).lam == pytest.approx(-1.5)

    def test_scaled_parameters(self):
        assert infinity_analysis(PotentialParams(4.0, -8.0, 2.0)).lam == pytest.approx(1.0)

    @given(v1=positive_v1, v2=any_v2, alpha=positive_alpha)
    @settings(max_examples=30, deadline=None)
    def test_against_brute_force_series(self, v1, v2, alpha):
        params = PotentialParams(v1, v2, alpha)
        term = riccati_fixed_term(params)
        analysis = infinity_analysis(params)
        a0, lam = series_tools.match_infinity(term, branch_sign=-1)
        assert a0 == pytest.approx(analysis.c_physical, rel=1e-9)
        assert lam == pytest.approx(analysis.lam, rel=1e-8, abs=1e-9)
        a0_plus, _ = series_tools.match_infinity(term, branch_sign=+1)
        assert sorted(analysis.c_candidates) == pytest.approx(
            sorted([a0, a0_plus]), rel=1e-9
        )


class TestEnumeration:
    def test_half_odd_lambda(self):
        classification = enumerate_qes_sets(1.5)
        assert [(q.set_index, q.n) for q in classification.sets] == [(1, 1), (2, 0)]
        assert classification.total_levels == 3

    def test_integer_lambda(self):
        classification = enumerate_qes_sets(1.0)
        assert [(q.set_index, q.n) for q in classification.sets] == [(3, 0), (4, 0)]
        assert classification.total_levels == 2

    def test_smallest_lambda(self):
        classification = enumerate_qes_sets(0.5)
        assert [(q.set_index, q.n) for q in classification.sets] == [(1, 0)]
        assert classification.total_levels == 1

    def test_non_half_integer_empty(self):
        assert enumerate_qes_sets(0.7).sets == ()

    @given(lam=st.floats(min_value=-20.0, max_value=0.0))
    def test_nonpositive_lambda_empty(self, lam):
        assert enumerate_qes_sets(lam).sets == ()

    @given(k=st.integers(min_value=1, max_value=40))
    def test_total_levels_is_twice_lambda(self, k):
        lam = k / 2.0
        classification = enumerate_qes_sets(lam)
        assert classification.total_levels == k
        parities = {q.parity for q in classification.sets}
        assert parities == {"even", "odd"} or lam == 0.5

    def test_nonfinite_lambda_rejected(self):
        with pytest.raises(ValueError):
            enumerate_qes_sets(float("inf"))

    def test_set_parity_rule(self):
        for q in enumerate_qes_sets(2.0).sets + enumerate_qes_sets(2.5).sets:
            assert q.parity == ("odd" if q.b1 == THREE_QUARTERS else "even")

    @pytest.mark.parametrize(
        "lam, expected",
        [
            # From 2^51 on, lam - 1/4 - 1/4 rounds: these once admitted all
            # four sets, only set 2, and sets 1 and 2, respectively.
            (2500000000000000.5, [(1, 2500000000000000), (2, 2499999999999999)]),
            (2.0**51 + 0.5, [(1, 2**51), (2, 2**51 - 1)]),
            (1e17, [(3, 10**17 - 1), (4, 10**17 - 1)]),
            # 2 lam overflows here.
            (1.7e308, [(3, int(1.7e308) - 1), (4, int(1.7e308) - 1)]),
        ],
    )
    def test_exact_beyond_two_to_the_51(self, lam, expected):
        assert [(q.set_index, q.n) for q in enumerate_qes_sets(lam).sets] == expected

    @given(
        m=st.integers(min_value=0, max_value=2**61),
        edge=st.sampled_from([-1, 0, 1]),
        ulps=st.integers(min_value=-1, max_value=1),
    )
    @settings(max_examples=400, deadline=None)
    def test_admissions_match_the_exact_rule(self, m, edge, ulps):
        # lam sits at M = m +- 2 INTEGER_TOLERANCE (or at m), rounded, then
        # moved by one ulp either way; the reference takes lam exactly.
        tol = Fraction(INTEGER_TOLERANCE)
        lam = float((m + 2 * edge * tol) / 2)
        for _ in range(abs(ulps)):
            lam = math.nextafter(lam, math.copysign(math.inf, ulps))
        expected = []
        for index, (b1, b1p) in sorted(SET_RESIDUES.items()):
            k = 2 * (b1 + b1p)
            n = math.floor((2 * Fraction(lam) - k) / 2 + Fraction(1, 2))
            if n >= 0 and abs(2 * Fraction(lam) - 2 * n - k) <= 2 * tol:
                expected.append((index, n))
        assert [(q.set_index, q.n) for q in enumerate_qes_sets(lam).sets] == expected


class TestQesSet:
    # Table 3.1's residues (b1, b1') per set index.
    RESIDUES = {1: (QUARTER, QUARTER), 2: (THREE_QUARTERS, THREE_QUARTERS),
                3: (QUARTER, THREE_QUARTERS), 4: (THREE_QUARTERS, QUARTER)}

    @pytest.mark.parametrize("set_index", sorted(SET_RESIDUES))
    @pytest.mark.parametrize("n", [0, 3])
    def test_derived_floats_equal_the_exact_values(self, set_index, n):
        b1, b1p = self.RESIDUES[set_index]
        q = QesSet(set_index, n)
        assert (q.b1, q.b1_prime) == (b1, b1p)
        for got, exact in ((q.p1, b1 - QUARTER), (q.p2, b1p - QUARTER),
                           (q.lam, b1 + b1p + n)):
            assert type(got) is float and got == float(exact)
        assert q.parity == ("odd" if b1 == THREE_QUARTERS else "even")

    @pytest.mark.parametrize("set_index", [0, 5, -1])
    def test_unknown_index_raises(self, set_index):
        with pytest.raises(KeyError):
            QesSet(set_index, 0)

    @pytest.mark.parametrize("n", [-1, 1.5, 2.0, "1", None, True, False])
    def test_malformed_n_raises(self, n):
        # A negative n has no pencil, and a float n (even a whole one) or a
        # bool no integer pencil size: all are rejected where the set is built.
        with pytest.raises(ValueError, match=f"^n must be a non-negative int, got {n!r}$"):
            QesSet(1, n)

    @pytest.mark.parametrize("set_index", [True, False, 1.0, "1", None])
    def test_malformed_index_raises(self, set_index):
        # True would read as set 1 and 1.0 as set 1 too; neither is an index.
        with pytest.raises(ValueError, match=f"^set_index must be an int, got {set_index!r}$"):
            QesSet(set_index, 1)

    @given(n=st.integers(min_value=0, max_value=2**70))
    def test_lam_rounds_like_fraction_arithmetic(self, n):
        for set_index, (b1, b1p) in self.RESIDUES.items():
            assert QesSet(set_index, n).lam == float(b1 + b1p + n)

    def test_replace_recomputes_the_derived_fields(self):
        q = replace(QesSet(1, 0), set_index=4, n=3)
        assert (q.b1, q.b1_prime) == (THREE_QUARTERS, QUARTER)
        assert (q.p1, q.p2, q.lam, q.parity) == (0.5, 0.0, 4.0, "odd")

    def test_equality_hash_and_repr_cover_the_defining_fields(self):
        a = QesSet(3, 2)
        b = QesSet(set_index=3, n=2)
        assert a == b and hash(a) == hash(b)
        assert a != QesSet(3, 1) and a != QesSet(4, 2)
        assert repr(a) == "QesSet(set_index=3, n=2)"
        assert [f.name for f in fields(QesSet) if f.init] == ["set_index", "n"]


class TestTargetV2:
    @pytest.mark.parametrize(
        "set_index, n, expected",
        [(2, 0, -3.0), (3, 0, -2.0), (4, 0, -2.0), (1, 0, -1.0), (1, 1, -3.0)],
    )
    def test_unit_parameters(self, set_index, n, expected):
        # The V2 that from_lambda derives from the set's lambda.
        assert params_for_set(set_index, n, 1.0, 1.0).v2 == pytest.approx(expected)

    @given(v1=positive_v1, alpha=positive_alpha,
           set_index=st.integers(min_value=1, max_value=4),
           n=st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_infinity_analysis(self, v1, alpha, set_index, n):
        # from_lambda keeps the set's lambda exactly; the working point built
        # from its V2 gives it back to rounding and admits the same set.
        params = params_for_set(set_index, n, v1, alpha)
        b1, b1p = SET_RESIDUES[set_index]
        lam = float(b1 + b1p) + n
        assert infinity_analysis(params).lam == lam
        analysis = infinity_analysis(PotentialParams(v1, params.v2, alpha))
        assert analysis.lam == pytest.approx(lam, rel=1e-12)
        admitted = enumerate_qes_sets(analysis.lam)
        assert any(q.set_index == set_index and q.n == n for q in admitted.sets)
