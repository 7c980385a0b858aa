import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qhj_spectra
from qhj_spectra import (
    DegenerateVectorError,
    InadmissibleParametersError,
    InvariantViolationError,
    PotentialParams,
    QmfPoleError,
    Variant,
    build_pencil,
    count_moving_poles,
    enumerate_qes_sets,
    evaluate_potential,
    evaluate_wavefunction,
    moving_pole_contour_value,
    qhj_residual,
    quantum_momentum,
    quantum_momentum_derivative,
    reproduce_paper_tables,
    schrodinger_residual,
    solve_classification,
    solve_levels,
    verify_qes,
    wavefunction,
)
from qhj_spectra import cli, oracle, potential, qhj, solver
from qhj_spectra.solver import sign_changes
from qhj_spectra.qhj import INTEGER_TOLERANCE, SET_RESIDUES, QesSet


def closed_form(level, x):
    # The unnormalized log|psi| and sign of one level, read from its set's table.
    poly, log_scale = level.set_table.closed_form(level.row, np.asarray(x, dtype=float))
    with np.errstate(divide="ignore"):
        return np.log(np.abs(poly)) + log_scale, np.sign(poly)


def dense_closed_form(level, points=4000):
    # z in (0, z at the oracle's wall] and the level's closed form there, on
    # a grid much finer than the basis's quadrature nodes; the oracle's grid
    # is one of alpha x.
    alpha = level.params.alpha
    x = np.linspace(0.0, oracle.default_grid(level.params).half_width_L / alpha, points + 1)[1:]
    psi = evaluate_wavefunction(wavefunction(level, level.params), x)
    return np.cosh(alpha * x) - 1.0, psi


def one_row(level, coefficients=None, mu=None):
    # Row 0 of a set of one row, built from the level's set: its coefficients
    # (or the given ones) and mu, evaluated and normalised alone.
    table = level.set_table
    row = level.basis_coefficients if coefficients is None else coefficients
    mu = level.mu if mu is None else mu
    alone = solver._SetTable(table.pencil, table.params, [mu], table.basis, np.array([row]))
    return solver.QesLevel(mu, level.qes_set, level.params, 0, alone)


def params_for(set_index, n, v1=1.0, alpha=1.0):
    qes_set = QesSet(set_index, n)
    return qes_set, PotentialParams.from_lambda(v1, qes_set.lam, alpha)


class TestPencil:
    def test_set3_n0(self):
        qes_set, params = params_for(3, 0)
        pencil = build_pencil(qes_set, params)
        assert pencil.matrix == pytest.approx(np.array([[1.25]]))

    def test_set2_n0(self):
        qes_set, params = params_for(2, 0)
        pencil = build_pencil(qes_set, params)
        assert pencil.matrix == pytest.approx(np.array([[1.0]]))

    def test_set1_n1(self):
        qes_set, params = params_for(1, 1)
        pencil = build_pencil(qes_set, params)
        # in powers of z = y - 1; eigenvalues (1 +- sqrt(17))/2
        assert pencil.matrix == pytest.approx(np.array([[2.0, 1.0], [2.0, -1.0]]))

    def test_inadmissible_v2_rejected(self):
        qes_set = QesSet(2, 0)
        with pytest.raises(InadmissibleParametersError,
                           match="needs M = 2 lambda = 3, got lambda = 1.45 at V2 = -2.9"):
            build_pencil(qes_set, PotentialParams(1.0, -2.9, 1.0))

    @given(
        set_index=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=0, max_value=8),
        offset=st.floats(min_value=-1.0, max_value=1.0),
        s=st.floats(min_value=0.1, max_value=10.0),
        alpha=st.floats(min_value=0.2, max_value=5.0),
    )
    @example(set_index=1, n=0, offset=0.8, s=1.0, alpha=1.0)  # lambda = 0.5000000008
    @settings(max_examples=60, deadline=None)
    def test_admitted_sets_are_never_rejected(self, set_index, n, offset, s, alpha):
        # The working point the CLI builds for a lambda within the tolerance
        # keeps that lambda exactly; its sets are those build_pencil checks.
        lam = QesSet(set_index, n).lam + offset * INTEGER_TOLERANCE
        params = PotentialParams.from_lambda((s * alpha) ** 2, lam, alpha)
        assert params.lam == lam
        classification = enumerate_qes_sets(lam)
        # Only the rounding of lam itself can leave the tolerance, at its edges.
        assert abs(offset) > 0.5 or QesSet(set_index, n) in classification.sets
        solve_classification(params, classification)

    def test_lambda_is_read_not_derived(self, monkeypatch):
        # Neither the analytic path nor the oracle builds a SymmetryReport or
        # an InfinityAnalysis to learn lambda: they read params.lam.
        calls = []

        def counted(function):
            def wrapper(*args, **kwargs):
                calls.append(function.__name__)
                return function(*args, **kwargs)
            return wrapper

        for module in (qhj_spectra, potential, qhj, solver, oracle, cli):
            for name in ("classify_symmetry", "infinity_analysis"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name)))
        for params in (PotentialParams(1.0, -3.0, 1.0),
                       PotentialParams.from_lambda(2.0, 2.0, 0.5)):
            classification = enumerate_qes_sets(params.lam)
            solve_classification(params, classification)
            verify_qes(params, classification)
        cli._working_point({"v1": "1", "alpha": "1", "lambda": "1.5"})
        cli._working_point({"v1": "1", "alpha": "1", "v2": "-3"})
        assert calls == []

    def test_block_size_bound(self):
        # n = MAX_BLOCK_N still builds its pencil; one more is rejected,
        # naming the bound, before any array is made.
        qes_set, params = params_for(3, solver.MAX_BLOCK_N)
        assert build_pencil(qes_set, params).size == solver.MAX_BLOCK_N + 1
        for n in (solver.MAX_BLOCK_N + 1, 10**300):
            qes_set, params = params_for(3, n)
            with pytest.raises(InadmissibleParametersError,
                               match=f"supports n <= {solver.MAX_BLOCK_N}$"):
                build_pencil(qes_set, params)

    def test_band_structure(self):
        qes_set, params = params_for(1, 5)
        matrix = build_pencil(qes_set, params).matrix
        for i in range(6):
            for j in range(6):
                if j < i - 1 or j > i + 2:
                    assert matrix[i, j] == 0.0

    @pytest.mark.parametrize("set_index", sorted(SET_RESIDUES))
    def test_matches_three_diag_sum_byte_for_byte(self, set_index):
        for n in (0, 1, 9, 39):
            for s in (0.1, 1.0, 10.0):
                qes_set, params = params_for(set_index, n, v1=s * s)
                p1 = float(qes_set.b1 - Fraction(1, 4))
                p2 = float(qes_set.b1_prime - Fraction(1, 4))
                sigma, delta = p1 + p2, p1 - p2
                k = np.arange(n + 1, dtype=float)
                expected = (
                    np.diag(k * (k - 1.0) + (2.0 * sigma + 1.0 - 4.0 * s) * k
                            + 2.0 * s * n + sigma**2 - 2.0 * s * delta)
                    + np.diag(2.0 * s * (n - k[1:] + 1.0), -1)
                    + np.diag((k[:-1] + 1.0) * (2.0 * k[:-1] + 1.0 + 4.0 * p1), 1)
                )
                matrix = build_pencil(qes_set, params).matrix
                assert matrix.tobytes() == expected.tobytes(), (n, s)

    @given(
        set_index=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=0, max_value=6),
        s=st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_eigenvalues_real_and_distinct(self, set_index, n, s):
        qes_set, params = params_for(set_index, n, v1=s * s, alpha=1.0)
        levels = solve_levels(build_pencil(qes_set, params), params)
        energies = [lvl.energy for lvl in levels]
        assert len(energies) == n + 1
        assert all(np.diff(energies) > 0.0)


class TestLevels:
    def test_set2_anchor_energy(self):
        qes_set, params = params_for(2, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        assert level.energy == -1.0
        assert level.parity == "odd"
        assert level.node_count == 1

    def test_set3_anchor_energy(self):
        qes_set, params = params_for(3, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        assert level.energy == -1.25
        assert level.parity == "even"
        assert level.node_count == 0

    def test_set4_adjudicated_energy(self):
        qes_set, params = params_for(4, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        assert level.energy == 0.75
        assert level.parity == "odd"
        assert level.node_count == 1

    def test_set1_n1_energies_and_coefficients(self):
        # hand-solved secular system in z = y - 1: a0 = (3 +- sqrt(17))/4 with
        # E = 1 - 2 a0; frozen here and cross-checked downstream by the
        # Schrodinger residual and the numerical oracle
        qes_set, params = params_for(1, 1)
        levels = solve_levels(build_pencil(qes_set, params), params)
        r = math.sqrt(17.0)
        assert levels[0].energy == pytest.approx(-(1.0 + r) / 2.0, rel=1e-14)
        assert levels[1].energy == pytest.approx((r - 1.0) / 2.0, rel=1e-14)
        # P = z + a0 up to its scale: in the basis, c0 + c1 (z - alpha_0) / beta_1,
        # with c1 > 0 (positive beyond the zero) and c0^2 + c1^2 = 1.
        for level, a0 in zip(levels, ((r + 3.0) / 4.0, (3.0 - r) / 4.0)):
            (c0, c1), (alpha0,), (beta1,) = (level.basis_coefficients, level.basis.alpha,
                                             level.basis.beta)
            assert c1 > 0.0 and c0 * c0 + c1 * c1 == pytest.approx(1.0, rel=1e-14)
            assert alpha0 - c0 * beta1 / c1 == pytest.approx(-a0, rel=1e-12)
        assert [lvl.node_count for lvl in levels] == [0, 2]

    @pytest.mark.parametrize("set_index", [1, 2, 3, 4])
    def test_n0_closed_form(self, set_index):
        s = 1.7
        qes_set, params = params_for(set_index, 0, v1=s * s, alpha=1.0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        p1, p2 = float(qes_set.p1), float(qes_set.p2)
        expected = -((p1 + p2) ** 2) + 2.0 * s * (p1 - p2)
        assert level.energy == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("lam", [2.0, 10.0])
    def test_per_level_path_does_no_fraction_work(self, lam, monkeypatch):
        # The sets are built first; from then on every call reads the floats
        # QesSet stored at construction.
        params = PotentialParams(1.0, -2.0 * lam, 1.0)
        sets = enumerate_qes_sets(lam).sets
        calls = []
        for name in ("__float__", "__add__", "__sub__", "__eq__"):
            method = getattr(Fraction, name)

            def counted(*args, _method=method, _name=name):
                calls.append(_name)
                return _method(*args)

            monkeypatch.setattr(Fraction, name, counted)
        for qes_set in sets:
            for level in solve_levels(build_pencil(qes_set, params), params):
                wf = wavefunction(level, params)
                evaluate_wavefunction(wf, np.linspace(-5.0, 5.0, 101))
                count_moving_poles(level)
                qhj_residual(wf, level.energy, params, 0.74)
        assert calls == []

    def test_degenerate_well_limit(self):
        s = 1e-6
        qes_set, params = params_for(3, 0, v1=s * s, alpha=1.0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        assert level.energy == pytest.approx(-0.25, abs=2e-6)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0])
    def test_sturm_ordering_across_sets(self, lam):
        v2 = -2.0 * lam
        params = PotentialParams(1.0, v2, 1.0)
        levels = solve_classification(params, enumerate_qes_sets(lam))
        assert [lvl.node_count for lvl in levels] == list(range(int(2 * lam)))
        parities = [lvl.parity for lvl in levels]
        assert parities == ["even", "odd"] * (len(levels) // 2) + (
            ["even"] if len(levels) % 2 else []
        )


class TestLargeBlocks:
    # (lambda, s) with V1 = s^2 and alpha = 1: blocks of n = 19, 20 and 9, 10
    # that the earlier four-diagonal pencil in powers of y could not solve,
    # and n = 29, 28, which the monomial coefficients could not hold.
    @pytest.mark.parametrize(
        "lam, s",
        [(20.5, 0.1), (20.5, 0.3), (20.5, 1.0), (20.5, 3.0), (10.0, 0.1), (30.0, 1.0)],
    )
    def test_sturm_nodes_and_residuals(self, lam, s):
        params = PotentialParams(s * s, -2.0 * s * lam, 1.0)
        levels = solve_classification(params, enumerate_qes_sets(lam))
        assert len(levels) == int(2 * lam)
        for qes_set in enumerate_qes_sets(lam).sets:
            in_set = [lvl for lvl in levels if lvl.qes_set == qes_set]
            odd = 1 if qes_set.parity == "odd" else 0
            assert [lvl.node_count for lvl in in_set] == [
                2 * j + odd for j in range(qes_set.n + 1)
            ]
            for level in in_set:
                assert level.node_count == 2 * count_moving_poles(level) + odd
        for level in levels:
            wf = wavefunction(level, params)
            bound = 1e-8 * max(1.0, abs(level.energy))
            # The central barrier and the wells, where a deep level holds far
            # less than 1e-12 of its peak and P in the basis is round-off: the
            # QMF pieces there come from P's series at z = 0.
            for x in (0.3, 0.7, 1.1):
                assert abs(schrodinger_residual(wf, level.energy, params, x)) < bound

    def test_barrier_series_reads_the_sets_pencil(self, monkeypatch):
        # At (20.5, 1), x = 0.3, ten deep levels hold less than 1e-12 of
        # their peak and take P from its series at z = 0, whose monomial
        # coefficients come from the rows of H: the pencil their set was
        # solved from, not one built again per evaluation.
        lam, s = 20.5, 1.0
        params = PotentialParams(s * s, -2.0 * s * lam, 1.0)
        wfs = [wavefunction(level, params)
               for level in solve_classification(params, enumerate_qes_sets(lam))]
        series, frobenius = [], solver._frobenius

        def counted(level, z):
            series.append(level)
            return frobenius(level, z)

        def no_pencil(*args):
            raise AssertionError("a pencil was built after the solve")

        monkeypatch.setattr(solver, "_frobenius", counted)
        monkeypatch.setattr(solver, "build_pencil", no_pencil)
        for wf in wfs:
            energy = wf.level.energy
            residual = schrodinger_residual(wf, energy, params, 0.3)
            assert abs(residual) < 1e-8 * max(1.0, abs(energy))
        assert len(series) == 10

    def test_lambda_forty_small_s_keeps_every_node_count(self):
        # At (40, 0.27) the monomial eigenvector's smallest component
        # underflowed to 0 and the set failed; in the orthonormal basis no
        # entry over- or underflows, and every level keeps its node count.
        lam, s = 40.0, 0.27
        params = PotentialParams(s * s, -2.0 * s * lam, 1.0)
        classification = enumerate_qes_sets(lam)
        levels = solve_classification(params, classification)
        assert len(levels) == 80
        for qes_set in classification.sets:
            odd = 1 if qes_set.parity == "odd" else 0
            in_set = [lvl for lvl in levels if lvl.qes_set == qes_set]
            assert [lvl.node_count for lvl in in_set] == [
                2 * j + odd for j in range(qes_set.n + 1)]
            coefficients = np.array([lvl.basis_coefficients for lvl in in_set])
            np.testing.assert_allclose(coefficients @ coefficients.T, np.eye(len(in_set)),
                                       atol=1e-13)

    @pytest.mark.parametrize("set_index", [1, 2, 3, 4])
    def test_n_300_solves_in_energy_order_without_a_warning(self, set_index):
        # V1 = alpha = 1, n = 300: the monomial eigenvectors' last components
        # underflowed to 0 (from about n = 123) and the set failed.  In the
        # orthonormal basis it solves without a numpy warning: 301 levels in
        # energy order, with orthonormal coefficients and node counts 2 j + odd.
        qes_set, params = params_for(set_index, 300)
        pencil = build_pencil(qes_set, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels = solve_levels(pencil, params)
        odd = 1 if qes_set.parity == "odd" else 0
        assert [lvl.node_count for lvl in levels] == [2 * j + odd for j in range(301)]
        assert all(np.diff([lvl.energy for lvl in levels]) > 0.0)
        coefficients = np.array([lvl.basis_coefficients for lvl in levels])
        np.testing.assert_allclose(coefficients @ coefficients.T, np.eye(301), atol=1e-12)

    def test_lambda_thirty_set_three_matches_a_60_digit_closed_form(self):
        # (30, 1), set 3, n = 29: each level's mu refined by the secant rule
        # on the last row of (H - mu) c = 0, with c from the first n rows in
        # 60 digits (c_0 = 1), and psi = z^p1 (z + 2)^p2 exp(-s (1 + z)) P(z)
        # summed in 60 digits.  Both sides max-normalised on the grid, the
        # reference's sign that of its leading coefficient.  The monomial
        # closed form was off by 0.96 of a level's peak here.
        lam, s = 30.0, 1.0
        params = PotentialParams(s * s, -2.0 * s * lam, 1.0)
        qes_set = QesSet(3, 29)
        pencil = build_pencil(qes_set, params)
        levels = solve_levels(pencil, params)
        x = np.linspace(0.0, 6.0, 121)
        with mpmath.workdps(60):
            h = [[mpmath.mpf(float(value)) for value in row] for row in pencil.matrix]
            n = len(h) - 1

            def coefficients(mu):
                c = [mpmath.mpf(1), -(h[0][0] - mu) / h[0][1]]
                for k in range(1, n):
                    c.append(-(h[k][k - 1] * c[k - 1] + (h[k][k] - mu) * c[k]) / h[k][k + 1])
                return c, h[n][n - 1] * c[n - 1] + (h[n][n] - mu) * c[n]

            z = [mpmath.cosh(mpmath.mpf(float(xi))) - 1 for xi in x]
            prefactor = [zi ** mpmath.mpf(qes_set.p1) * (zi + 2) ** mpmath.mpf(qes_set.p2)
                         * mpmath.exp(-s * (1 + zi)) for zi in z]
            for level in levels:
                a = mpmath.mpf(-level.energy)
                b = a * (1 + mpmath.mpf(2) ** -40)
                fa, fb = coefficients(a)[1], coefficients(b)[1]
                for _ in range(60):
                    if fb == fa:
                        break
                    a, b, fa = b, b - fb * (b - a) / (fb - fa), fb
                    fb = coefficients(b)[1]
                c, _ = coefficients(b)
                psi = [w * mpmath.polyval(c[::-1], zi) for w, zi in zip(prefactor, z)]
                reference = np.array([float(value) for value in psi]) * float(mpmath.sign(c[-1]))
                reference /= np.abs(reference).max()
                got = evaluate_wavefunction(wavefunction(level, params), x)
                got /= np.abs(got).max()
                assert np.abs(got - reference).max() <= 1e-10, level.energy

    def test_no_false_pole_away_from_the_nodes(self):
        # At x = 2.3 every |P| here exceeds 1e-12 of the basis's roundoff
        # scale sum |c_k q_k(z)|: no level is flagged as a moving pole.
        lam, s = 20.5, 1.0
        params = PotentialParams(s * s, -2.0 * s * lam, 1.0)
        for level in solve_classification(params, enumerate_qes_sets(lam)):
            wf = wavefunction(level, params)
            assert quantum_momentum(wf, 2.3).imag != 0.0

    def test_doublets_degenerate_to_roundoff_list_set3_first(self):
        # At V1 = 0.0729 the deep set-3/set-4 doublets agree to ~1e-14, below
        # the 12 significant digits the CLI prints.
        lam = 10.0
        params = PotentialParams(0.0729, -2.0 * 0.27 * lam, 1.0)
        levels = solve_classification(params, enumerate_qes_sets(lam))
        doublets = [
            (first.qes_set.set_index, second.qes_set.set_index)
            for first, second in zip(levels, levels[1:])
            if "%.12g" % first.energy == "%.12g" % second.energy
        ]
        assert len(doublets) >= 3
        assert all(pair == (3, 4) for pair in doublets)


class TestWavefunction:
    def test_rejects_params_of_another_working_point(self):
        # Same V1 and alpha, so the same s: only V2 tells the two apart.
        qes_set, params = params_for(1, 1)
        level = solve_levels(build_pencil(qes_set, params), params)[0]
        moved = replace(params, v2=params.v2 - 0.5)
        assert moved.s == params.s
        with pytest.raises(InadmissibleParametersError, match="different parameters"):
            wavefunction(level, moved)

    def test_set2_shape_matches_sinh_form(self):
        qes_set, params = params_for(2, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        wf = wavefunction(level, params)
        x = np.linspace(0.3, 3.0, 7)
        values = evaluate_wavefunction(wf, x)
        reference = np.sinh(x) * np.exp(-np.cosh(x))
        ratio = values / reference
        assert np.allclose(ratio, ratio[0], rtol=1e-12)

    def test_set3_shape_matches_half_angle_cosh_form(self):
        qes_set, params = params_for(3, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        wf = wavefunction(level, params)
        x = np.linspace(-2.0, 2.0, 9)
        values = evaluate_wavefunction(wf, x)
        reference = np.cosh(x / 2.0) * np.exp(-np.cosh(x))
        ratio = values / reference
        assert np.allclose(ratio, ratio[0], rtol=1e-12)

    def test_set3_pointwise_value(self):
        # cosh(1/2) exp(-cosh(1)), frozen from a 50-digit evaluation
        with mpmath.workdps(50):
            unnormalized = float(mpmath.cosh(0.5) * mpmath.exp(-mpmath.cosh(1)))
            peak_ref = float(mpmath.cosh(0.0) * mpmath.exp(-1.0))
        assert unnormalized == pytest.approx(0.24099812445721638, rel=1e-12)
        qes_set, params = params_for(3, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        wf = wavefunction(level, params)
        assert evaluate_wavefunction(wf, 1.0) == pytest.approx(
            unnormalized / peak_ref, rel=1e-10
        )

    @given(x=st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=40, deadline=None)
    def test_parity_rule(self, x):
        for lam in (1.0, 1.5):
            params = PotentialParams(1.0, -2.0 * lam, 1.0)
            for level in solve_classification(params, enumerate_qes_sets(lam)):
                wf = wavefunction(level, params)
                sign = -1.0 if level.parity == "odd" else 1.0
                assert evaluate_wavefunction(wf, -x) == pytest.approx(
                    sign * evaluate_wavefunction(wf, x), abs=1e-13
                )

    def test_odd_vanishes_at_origin(self):
        qes_set, params = params_for(2, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        wf = wavefunction(level, params)
        assert evaluate_wavefunction(wf, 0.0) == 0.0

    @pytest.mark.parametrize("p1", [0.0, 0.5])
    @pytest.mark.parametrize("p2", [0.0, 0.5])
    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_prefactor_log_matches_50_digit_closed_form_in_z(self, p1, p2, s):
        # An n = 0 level has P = 1, so log|psi| = -s z + p1 ln z + p2 ln(z + 2)
        # (w's constant factor exp(-s) left out), z = cosh(x) - 1; checked
        # from near the origin out to the far tail.
        set_index = {(0.0, 0.0): 1, (0.5, 0.5): 2, (0.0, 0.5): 3, (0.5, 0.0): 4}[p1, p2]
        qes_set, params = params_for(set_index, 0, v1=s * s)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        assert level.basis_coefficients == (1.0,) and params.s == s
        assert level.basis == solver.OrthonormalBasis((), ())
        assert (float(qes_set.p1), float(qes_set.p2)) == (p1, p2)
        x = np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 700.0])
        log_abs, sign = closed_form(level, x)
        np.testing.assert_array_equal(sign, 1.0)
        with mpmath.workdps(50):
            for xi, got in zip(x, log_abs):
                z = mpmath.cosh(mpmath.mpf(float(xi))) - 1
                ref = -mpmath.mpf(s) * z
                ref += p1 * mpmath.log(z) + p2 * mpmath.log(z + 2)
                assert abs(got - ref) <= 4e-15 * max(1, abs(ref)), (xi, got, ref)

    def test_underflow_far_out_returns_zero(self):
        qes_set, params = params_for(2, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        wf = wavefunction(level, params)
        assert evaluate_wavefunction(wf, 50.0) == 0.0
        # ... also where sinh(alpha x / 2) itself overflows
        assert evaluate_wavefunction(wf, 3000.0) == 0.0

    def test_max_normalized(self):
        qes_set, params = params_for(3, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        wf = wavefunction(level, params)
        grid = np.linspace(-5.0, 5.0, 2001)
        assert np.max(np.abs(evaluate_wavefunction(wf, grid))) == pytest.approx(1.0)

    # Large lambda/s puts the peak beyond |x| = 5/alpha: the lattice reaches it.
    @pytest.mark.parametrize("lam, s", [(20.5, 0.1), (10.0, 0.1), (20.5, 0.3), (40.0, 1.0)])
    def test_max_normalized_beyond_five_over_alpha(self, lam, s):
        params = PotentialParams(s * s, -2.0 * s * lam, 1.0)
        grid = np.linspace(-9.0, 9.0, 3601)
        for level in solve_classification(params, enumerate_qes_sets(lam)):
            psi = evaluate_wavefunction(wavefunction(level, params), grid)
            assert np.max(np.abs(psi)) <= 1.0 + 1e-12

    def test_strong_well_keeps_the_exponent_digits(self):
        # At s = 1e12 the ground level of set 1 (lambda = 3/2, n = 1) peaks
        # at x = 0 inside a well of width about 1e-6, where its max-normalised
        # value is exp(-s z) P(z) / P(0) with P(z) = 1 + (mu - 2 s) z and
        # mu = (1 + sqrt(1 + 16 s^2)) / 2.  Keeping w's constant exp(-s) in
        # the exponent would round away digits of -s z (1.3e-4 of the peak).
        params = PotentialParams.from_lambda(1e24, 1.5, 1.0)
        ground = next(level for level in solve_classification(params, enumerate_qes_sets(1.5))
                      if level.qes_set.set_index == 1)
        x = np.linspace(0.0, 4e-6, 41)
        got = evaluate_wavefunction(wavefunction(ground, params), x)
        with mpmath.workdps(50):
            s = mpmath.mpf(params.s)
            slope = (1 + mpmath.sqrt(1 + 16 * s * s)) / 2 - 2 * s
            for xi, value in zip(x, got):
                z = 2 * mpmath.sinh(mpmath.mpf(float(xi)) / 2) ** 2
                assert abs(value - mpmath.exp(-s * z) * (1 + slope * z)) <= 1e-15, xi

    @pytest.mark.parametrize("s", [1e6, 1e12, 1e60])
    @pytest.mark.parametrize("lam", [1.5, 40.0])
    def test_lattice_resolves_narrow_wells(self, lam, s):
        # The well is about 1 / (alpha sqrt(s)) wide, and the lattice's step
        # 0.005 u / alpha shrinks with it (u = min(1, 10 / sqrt(s))): every
        # level's max-normalised peak reads 1 on a dense grid across the well.
        # A step of 0.005 / alpha fell between the points of the peak: set 2's
        # level read 32551 at s = 1e6 and inf at s = 1e12.
        params = PotentialParams.from_lambda(s * s, lam, 1.0)
        x = np.linspace(-20.0, 20.0, 20001) / math.sqrt(s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for level in solve_classification(params, enumerate_qes_sets(lam)):
                psi = evaluate_wavefunction(wavefunction(level, params), x)
                assert np.isfinite(psi).all()
                assert np.max(np.abs(psi)) <= 1.01

    @staticmethod
    def lattice_count(levels, params):
        # wavefunction's lattice rule at s <= 100: alpha x_k = 0.005 k out to
        # alpha x = 5, or to the farthest outer turning point of the levels
        # scanned together.
        lam, s = params.lam, params.s
        y_turn = max((lam + math.sqrt(lam * lam + s * s + level.energy / params.alpha**2)) / s
                     for level in levels)
        return math.ceil(200.0 * max(5.0, math.acosh(y_turn))) + 1

    @classmethod
    def uncached_log_norm(cls, level, params, members=None):
        # wavefunction's lattice rule, with z, ln z and ln(z + 2) computed
        # afresh, and the level's row evaluated with its set's rows in the
        # lattice chunks its set scans them in: members are the levels
        # scanned together (default: the level alone).
        members = [level] if members is None else members
        count = cls.lattice_count(members, params)
        sh = np.sinh(0.5 * (np.arange(count) * 0.005))
        z = 2.0 * sh * sh
        rows = [member.basis_coefficients for member in members]
        index = rows.index(level.basis_coefficients)
        step = max(1, solver._BLOCK_ENTRIES // len(rows))
        peak = -math.inf
        # As in wavefunction: ln z = -inf at x = 0 for an odd level.
        with np.errstate(divide="ignore"):
            log_w = -params.s * z
            if level.qes_set.p1 > 0.0:
                log_w += level.qes_set.p1 * np.log(z)
            if level.qes_set.p2 > 0.0:
                log_w += level.qes_set.p2 * np.log(z + 2.0)
            for start in range(0, count, step):
                part = slice(start, start + step)
                poly, log_scale = solver._evaluate(
                    np.array(rows), np.array(level.basis.alpha), np.array(level.basis.beta),
                    z[part], log_w[part])
                log_abs = np.log(np.abs(poly[index])) + log_scale
                peak = max(peak, float(np.max(log_abs[np.isfinite(log_abs)], initial=-np.inf)))
        return peak, count

    def test_log_norm_matches_uncached_grid_bit_for_bit(self):
        # Every level is scanned with its whole set on the alpha-free lattice;
        # alpha is a power of two here, so the log_norms repeat bit for bit
        # across alpha, and the second round hits the cache, keyed by the
        # lattice's point count.  At (10, 0.1) every level's turning point
        # lies past 5/alpha, so the lattice reaches farther.
        points = [
            (lam, s, alpha)
            for lam, s in [(1.5, 1.0), (10.0, 1.0), (20.5, 1.0), (10.0, 0.1)]
            for alpha in (0.5, 1.0, 2.0)
        ]
        solver._grid_terms.cache_clear()
        norms = {}
        for lam, s, alpha in points + points[::-1]:
            params = PotentialParams((s * alpha) ** 2, -2.0 * s * alpha**2 * lam, alpha)
            counts = set()
            levels = solve_classification(params, enumerate_qes_sets(lam))
            got = []
            for level in levels:
                members = [other for other in levels if other.qes_set == level.qes_set]
                expected, count = self.uncached_log_norm(level, params, members)
                got.append(wavefunction(level, params).log_norm)
                assert got[-1] == expected
                counts.add(count)
            assert norms.setdefault((lam, s), got) == got
            if (lam, s) == (10.0, 0.1):
                assert min(counts) > 1001
            else:
                assert counts == {1001}

    @pytest.mark.parametrize("s, lam", [(1.0, 1.5), (0.1, 10.0), (0.25, 20.5), (1.0, 40.0)])
    def test_log_norm_is_alpha_free(self, s, lam):
        # psi = w(z) P(z), z = cosh(alpha x) - 1, with w and P set by (s, lam)
        # alone, so at alpha = 2^k, where E = -alpha^2 mu is exact, every
        # level's log_norm is the same float from k = -300 to 300.
        norms = []
        for k in (-300, -10, 0, 10, 300):
            alpha = math.ldexp(1.0, k)
            params = PotentialParams.from_lambda((s * alpha) ** 2, lam, alpha)
            assert params.s == s
            levels = solve_classification(params, enumerate_qes_sets(lam))
            norms.append([wavefunction(level, params).log_norm for level in levels])
        assert all(got == norms[0] for got in norms)

    def test_unnormalisable_level_is_an_invariant_violation(self):
        qes_set, params = params_for(3, 1)
        level = solve_levels(build_pencil(qes_set, params), params)[0]
        with pytest.raises(InvariantViolationError, match="below the minimum of V"):
            wavefunction(one_row(level, mu=100.0), params)
        with pytest.raises(InvariantViolationError, match="no finite value"):
            wavefunction(one_row(level, coefficients=(math.nan, 1.0)), params)

    def test_empty_x_gives_an_empty_array(self):
        qes_set, params = params_for(1, 1)
        level = solve_levels(build_pencil(qes_set, params), params)[0]
        x = np.array([])
        assert closed_form(level, x)[0].shape == (0,)
        assert evaluate_wavefunction(wavefunction(level, params), x).shape == (0,)

    def test_cached_tables_are_read_only(self):
        tables = solver._grid_terms(1001, 1.0)
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0

    def test_schrodinger_residual_all_levels(self):
        rng = np.random.default_rng(11)
        for lam in (0.5, 1.0, 1.5, 2.0):
            params = PotentialParams(1.0, -2.0 * lam, 1.0)
            for level in solve_classification(params, enumerate_qes_sets(lam)):
                wf = wavefunction(level, params)
                bound = 1e-8 * max(1.0, abs(level.energy))
                for x in rng.uniform(-4.0, 4.0, 50):
                    assert abs(schrodinger_residual(wf, level.energy, params, x)) < bound


class TestQuantumMomentum:
    def test_even_level_zero_at_origin(self):
        qes_set, params = params_for(3, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        wf = wavefunction(level, params)
        assert quantum_momentum(wf, 0.0) == 0.0

    def test_purely_imaginary(self):
        qes_set, params = params_for(3, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        wf = wavefunction(level, params)
        p = quantum_momentum(wf, 0.8)
        assert p.real == 0.0 and p.imag != 0.0

    def test_pole_at_odd_node(self):
        qes_set, params = params_for(2, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        wf = wavefunction(level, params)
        with pytest.raises(QmfPoleError):
            quantum_momentum(wf, 0.0)

    def test_pole_at_polynomial_node(self):
        qes_set, params = params_for(1, 1)
        excited = solve_levels(build_pencil(qes_set, params), params)[1]
        wf = wavefunction(excited, params)
        # The zero of c0 + c1 (z - alpha_0) / beta_1, z = y - 1.
        (c0, c1), (alpha0,), (beta1,) = (excited.basis_coefficients, excited.basis.alpha,
                                         excited.basis.beta)
        x_node = math.acosh(1.0 + alpha0 - c0 * beta1 / c1)
        with pytest.raises(QmfPoleError):
            quantum_momentum(wf, x_node)

    def test_large_x_asymptotics(self):
        # p -> i s alpha sinh(alpha x) once the exponential factor dominates
        qes_set, params = params_for(2, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        wf = wavefunction(level, params)
        x = 8.0
        p = quantum_momentum(wf, x)
        assert p.imag == pytest.approx(math.sinh(x), rel=1e-3)

    @staticmethod
    def _top_level(lam):
        params = PotentialParams(1.0, -2.0 * lam, 1.0)
        top = solve_classification(params, enumerate_qes_sets(lam))[-1]
        return wavefunction(top, params), top.energy, params

    def test_finite_where_p_squared_overflows(self):
        # lambda = 20.5: the top level is set 1's, n = 20.  At x = 20, z^20
        # is about 1e168, so a monic P^2 overflows while P'/P and P''/P stay
        # moderate; the basis's q_k are smaller, and the ratios are the same.
        wf, energy, params = self._top_level(20.5)
        top = wf.level
        assert top.qes_set.set_index == 1 and len(top.basis_coefficients) == 21
        assert top.qes_set.p1 == top.qes_set.p2 == 0
        p = quantum_momentum(wf, 20.0)
        residual = qhj_residual(wf, energy, params, 20.0)
        assert abs(p) ** 2 == pytest.approx(5.9e16, rel=0.01)
        assert abs(residual) <= 1e-12 * abs(p) ** 2

    @pytest.mark.parametrize(
        "lam, x",
        # q_20(z) overflows; (alpha sinh(alpha x))^2 overflows.
        [(20.5, 40.0), (2.0, 356.0)],
    )
    def test_float64_overflow_names_x(self, lam, x):
        wf, energy, params = self._top_level(lam)
        with pytest.raises(ValueError, match=f"overflows float64 at x = {x!r}"):
            qhj_residual(wf, energy, params, x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_is_rejected(self, x):
        wf, energy, params = self._top_level(1.5)
        calls = [
            lambda: quantum_momentum(wf, x),
            lambda: quantum_momentum_derivative(wf, x),
            lambda: qhj_residual(wf, energy, params, x),
            lambda: schrodinger_residual(wf, energy, params, x),
            lambda: evaluate_wavefunction(wf, x),
            lambda: evaluate_wavefunction(wf, [0.5, x]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^x must be finite$"):
                call()

    @pytest.mark.parametrize("residual", [qhj_residual, schrodinger_residual])
    def test_residuals_reject_params_of_another_working_point(self, residual):
        # With V2 moved by 0.5 the QHJ residual at x = 0.7 reads 0.63, as if
        # the level missed the equation it was solved for.
        params = PotentialParams(1.0, -3.0, 1.0)
        level = solve_classification(params, enumerate_qes_sets(1.5))[0]
        wf = wavefunction(level, params)
        assert abs(residual(wf, level.energy, params, 0.7)) < 1e-12
        moved = replace(params, v2=params.v2 - 0.5)
        with pytest.raises(InadmissibleParametersError, match="different parameters"):
            residual(wf, level.energy, moved, 0.7)

    def test_qhj_identity_random_points(self):
        rng = np.random.default_rng(5)
        for lam in (1.0, 1.5, 2.0):
            params = PotentialParams(1.0, -2.0 * lam, 1.0)
            for level in solve_classification(params, enumerate_qes_sets(lam)):
                wf = wavefunction(level, params)
                checked = 0
                while checked < 20:
                    x = float(rng.uniform(-3.0, 3.0))
                    v = evaluate_potential(params, Variant.REAL_SINH_GORDON, x).real
                    try:
                        residual = qhj_residual(wf, level.energy, params, x)
                        p = quantum_momentum(wf, x)
                        dp = quantum_momentum_derivative(wf, x)
                    except QmfPoleError:
                        continue
                    # relative to the largest term in the identity, so points
                    # near a moving pole (where p^2 and p' both diverge) are
                    # judged fairly
                    scale = max(1.0, abs(level.energy - v), abs(p) ** 2, abs(dp))
                    assert abs(residual) < 1e-8 * scale
                    checked += 1


class TestMovingPoles:
    def test_constant_polynomial(self):
        qes_set, params = params_for(3, 0)
        (level,) = solve_levels(build_pencil(qes_set, params), params)
        assert count_moving_poles(level) == 0

    def test_set1_n1_ground_and_excited(self):
        qes_set, params = params_for(1, 1)
        ground, excited = solve_levels(build_pencil(qes_set, params), params)
        assert count_moving_poles(ground) == 0
        assert count_moving_poles(excited) == 1

    @staticmethod
    def direct_count(level):
        # The sign changes of the closed form on a dense grid, the oracle's
        # node rule; zeros of P in z > 0 are the closed form's nodes on x > 0.
        return oracle.node_count(dense_closed_form(level)[1])

    def test_counts_match_direct_root_counting(self):
        # (lambda, s) with V1 = s^2 and alpha = 1; at (10, 0.27) the top set-4
        # level has a real zero near y = 52.8.  From (13, 0.1) on, the zeros
        # spread over many decades of z.
        for lam, s in [
            (1.5, 1.0), (2.0, 1.0), (2.5, 1.0), (3.0, 1.0), (10.0, 0.27), (5.5, 0.1),
            (13.0, 0.1), (17.0, 0.3), (19.0, 1.0), (20.5, 0.1), (20.5, 1.0),
            (20.5, 3.0), (22.0, 10.0),
        ]:
            params = PotentialParams(s * s, -2.0 * s * lam, 1.0)
            for level in solve_classification(params, enumerate_qes_sets(lam)):
                assert count_moving_poles(level) == self.direct_count(level)

    def test_count_never_locates_a_root(self, monkeypatch):
        lam, s = 10.0, 0.27
        params = PotentialParams(s * s, -2.0 * s * lam, 1.0)
        levels = solve_classification(params, enumerate_qes_sets(lam))
        expected = [self.direct_count(level) for level in levels]
        expected_nodes = [
            2 * count + (1 if level.parity == "odd" else 0)
            for count, level in zip(expected, levels)
        ]

        def no_roots(*args, **kwargs):
            raise AssertionError("the analytic path located a root")

        with monkeypatch.context() as patched:
            patched.setattr(np, "roots", no_roots)
            patched.setattr(np.linalg, "eigvals", no_roots)
            solved = solve_classification(params, enumerate_qes_sets(lam))
            counted = [count_moving_poles(level) for level in solved]
        assert [level.node_count for level in solved] == expected_nodes
        assert counted == expected

    @pytest.mark.parametrize(
        "coefficients, even_nodes",
        [
            ((3.0, -1.0, -3.0, 1.0), 4),  # zeros 1, 3, -1
            ((-1.0, 0.0, 1.0), 2),  # zeros 1, -1: a zero coefficient is skipped
            ((2.0, 3.0, 1.0), 0),  # zeros -1, -2
            ((6.0, -5.0, 1.0), 4),  # zeros 2, 3
            ((1.0,), 0),
        ],
    )
    def test_node_count_by_descartes(self, coefficients, even_nodes):
        # Descartes' rule counts the zeros in z > 0 of a real-rooted P from
        # its coefficients' signs: the node rule that solve_levels' basis and
        # the oracle share, sign_changes (the sign changes of P sampled in
        # z > 0, ignoring values below 1e-12 of the peak), must count as
        # many.  A second row checks that rows do not mix.
        z = np.geomspace(1e-3, 1e3, 2001)
        weight = np.exp(-z)
        rows = np.stack([np.polyval(coefficients[::-1], z), np.ones_like(z)]) * weight
        changes = sign_changes(rows)[1].tolist()
        assert [2 * count for count in changes] == [even_nodes, 0]
        assert [2 * count + 1 for count in changes] == [even_nodes + 1, 1]

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        rows=st.integers(min_value=1, max_value=8),
        width=st.integers(min_value=1, max_value=12),
        entropy=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_node_count_rows_match_one_row_at_a_time(self, rows, width, entropy):
        # Exact zeros of both signs among ordinary entries, rows of zeros
        # included; each row counted as if alone, zeros dropped first.  A
        # row of zeros has no node count: the whole table is rejected.
        rng = np.random.default_rng(entropy)
        table = rng.standard_normal((rows, width))
        table[rng.random((rows, width)) < 0.4] = 0.0
        table[rng.random((rows, width)) < 0.1] = -0.0
        if not table.any(axis=1).all():
            with pytest.raises(DegenerateVectorError, match="^all-zero vector"):
                sign_changes(table)
            return
        expected = []
        for row in table:
            signs = np.sign(row)
            signs = signs[signs != 0.0]
            expected.append(int(np.count_nonzero(signs[1:] != signs[:-1])))
        assert sign_changes(table)[1].tolist() == expected

    def test_both_solvers_check_sturm_through_one_function(self, monkeypatch):
        # solve_levels' basis (a row per level on its nodes) and the oracle's
        # checked sector solve (a row per eigenvector on the grid) both call
        # the one sturm_signs.
        assert oracle.sturm_signs is solver.sturm_signs
        tables = []
        original = solver.sturm_signs

        def counted(table, message):
            tables.append(table.shape)
            return original(table, message)

        monkeypatch.setattr(solver, "sturm_signs", counted)
        monkeypatch.setattr(oracle, "sturm_signs", counted)
        qes_set, params = params_for(1, 1)
        solve_levels(build_pencil(qes_set, params), params)
        assert [rows for rows, _ in tables] == [2]
        grid = oracle.GridSpec(oracle.default_grid(params).half_width_L, 90)
        oracle.lowest_eigenvalues(params, grid, 3, "odd")
        assert [rows for rows, _ in tables] == [2, 3] and tables[1][1] == 90

    def test_contour_value_close_to_integer(self):
        qes_set, params = params_for(1, 1)
        for level in solve_levels(build_pencil(qes_set, params), params):
            raw = moving_pole_contour_value(level)
            assert abs(raw.real - round(raw.real)) < 1e-3
            assert abs(raw.imag) < 1e-3

    @staticmethod
    def nested_trapezoid(level):
        # The argument principle, (1/2 pi i) times the contour integral of
        # P'/P, on an ellipse in ln z of half-height 3/2 from the smallest z
        # where the level holds 1e-6 of its peak to twice the largest (its
        # zeros in z > 0 lie there, and P has digits to spare on the whole
        # contour), by the trapezoid rule: 64 nodes, then
        # one pass per doubling at the midpoints, until two passes agree to
        # 1e-9.  P and P' come from the basis's three-term recurrence in
        # complex z, so the count rests on neither the nodes nor their signs.
        c, alpha, beta = level.basis_coefficients, level.basis.alpha, level.basis.beta
        if not alpha:
            return 0j
        z, psi = dense_closed_form(level)
        held = z[np.abs(psi) >= 1e-6 * np.abs(psi).max()]
        left, right = math.log(held.min()), math.log(2.0 * held.max())
        center, a, b = 0.5 * (right + left), 0.5 * (right - left), 1.5

        def pass_sum(theta):
            z = np.exp(center + a * np.cos(theta) + 1j * b * np.sin(theta))
            dz_dtheta = z * (-a * np.sin(theta) + 1j * b * np.cos(theta))
            q, q_, dq, dq_ = np.ones_like(z), 0 * z, 0 * z, 0 * z
            p, dp = c[0] * q, 0 * z
            for k, (ak, bk) in enumerate(zip(alpha, beta)):
                b_prev = beta[k - 1] if k else 0.0
                q, q_, dq, dq_ = (((z - ak) * q - b_prev * q_) / bk, q,
                                  ((z - ak) * dq + q - b_prev * dq_) / bk, dq)
                p, dp = p + c[k + 1] * q, dp + c[k + 1] * dq
            return np.sum(dp / p * dz_dtheta)

        nodes = 64
        total = pass_sum(2.0 * math.pi * np.arange(nodes) / nodes)
        previous = total / nodes / 1j
        while nodes < 2**16:
            total += pass_sum(math.pi / nodes * (2.0 * np.arange(nodes) + 1.0))
            nodes *= 2
            value = total / nodes / 1j
            if abs(value - previous) <= 1e-9:
                return value
            previous = value
        raise AssertionError("the reference rule did not converge")

    def test_contour_value_matches_plain_nested_trapezoid(self):
        # The moving poles counted on the basis's nodes equal the argument
        # principle's count of P's zeros inside the contour.
        points = [(lam, s) for lam in (1.0, 1.5, 2.0, 5.5) for s in (0.3, 1.0, 3.0)]
        for lam, s in points + [(10.0, 1.0), (10.0, 3.0), (20.5, 1.0)]:
            params = PotentialParams(s * s, -2.0 * s * lam, 1.0)
            for level in solve_classification(params, enumerate_qes_sets(lam)):
                got = moving_pole_contour_value(level)
                assert abs(got - self.nested_trapezoid(level)) <= 1e-6, (lam, s)

    @pytest.mark.parametrize("module", ["scipy.integrate", "scipy.linalg"])
    def test_import_leaves_scipy_module_unloaded(self, module):
        # The whole package, oracle included, runs on numpy alone: after the
        # CLI has run verify and solve, neither this module nor any other
        # scipy module is loaded.
        src = os.path.dirname(os.path.dirname(qhj_spectra.__file__))
        code = (
            "import contextlib, io, sys\n"
            "from qhj_spectra.cli import main\n"
            "point = ['--v1', '1', '--alpha', '1', '--lambda', '1.5']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['verify', *point]), main(['solve', *point])]\n"
            f"print(codes, {module!r} in sys.modules,\n"
            "      sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        )
        assert result.stdout.strip() == "[0, 0] False []"

    def test_node_bookkeeping(self):
        # real-line node count = 2 * moving poles + parity contribution
        for lam in (1.5, 2.0):
            params = PotentialParams(1.0, -2.0 * lam, 1.0)
            for level in solve_classification(params, enumerate_qes_sets(lam)):
                odd = 1 if level.parity == "odd" else 0
                assert level.node_count == 2 * count_moving_poles(level) + odd


class TestSetTables:
    # The spectrum_sweep timed mix, (20.5, 1), (10, 0.1), (80.5, 1), whose
    # sets of 81 and 80 levels are each one product of all their rows, and
    # the mixed point lambda = 10, V1 = 0.05, where 8 of each set's 10 levels
    # turn past 5/alpha, so that the set's lattice reaches past it.
    MIX = [(lam, s) for lam in (1.0, 1.5, 2.0, 5.5) for s in (0.3, 1.0, 3.0)] + [
        (10.0, 1.0), (10.0, 3.0), (20.5, 1.0), (10.0, 0.1), (80.5, 1.0),
    ]

    @classmethod
    def working_points(cls):
        for alpha in (0.5, 1.0, 2.0):
            for lam, s in cls.MIX:
                v1, v2 = (s * alpha) ** 2, -2.0 * s * alpha**2 * lam
                yield lam, PotentialParams(v1, v2, alpha)
            root = math.sqrt(0.05)
            yield 10.0, PotentialParams(0.05, -2.0 * root * alpha * 10.0, alpha)

    @staticmethod
    def record_scans(monkeypatch):
        # (rows, points) of every normalisation scan or evaluation.
        evaluate, scans = solver._evaluate, []

        def counted(*args):
            scans.append((args[0].shape[0], args[3].size))
            return evaluate(*args)

        monkeypatch.setattr(solver, "_evaluate", counted)
        return scans

    @staticmethod
    def alone(level):
        # The level's row, as the one row of a set of its own.
        return one_row(level)

    def test_shared_rows_equal_a_table_of_one(self, monkeypatch):
        # A level normalised from its set's scan has, to round-off, the
        # log_norm of the same row scanned alone (the set's rows are one
        # product, whose bits depend on the block's shape).  An equal level,
        # made by replace, is the same row of the same set.
        split_sets = 0
        for lam, params in self.working_points():
            for level in solve_classification(params, enumerate_qes_sets(lam)):
                alone, same = self.alone(level), replace(level)
                assert alone.set_table is not level.set_table
                assert alone.basis_coefficients == level.basis_coefficients
                assert same == level and same.set_table is level.set_table
                wf = wavefunction(level, params)
                assert wf.log_norm == pytest.approx(wavefunction(alone, params).log_norm,
                                                    rel=1e-14, abs=1e-14)
                value = moving_pole_contour_value(level)
                assert value == moving_pole_contour_value(same)
                assert count_moving_poles(level) == count_moving_poles(same)
            if (lam, params.v1) == (10.0, 0.05) and params.alpha == 1.0:
                # One scan of the set's 10 rows, on a lattice past 5/alpha.
                with monkeypatch.context() as patch:
                    scans = self.record_scans(patch)
                    for qes_set in enumerate_qes_sets(lam).sets:
                        scans.clear()
                        for level in solve_levels(build_pencil(qes_set, params), params):
                            wavefunction(level, params)
                        assert len(scans) == 1 and scans[0][0] == 10 and scans[0][1] > 1001
                        split_sets += 1
        assert split_sets == 2

    def test_shared_evaluation_equals_a_table_of_one(self):
        # Each level's values are read from one evaluation of all its set's
        # rows; they agree, to round-off of the level's peak, with a level
        # evaluated alone, in energy order (the two sets interleaved) and in
        # reverse, at a grid, a 2-D x and scalars.
        for lam, params in self.working_points():
            levels = solve_classification(params, enumerate_qes_sets(lam))
            alone = {level: self.alone(level) for level in levels}
            wfs = {level: wavefunction(level, params) for level in levels}
            grid = np.linspace(-5.0, 5.0, 1001) / params.alpha

            def same(x, order):
                for level in order:
                    wf, wf_alone = wfs[level], replace(wfs[level], level=alone[level])
                    got = evaluate_wavefunction(wf, x)
                    want = evaluate_wavefunction(wf_alone, x)
                    assert np.shape(got) == np.shape(want)
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

            same(grid, levels)
            same(grid, levels[::-1])
            same(grid[:1000].reshape(40, 25), levels)
            for x in (0.0, 0.74, -2.87):
                same(x, levels[::-1])
                for level in levels:
                    try:
                        got = schrodinger_residual(wfs[level], level.energy, params, x)
                    except QmfPoleError:
                        continue
                    want = schrodinger_residual(replace(wfs[level], level=alone[level]),
                                                level.energy, params, x)
                    # A residual at round-off, over values equal to round-off.
                    assert got == pytest.approx(want, rel=1e-12,
                                                abs=1e-13 * max(1.0, abs(level.energy)))

    def test_evaluation_follows_x_bit_for_bit(self, monkeypatch):
        # The kept block is keyed by a copy of x: an x mutated in place is
        # evaluated afresh, an equal-valued copy reads the kept block.
        params = PotentialParams(1.0, -20.0, 1.0)
        qes_set = enumerate_qes_sets(10.0).sets[0]
        levels = solve_levels(build_pencil(qes_set, params), params)
        wfs = [wavefunction(level, params) for level in levels]
        evaluate, calls = solver._evaluate, []

        def counted(*args):
            calls.append(args[0].shape[0])
            return evaluate(*args)

        monkeypatch.setattr(solver, "_evaluate", counted)
        x = np.linspace(-5.0, 5.0, 1001)
        for step, wf in enumerate(wfs):
            if step == 3:
                x[500:] *= 0.5
            elif step == 6:
                x = x.copy()
            got = evaluate_wavefunction(wf, x)
            want = evaluate_wavefunction(replace(wf, level=self.alone(wf.level)), x)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        # One block of the set and one table of one per level; the mutated x
        # was evaluated again, the copy was not.
        assert calls == [len(levels)] + [1] * 3 + [len(levels)] + [1] * (len(levels) - 3)

    def test_first_pass_scans_every_row_in_bounded_lattice_chunks(self, monkeypatch):
        # A lambda = 20.5 set (about 20 levels of degree about 20) scans its
        # normalisation lattice with all its rows at once, in chunks of at
        # most _BLOCK_ENTRIES rows x points unless one point, and tables its
        # q_k in chunks of at most _BLOCK_ENTRIES entries unless one point;
        # every row's log_norm matches the whole lattice as one chunk to
        # round-off.  The default bound splits the 1001-point scan; 1000
        # leaves 47 points per chunk.
        evaluate, q_table = solver._evaluate, solver._q_table
        blocks, chunks = [], []

        def scan(coefficients, *args):
            blocks.append((coefficients.shape[0], args[2].size))
            return evaluate(coefficients, *args)

        def table(alpha, beta, z, top):
            chunks.append((len(alpha) + 1) * z.size)
            return q_table(alpha, beta, z, top)

        def filled(table):
            return np.array([table.log_norm(j) for j in range(len(table.mus))])

        params = PotentialParams(1.0, -41.0, 1.0)
        for bound in (solver._BLOCK_ENTRIES, 1000):
            for qes_set in enumerate_qes_sets(20.5).sets:
                rows = solve_levels(build_pencil(qes_set, params), params)
                whole = solve_levels(build_pencil(qes_set, params), params)
                blocks.clear()
                chunks.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(solver, "_BLOCK_ENTRIES", bound)
                    patch.setattr(solver, "_evaluate", scan)
                    patch.setattr(solver, "_q_table", table)
                    blocked = filled(rows[0].set_table)
                assert all(count == len(rows) for count, _ in blocks)
                assert all(count * points <= bound or points == 1 for count, points in blocks)
                assert all(entries <= bound for entries in chunks)
                assert len(blocks) > 1 and sum(points for _, points in blocks) == 1001
                with monkeypatch.context() as patch:
                    patch.setattr(solver, "_BLOCK_ENTRIES", 2**30)
                    single = filled(whole[0].set_table)
                np.testing.assert_allclose(blocked, single, rtol=1e-14)

    def test_evaluation_holds_one_block_within_the_table_bound(self, monkeypatch):
        # A lambda = 20.5 set (about 20 levels) evaluates all its rows in one
        # block where rows x points is at most _MAX_TABLE_ENTRIES, else each
        # level's row alone.  With the bound at 20 x 20001 entries, a
        # 20001-point x still goes in one block for set 2's 20 rows, but one
        # row per block for set 1's 21.  A table holds only its last block,
        # with a private copy of its x, until each of the block's rows has
        # been read: at most the bound plus one row of floats while a sweep
        # runs, none for a block of one row or a table of one, and none after it.
        evaluate, blocks = solver._evaluate, []

        def counted(*args):
            result = evaluate(*args)
            blocks.append((args[0].shape[0], result[0][0].size))
            return result

        monkeypatch.setattr(solver, "_evaluate", counted)
        params = PotentialParams(1.0, -41.0, 1.0)
        levels = solve_classification(params, enumerate_qes_sets(20.5))
        wfs = [wavefunction(level, params) for level in levels]
        tables = {id(level.set_table): level.set_table for level in levels}
        sizes = sorted(len(table.mus) for table in tables.values())
        assert sizes == [20, 21]
        for points, bound in [(1001, None), (20001, None), (20001, 20 * 20001)]:
            bound = bound or solver._MAX_TABLE_ENTRIES
            blocks.clear()
            held = []
            x = np.linspace(-5.0, 5.0, points)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_MAX_TABLE_ENTRIES", bound)
                for wf in wfs:
                    evaluate_wavefunction(wf, x)
                    table, row = wf.level.set_table, wf.level.row
                    if len(table.mus) * points > bound:
                        assert table._block is None
                    elif table._block is not None:
                        rows, key, *kept, unread = table._block
                        assert key == (x.shape, x.tobytes())
                        assert row not in unread
                        held.append(sum(array.nbytes for array in kept) // 8)
            assert all(rows * size <= bound or rows == 1 for rows, size in blocks)
            assert {size for _, size in blocks} == {points}
            assert sum(rows for rows, _ in blocks) == len(levels)
            assert held and max(held) <= bound + points
            if bound == solver._MAX_TABLE_ENTRIES:
                assert sorted(rows for rows, _ in blocks) == sizes
            else:
                assert sorted(blocks) == [(1, points)] * 21 + [(20, points)]
            for table in tables.values():
                assert [name for name, value in vars(table).items()
                        if isinstance(value, (np.ndarray, tuple))] == ["coefficients"]
        alone = self.alone(levels[0])
        evaluate_wavefunction(replace(wfs[0], level=alone), x[:1001])
        assert alone.set_table._block is None

    def test_a_spectrum_sweep_releases_every_block(self, monkeypatch):
        # Every level of (lambda, s) = (10, 1) evaluated at one x, as the
        # spectrum op does, two sets interleaved in energy order: one
        # evaluation per set, and no table holds a block afterwards.
        params = PotentialParams(1.0, -20.0, 1.0)
        levels = solve_classification(params, enumerate_qes_sets(10.0))
        wfs = [wavefunction(level, params) for level in levels]
        scans = self.record_scans(monkeypatch)
        x = np.linspace(-5.0, 5.0, 1001)
        for wf in wfs:
            evaluate_wavefunction(wf, x)
        assert scans == [(10, 1001)] * 2
        assert all(level.set_table._block is None for level in levels)

    @pytest.mark.parametrize("lam", [80.5, 200.5])
    def test_a_large_set_is_scanned_and_evaluated_whole(self, monkeypatch, lam):
        # At s = 1 the sets hold 80 to 201 levels.  Each set's normalisation
        # scan calls _evaluate once per lattice chunk of _BLOCK_ENTRIES // rows
        # points, with every row of the set, and every level evaluated on one
        # 1001-point x costs one call per set.
        params = PotentialParams.from_lambda(1.0, lam, 1.0)
        levels = solve_classification(params, enumerate_qes_sets(lam))
        scans = self.record_scans(monkeypatch)
        wfs = [wavefunction(level, params) for level in levels]
        chunks, whole = [], []
        for qes_set in enumerate_qes_sets(lam).sets:
            members = [level for level in levels if level.qes_set == qes_set]
            rows = len(members)
            count = TestWavefunction.lattice_count(members, params)
            step = solver._BLOCK_ENTRIES // rows
            chunks += [(rows, min(step, count - start)) for start in range(0, count, step)]
            whole.append((rows, 1001))
        assert min(rows for rows, _ in whole) >= 80
        assert sorted(scans) == sorted(chunks)
        scans.clear()
        x = np.linspace(-5.0, 5.0, 1001)
        for wf in wfs:
            evaluate_wavefunction(wf, x)
        assert sorted(scans) == sorted(whole)

    def test_a_one_row_set_never_reads_the_solved_sets_table(self):
        qes_set, params = params_for(1, 1)
        ground, excited = solve_levels(build_pencil(qes_set, params), params)
        wavefunction(ground, params)
        # Poison the filled table of the set: a level that read it would
        # return these values.
        ground.set_table._log_norms = [1e300, 1e300]
        for coefficients in [ground.basis_coefficients, excited.basis_coefficients,
                             (-0.6, 0.8)]:
            other = one_row(ground, coefficients)
            expected, _ = TestWavefunction.uncached_log_norm(other, params)
            assert wavefunction(other, params).log_norm == expected
        assert wavefunction(ground, params).log_norm == 1e300

    def test_a_replaced_level_reads_its_sets_row(self, monkeypatch):
        # replace(level, mu=...) changes only the energy the level reports:
        # E = -1000 lies below V's minimum, -101 at (10, 1), so a level
        # normalised alone would fail, but the replaced level is its set's
        # row, read from the set's one scan, with the row's values and nodes.
        params = PotentialParams(1.0, -20.0, 1.0)
        levels = solve_levels(build_pencil(enumerate_qes_sets(10.0).sets[0], params), params)
        scans = self.record_scans(monkeypatch)
        norms = [wavefunction(level, params).log_norm for level in levels]
        moved = [replace(level, mu=1000.0) for level in levels]
        assert [wavefunction(level, params).log_norm for level in moved] == norms
        assert scans == [(len(levels), 1001)]
        x = np.linspace(-5.0, 5.0, 101)
        for level, other in zip(levels, moved):
            assert other.energy == -1000.0 and other.set_table is level.set_table
            assert (other.row, other.node_count) == (level.row, level.node_count)
            np.testing.assert_array_equal(
                evaluate_wavefunction(wavefunction(other, params), x),
                evaluate_wavefunction(wavefunction(level, params), x))

    def test_a_failing_row_fails_only_its_own_level(self):
        qes_set, params = params_for(1, 1)
        (level, _) = solve_levels(build_pencil(qes_set, params), params)
        # A normalisation row with no finite value on its lattice.
        rows = [(0.6, 0.8), (math.nan, 0.8)]
        table = solver._SetTable(level.set_table.pencil, params, [level.mu] * 2, level.basis,
                                 np.array(rows))
        good, bad = (solver.QesLevel(level.mu, qes_set, params, j, table) for j in range(2))
        with pytest.raises(InvariantViolationError, match="no finite value"):
            wavefunction(bad, params)
        assert wavefunction(good, params).log_norm == pytest.approx(
            wavefunction(self.alone(good), params).log_norm, rel=1e-14)

    def test_a_row_with_no_finite_value_is_scanned_once(self, monkeypatch):
        params = PotentialParams(1.0, -4.0, 1.0)
        level = solve_classification(params, enumerate_qes_sets(2.0))[0]
        nan_level = one_row(level, coefficients=(math.nan, 1.0))
        scans = self.record_scans(monkeypatch)
        for _ in range(2):
            with pytest.raises(InvariantViolationError, match="no finite value"):
                wavefunction(nan_level, params)
        assert scans == [(1, 1001)]

    def test_a_widened_level_is_scanned_once(self, monkeypatch):
        # At V1 = 0.01, lambda = 10 every level's turning point lies past
        # 5/alpha: each set's 10 rows are scanned in one block, on a lattice
        # past 5/alpha, the first time only.
        params = PotentialParams(0.01, -2.0, 1.0)
        levels = solve_classification(params, enumerate_qes_sets(10.0))
        assert len(levels) == 20
        scans = self.record_scans(monkeypatch)
        norms = [[wavefunction(level, params).log_norm for level in levels]
                 for _ in range(3)]
        assert norms[0] == norms[1] == norms[2]
        assert len(scans) == 2 and all(rows == 10 and points > 1001 for rows, points in scans)

    def test_verify_fills_no_table(self):
        params = PotentialParams(1.0, -4.0, 1.0)
        classification = enumerate_qes_sets(2.0)
        levels = solve_classification(params, classification)
        assert verify_qes(params, classification, analytic_levels=levels).overall_pass
        for level in levels:
            table = level.set_table
            assert table._log_norms is None and table._block is None


class TestFailures:
    # Each library raise, reached directly, and the invariant failures, with
    # the fault injected, also through the CLI: an internal failure exits 3,
    # not 2, which is a usage error.
    ARGV = ["solve", "--v1", "1", "--alpha", "1", "--set", "1", "--n", "1"]

    @staticmethod
    def solved():
        qes_set, params = params_for(1, 1)
        return solve_levels(build_pencil(qes_set, params), params)

    def cli_error(self, capsys):
        code = cli.main(self.ARGV)
        return code, json.loads(capsys.readouterr().out)["error"]

    def test_node_table_cap_is_a_usage_error(self, monkeypatch, capsys):
        # (lambda, s) = (1.5, 1), set 1 has n = 1 on 46 nodes: 92 entries.
        monkeypatch.setattr(solver, "_MAX_TABLE_ENTRIES", 91)
        message = ("set 1 with n = 1 needs 46 quadrature nodes at s = 1.0; "
                   "(n + 1) x nodes is limited to 91")
        with pytest.raises(InadmissibleParametersError, match=f"^{re.escape(message)}$"):
            self.solved()
        assert self.cli_error(capsys) == (
            2, {"type": "InadmissibleParametersError", "message": message})

    def test_quadrature_that_cannot_hold_the_basis(self, monkeypatch, capsys):
        # The weight on one node alone: q_1 vanishes on the quadrature.
        nodes = solver._nodes

        def one_node(qes_set, params, mu_top):
            z, _ = nodes(qes_set, params, mu_top)
            return z, np.where(np.arange(z.size) == 0, 0.0, -np.inf)

        monkeypatch.setattr(solver, "_nodes", one_node)
        message = "the basis's quadrature cannot hold q_1: beta_1 = 0.0"
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
            self.solved()
        assert self.cli_error(capsys) == (
            3, {"type": "InvariantViolationError", "message": message})

    def test_basis_that_misses_the_energies(self, monkeypatch, capsys):
        # alpha_0 moved by the nodes' scale after the Stieltjes procedure.
        q_table = solver._q_table

        def shifted(alpha, beta, z, top, log_w=None):
            table = q_table(alpha, beta, z, top, log_w)
            if log_w is not None:
                alpha[0] += 1.0
            return table

        monkeypatch.setattr(solver, "_q_table", shifted)
        pattern = "^the basis of set 1 with n = 1 reproduces its energies' mu only to "
        with pytest.raises(InvariantViolationError, match=pattern):
            self.solved()
        code, error = self.cli_error(capsys)
        assert code == 3 and error["type"] == "InvariantViolationError"
        assert re.match(pattern, error["message"])

    def test_basis_with_a_false_node(self, monkeypatch, capsys):
        # The q_k's signs flipped on the outer half of the nodes: every
        # level gains a sign change there.
        q_table = solver._q_table

        def flipped(alpha, beta, z, top, log_w=None):
            t, log_scale = q_table(alpha, beta, z, top, log_w)
            if log_w is not None:
                t[:, z.size // 2:] *= -1.0
            return t, log_scale

        monkeypatch.setattr(solver, "_q_table", flipped)
        message = "Sturm ordering violated: level 0 of set 1 has 2 nodes"
        with pytest.raises(InvariantViolationError, match=f"^{message}$"):
            self.solved()
        assert self.cli_error(capsys) == (
            3, {"type": "InvariantViolationError", "message": message})


class TestPaperTables:
    def test_flags(self):
        report = reproduce_paper_tables(1.0, 1.0)
        flagged = {
            (row["table"], str(row["set"]), row["quantity"]): row["flag"]
            for row in report["rows"]
        }
        assert flagged[("3.2", "1", "energy")] == "paper-typo-suspected"
        assert flagged[("3.2", "2", "energy")] == "matches-paper"
        assert flagged[("3.3", "3", "energy")] == "matches-paper"
        assert flagged[("3.3", "4", "energy")] == "paper-typo-suspected"
        assert flagged[("3.3", "3-4", "wavefunction")] == "paper-typo-suspected"
        assert report["flags_summary"]["paper-typo-suspected"] == 3

    def test_table_3_1_carries_both_readings(self):
        report = reproduce_paper_tables(1.0, 1.0)
        assert len(report["table_3_1"]) == 4
        for row in report["table_3_1"]:
            assert "printed_m_definition" in row
            assert "reconciled_m_definition" in row

    def test_computed_energies_present(self):
        report = reproduce_paper_tables(1.0, 1.0)
        by_key = {
            (row["table"], str(row["set"]), row["quantity"]): row
            for row in report["rows"]
        }
        assert by_key[("3.2", "2", "energy")]["computed"] == [pytest.approx(-1.0)]
        assert by_key[("3.3", "3", "energy")]["computed"] == [pytest.approx(-1.25)]
        assert by_key[("3.3", "4", "energy")]["computed"] == [pytest.approx(0.75)]

    @pytest.mark.parametrize("v1, alpha", [(1.0, 1.0), (2.0, 0.5)])
    def test_row_order_and_flags(self, v1, alpha):
        report = reproduce_paper_tables(v1, alpha)
        rows = [
            (row["table"], str(row["set"]), row["quantity"], row["flag"])
            for row in report["rows"]
        ]
        assert rows == [
            ("3.2", "1", "energy", "paper-typo-suspected"),
            ("3.2", "2", "energy", "matches-paper"),
            ("3.2", "2", "wavefunction", "matches-paper"),
            ("3.2", "1", "wavefunction", "not-adjudicated"),
            ("3.3", "3", "energy", "matches-paper"),
            ("3.3", "4", "energy", "paper-typo-suspected"),
            ("3.3", "3-4", "wavefunction", "paper-typo-suspected"),
        ]
        assert report["parameters"] == {"v1": v1, "alpha": alpha}

    @pytest.mark.parametrize("v1, alpha", [(1.0, 1.0), (2.0, 0.5)])
    def test_energies_equal_closed_forms(self, v1, alpha):
        report = reproduce_paper_tables(v1, alpha)
        a2, root = alpha**2, math.sqrt(v1)
        set1 = math.sqrt(1.0 + 16.0 * v1 / a2)  # set 1, n = 1
        expected = {
            ("3.2", 1): (-a2 / 4.0 + alpha * root, [-a2 * (1 + set1) / 2, -a2 * (1 - set1) / 2]),
            ("3.2", 2): (-a2, [-a2]),
            ("3.3", 3): (-a2 / 4.0 - alpha * root, [-a2 / 4.0 - alpha * root]),
            # the printed set-4 value duplicates set 3
            ("3.3", 4): (-a2 / 4.0 - alpha * root, [-a2 / 4.0 + alpha * root]),
        }
        rows = {
            (row["table"], row["set"]): row
            for row in report["rows"]
            if row["quantity"] == "energy"
        }
        assert rows.keys() == expected.keys()
        for key, (printed, computed) in expected.items():
            assert rows[key]["printed"] == pytest.approx(printed, rel=1e-14)
            assert rows[key]["computed"] == pytest.approx(computed, rel=1e-9)
