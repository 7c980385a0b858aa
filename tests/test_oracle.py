import math

import numpy as np
import pytest

from qhj_spectra import (
    DegenerateVectorError,
    GridSpec,
    PotentialParams,
    default_grid,
    enumerate_qes_sets,
    infinity_analysis,
    lowest_eigenvalues,
    node_count,
    solve_classification,
    verify_qes,
)


def quick_grid(params, big_l=None, n=2001):
    big_l = big_l if big_l is not None else default_grid(params).half_width_L
    return GridSpec(half_width_L=big_l, point_count_N=n)


class TestGridSpec:
    def test_step(self):
        grid = GridSpec(half_width_L=5.0, point_count_N=500)
        assert grid.step == pytest.approx(0.01)

    def test_points_symmetric(self):
        # Cell-centred on (0, L): with their mirror images (the ghost points)
        # the points form a symmetric grid of step h.
        grid = GridSpec(half_width_L=3.0, point_count_N=600)
        x = grid.points()
        assert len(x) == 600
        assert x[0] == pytest.approx(grid.step / 2.0)
        assert x[-1] == pytest.approx(3.0 - grid.step / 2.0)
        mirrored = np.concatenate((-x[::-1], x))
        assert np.allclose(mirrored, -mirrored[::-1])
        assert np.allclose(np.diff(mirrored), grid.step)

    def test_refined_halves_step(self):
        grid = GridSpec(half_width_L=3.0, point_count_N=599)
        assert grid.refined().step == pytest.approx(grid.step / 2.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(half_width_L=3.0, point_count_N=100)

    @pytest.mark.parametrize("big_l", [math.nan, math.inf])
    def test_non_finite_half_width_rejected(self, big_l):
        with pytest.raises(ValueError, match="half_width_L must be finite"):
            GridSpec(half_width_L=big_l, point_count_N=1000)


class TestDefaultGrid:
    def test_unit_parameters(self):
        # s = 1, lambda = 3/2: the wall solves y - (3/2) ln y = 40.
        grid = default_grid(PotentialParams(1.0, -3.0, 1.0))
        y = math.cosh(grid.half_width_L)
        assert y - 1.5 * math.log(y) == pytest.approx(40.0, abs=1e-9)
        assert grid.step <= 0.002

    def test_strong_well_hits_floor(self):
        grid = default_grid(PotentialParams(100.0, -3.0, 1.0))
        assert grid.half_width_L == pytest.approx(math.acosh(10.0))

    def test_points_for_the_largest_set(self):
        # lambda = 150.5, s = 100: the wall and the step alone give N = 1497,
        # but set 1 (n = 150, even) needs 151 + 2 sector eigenvalues.
        params = PotentialParams(1e4, -2.0 * 100.0 * 150.5, 1.0)
        grid = default_grid(params)
        assert grid.point_count_N == 1530
        spectrum = lowest_eigenvalues(params, grid, k=153, parity="even")
        assert len(spectrum.eigenvalues) == 153

    def test_tail_criterion(self):
        for v1, alpha in [(1.0, 1.0), (0.25, 0.5), (100.0, 1.0), (9.0, 3.0)]:
            params = PotentialParams(v1, -3.0, alpha)
            grid = default_grid(params)
            y = math.cosh(alpha * grid.half_width_L)
            assert params.s * y >= 40.0 - 1e-9
            assert params.s * y - infinity_analysis(params).lam * math.log(y) >= (
                40.0 - 1e-9
            )


class TestNodeCount:
    def test_nodeless(self):
        assert node_count(np.exp(-np.linspace(-3, 3, 500) ** 2)) == 0

    def test_single_node(self):
        x = np.linspace(-4, 4, 801)
        assert node_count(np.sinh(x) * np.exp(-np.cosh(x))) == 1

    def test_tiny_entries_ignored(self):
        vector = np.array([1e-15, -1e-16, 1.0, 2.0, 1e-17, -1e-15])
        assert node_count(vector) == 0

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateVectorError):
            node_count(np.zeros(10))


class TestLowestEigenvalues:
    def test_lambda_three_halves_spectrum(self):
        # Set 1 (n = 1) is the even sector, set 2 (n = 0) the odd one.
        params = PotentialParams(1.0, -3.0, 1.0)
        grid = quick_grid(params, n=4001)
        r = math.sqrt(17.0)
        even = lowest_eigenvalues(params, grid, k=2, parity="even")
        odd = lowest_eigenvalues(params, grid, k=1, parity="odd")
        assert list(even.eigenvalues) == pytest.approx(
            [-(1.0 + r) / 2.0, (r - 1.0) / 2.0], abs=2e-5
        )
        assert list(odd.eigenvalues) == pytest.approx([-1.0], abs=2e-5)

    def test_lambda_one_spectrum(self):
        params = PotentialParams(1.0, -2.0, 1.0)
        grid = quick_grid(params, n=4001)
        even = lowest_eigenvalues(params, grid, k=1, parity="even")
        odd = lowest_eigenvalues(params, grid, k=1, parity="odd")
        assert even.eigenvalues[0] == pytest.approx(-1.25, abs=2e-5)
        assert odd.eigenvalues[0] == pytest.approx(0.75, abs=2e-5)

    def test_single_level(self):
        params = PotentialParams(1.0, -1.0, 1.0)
        spectrum = lowest_eigenvalues(
            params, quick_grid(params, n=4001), k=1, parity="even"
        )
        assert spectrum.eigenvalues[0] == pytest.approx(0.0, abs=2e-5)

    def test_sturm_node_counts(self):
        # Half-line eigenvector j has j sign changes in either sector.
        params = PotentialParams(1.0, -3.0, 1.0)
        for parity in ("even", "odd"):
            spectrum = lowest_eigenvalues(
                params, quick_grid(params, n=2001), k=5, parity=parity
            )
            for j in range(5):
                assert node_count(spectrum.eigenvectors[:, j]) == j

    def test_k_too_large_rejected(self):
        params = PotentialParams(1.0, -3.0, 1.0)
        with pytest.raises(ValueError, match="N >= 510"):
            lowest_eigenvalues(params, quick_grid(params, n=500), k=51, parity="even")

    def test_boundary_insensitivity(self):
        params = PotentialParams(1.0, -3.0, 1.0)
        base = default_grid(params)
        a = lowest_eigenvalues(
            params, quick_grid(params, base.half_width_L, 3001), k=1, parity="odd"
        )
        b = lowest_eigenvalues(
            params, quick_grid(params, 1.2 * base.half_width_L, 3601), k=1,
            parity="odd",
        )
        # compare through Richardson-free values on matched steps: the step
        # sizes differ slightly, so verify against the analytic energies
        for values in (a.eigenvalues, b.eigenvalues):
            assert values[0] == pytest.approx(-1.0, abs=1e-4)

    def test_far_wall_keeps_low_eigenvalues_sharp(self):
        # At L = 20, V(L) ~ 6e16 dwarfs the kinetic scale 4/h^2 ~ 5e4: a
        # bisection tolerance of eps |T|_1 would blur the lowest eigenvalues
        # and their eigenvectors past the Sturm node check.
        params = PotentialParams(1.0, -2.0, 1.0)
        grid = GridSpec(20.0, default_grid(params).point_count_N)
        report = verify_qes(params, enumerate_qes_sets(1.0), grid=grid)
        assert report.overall_pass
        assert max(r.abs_gap for r in report.rows) < 1e-10


class TestVerify:
    def test_lambda_one_passes(self):
        params = PotentialParams(1.0, -2.0, 1.0)
        report = verify_qes(
            params, enumerate_qes_sets(1.0), tolerance=1e-4,
            grid=quick_grid(params, n=2001),
        )
        assert report.overall_pass
        assert [r.energy_analytic for r in report.rows] == [-1.25, 0.75]
        assert [r.node_count_oracle for r in report.rows] == [0, 1]
        assert report.convergence_order_estimate == pytest.approx(2.0, abs=0.1)

    def test_lambda_three_halves_passes(self):
        params = PotentialParams(1.0, -3.0, 1.0)
        report = verify_qes(
            params, enumerate_qes_sets(1.5), tolerance=1e-4,
            grid=quick_grid(params, n=2001),
        )
        assert report.overall_pass
        assert [r.node_count_oracle for r in report.rows] == [0, 1, 2]
        assert len(report.unmatched_oracle) > 0  # non-QES levels above the block

    def test_unmatched_levels_lie_above_qes_block(self):
        params = PotentialParams(1.0, -3.0, 1.0)
        report = verify_qes(
            params, enumerate_qes_sets(1.5), tolerance=1e-4,
            grid=quick_grid(params, n=2001),
        )
        top_qes = max(r.energy_analytic for r in report.rows)
        assert all(e > top_qes for e in report.unmatched_oracle)

    def test_wrong_energy_is_hard_mismatch(self):
        params = PotentialParams(1.0, -2.0, 1.0)
        classification = enumerate_qes_sets(1.0)
        levels = solve_classification(params, classification)

        class Shifted:
            def __init__(self, level, energy):
                self._level = level
                self.energy = energy

            def __getattr__(self, name):
                return getattr(self._level, name)

        fake = [Shifted(levels[0], -1.7), levels[1]]
        report = verify_qes(
            params, classification, tolerance=1e-4,
            grid=quick_grid(params, n=2001), analytic_levels=fake,
        )
        assert not report.overall_pass
        # Set 3's even sector has its lowest eigenvalue at -1.25.
        assert report.rows[0].abs_gap == pytest.approx(0.45, abs=1e-4)
        assert report.rows[1].abs_gap <= 1e-4

    def test_collision_is_hard_mismatch(self):
        params = PotentialParams(1.0, -2.0, 1.0)
        classification = enumerate_qes_sets(1.0)
        levels = solve_classification(params, classification)

        class Shifted:
            def __init__(self, level, energy):
                self._level = level
                self.energy = energy

            def __getattr__(self, name):
                return getattr(self._level, name)

        # Set 4's level moved onto set 3's energy: its odd sector has no
        # eigenvalue there.
        fake = [levels[0], Shifted(levels[1], levels[0].energy)]
        report = verify_qes(
            params, classification, tolerance=1e-4,
            grid=quick_grid(params, n=2001), analytic_levels=fake,
        )
        assert not report.overall_pass
        assert report.rows[0].abs_gap <= 1e-4
        # The odd sector's lowest eigenvalue is 0.75, two above -1.25.
        assert report.rows[1].parity == "odd"
        assert report.rows[1].abs_gap == pytest.approx(2.0, abs=1e-4)

    # Tunnelling doublets (V1 = s^2, alpha = 1) that the full-line oracle
    # could not separate or assign a parity to.
    @pytest.mark.parametrize("lam", [10.0, 20.5])
    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_large_blocks_pass_the_gate(self, lam, s):
        params = PotentialParams(s * s, -2.0 * s * lam, 1.0)
        report = verify_qes(params, enumerate_qes_sets(lam))
        assert report.overall_pass
        assert len(report.rows) == int(2 * lam)
        assert all(r.abs_gap <= 1e-6 for r in report.rows)
        assert all(r.node_count_oracle == r.node_count_analytic for r in report.rows)
        top_qes = max(r.energy_analytic for r in report.rows)
        assert len(report.unmatched_oracle) == 4
        assert all(e > top_qes for e in report.unmatched_oracle)

    def test_empty_classification_rejected(self):
        params = PotentialParams(1.0, -1.4, 1.0)
        with pytest.raises(ValueError):
            verify_qes(params, enumerate_qes_sets(0.7))

    def test_convergence_ratio_near_four(self):
        params = PotentialParams(1.0, -2.0, 1.0)
        report = verify_qes(
            params, enumerate_qes_sets(1.0), tolerance=1e-4,
            grid=quick_grid(params, n=2001),
        )
        for row in report.rows:
            assert 3.5 <= row.gap_h / row.gap_half_h <= 4.5
