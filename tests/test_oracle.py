import itertools
import json
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from qhj_spectra import (
    DegenerateVectorError,
    GridSpec,
    InadmissibleParametersError,
    InvariantViolationError,
    PotentialParams,
    default_grid,
    enumerate_qes_sets,
    infinity_analysis,
    lowest_eigenvalues,
    node_count,
    solve_classification,
    verify_qes,
)
from qhj_spectra import cli, oracle
from qhj_spectra.oracle import (
    EXTRA_ORACLE_LEVELS,
    MAX_GRID_POINTS,
    START_STEP,
    _checked_spectrum,
    _kinetic_table,
    _sector_hamiltonian,
)
from qhj_spectra.solver import MAX_BLOCK_N, sign_changes


def quick_grid(params, big_l=None, n=90):
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

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            GridSpec(half_width_L=3.0, point_count_N=0)

    @pytest.mark.parametrize("count", [20.0, 3.5, "20", None, True, False])
    def test_non_int_point_count_rejected(self, count):
        # A float N, even a whole one, or a bool (True would build a
        # one-point grid) sizes no grid: rejected where it is built.
        with pytest.raises(ValueError, match=f"^point_count_N must be an int, got {count!r}$"):
            GridSpec(half_width_L=3.0, point_count_N=count)

    @pytest.mark.parametrize("big_l", [math.nan, math.inf])
    def test_non_finite_half_width_rejected(self, big_l):
        with pytest.raises(ValueError, match="half_width_L must be finite"):
            GridSpec(half_width_L=big_l, point_count_N=1000)

    def test_wall_at_the_origin_rejected(self):
        with pytest.raises(ValueError, match="^half_width_L must be positive$"):
            GridSpec(half_width_L=0.0, point_count_N=3)


class TestDefaultGrid:
    def test_unit_parameters(self):
        # s = 1, lambda = 3/2: the wall solves y - (3/2) ln y = 40, and the
        # sizing rule starts from the fewest points with alpha h <= START_STEP,
        # more than the 3 k = 12 the largest set needs.
        grid = default_grid(PotentialParams(1.0, -3.0, 1.0))
        y = math.cosh(grid.half_width_L)
        assert y - 1.5 * math.log(y) == pytest.approx(40.0, abs=1e-9)
        assert grid.point_count_N == math.ceil(math.acosh(y) / START_STEP) == 23

    def test_strong_well_hits_floor(self):
        grid = default_grid(PotentialParams(100.0, -3.0, 1.0))
        assert grid.half_width_L == pytest.approx(math.acosh(10.0))

    def test_points_for_the_largest_set(self):
        # lambda = 150.5, s = 100: set 1 (n = 150, even) needs 151 + 2 sector
        # eigenvalues, and the sizing rule starts from three points for each.
        params = PotentialParams(1e4, -2.0 * 100.0 * 150.5, 1.0)
        grid = default_grid(params)
        assert grid.point_count_N == 459
        spectrum = lowest_eigenvalues(params, grid, k=153, parity="even")
        assert len(spectrum.eigenvalues) == 153

    def test_tail_criterion(self):
        # The grid is one of xi = alpha x: its wall is y = cosh(L).
        for v1, alpha in [(1.0, 1.0), (0.25, 0.5), (100.0, 1.0), (9.0, 3.0)]:
            params = PotentialParams(v1, -3.0, alpha)
            grid = default_grid(params)
            y = math.cosh(grid.half_width_L)
            assert params.s * y >= 40.0 - 1e-9
            assert params.s * y - infinity_analysis(params).lam * math.log(y) >= (
                40.0 - 1e-9
            )

    def test_start_step_on_the_envelope_scan(self):
        # Half-integer lambda in [0.5, 39.5] x s = 10^(i/12 - 1), i = 0..24:
        # no start has more points than the 60-point floor it replaced, and
        # every start above 3 k has a step h <= START_STEP in xi = alpha x.
        # The grid is the same at every alpha, since it is sized from (s, lambda).
        for twice_lam, i in itertools.product(range(1, 80), range(25)):
            lam, s = twice_lam / 2.0, 10.0 ** (i / 12 - 1)
            k = math.floor(lam + 0.5) + 2
            grids = set()
            for alpha in (0.5, 1.0, 2.0):
                v1 = (alpha * s) ** 2
                grid = default_grid(
                    PotentialParams(v1, -2.0 * math.sqrt(v1) * alpha * lam, alpha)
                )
                n = grid.point_count_N
                assert n <= max(60, 3 * k)
                if n > 3 * k:
                    assert grid.step <= START_STEP
                grids.add(grid)
            assert len(grids) == 1

    def test_start_step_holds_the_gaps_down_on_the_scan(self):
        # The envelope scan's half-integer lambda <= 10 x its 25 s, alpha = 1
        # (500 verify calls, about 1-2 s): the start step keeps every gap to
        # the analytic energies and every self-gap at round-off.  A step of
        # 0.25 leaves self-gaps up to 5.2e-10 at lambda = 3, s <= 0.26.
        for twice_lam, i in itertools.product(range(1, 21), range(25)):
            lam, s = twice_lam / 2.0, 10.0 ** (i / 12 - 1)
            report = verify_qes(PotentialParams.from_lambda(s * s, lam, 1.0),
                                enumerate_qes_sets(lam))
            assert report.overall_pass, (lam, s)
            assert all(row.abs_gap <= 1e-10 for row in report.rows), (lam, s)
            assert report.max_self_gap <= 1e-10, (lam, s)


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

    @pytest.mark.parametrize(
        "vector",
        [[], [0.0, -0.0], [1.0, np.nan, -1.0], [np.inf, -1.0], [1.0, -np.inf]],
    )
    def test_empty_zero_and_non_finite_rejected(self, vector):
        with pytest.raises(DegenerateVectorError):
            node_count(np.array(vector))

    @staticmethod
    def plain_node_count(vector):
        # The count written out for one vector: keep the entries at or above
        # 1e-12 of the peak, then count strict sign flips between neighbours.
        peak = float(np.max(np.abs(vector)))
        kept = vector[np.abs(vector) >= 1e-12 * peak]
        signs = np.sign(kept)
        return int(np.sum(signs[1:] * signs[:-1] < 0))

    @seed(20262)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.1, max_value=10.0),
                st.floats(min_value=-10.0, max_value=-0.1),
                # exact zeros of both signs, and entries below the floor
                st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 5e-14, -9e-13]),
            ),
            min_size=1,
            max_size=40,
        ).filter(lambda values: any(abs(v) >= 0.1 for v in values))
    )
    def test_matches_the_plain_formula(self, values):
        vector = np.array(values)
        assert node_count(vector) == self.plain_node_count(vector)

    @seed(20261)
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        rows=st.integers(min_value=1, max_value=12),
        columns=st.integers(min_value=1, max_value=5),
        entropy=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_column_sign_changes_match_node_count(self, rows, columns, entropy):
        # Exact zeros, entries below 1e-12 of the column peak (either sign)
        # and leading runs of dropped entries, between ordinary ones.
        rng = np.random.default_rng(entropy)
        matrix = rng.standard_normal((rows, columns))
        kind = rng.integers(0, 4, size=(rows, columns))
        tiny = rng.choice([-1.0, 1.0], size=(rows, columns)) * 1e-14
        matrix = np.where(kind == 1, 0.0, np.where(kind == 2, tiny, matrix))
        lead = rng.integers(0, rows, size=columns)
        matrix[np.arange(rows)[:, None] < lead] *= 1e-13
        # Keep every column's peak an ordinary entry.
        matrix[rng.integers(0, rows, size=columns), np.arange(columns)] = 1.0
        counts = sign_changes(matrix.T)[1]
        assert counts.tolist() == [node_count(matrix[:, j]) for j in range(columns)]

    def test_column_sign_changes_reject_a_zero_column(self):
        matrix = np.ones((4, 3))
        matrix[:, 1] = 0.0
        with pytest.raises(DegenerateVectorError):
            sign_changes(matrix.T)


class TestLowestEigenvalues:
    def test_lambda_three_halves_spectrum(self):
        # Set 1 (n = 1) is the even sector, set 2 (n = 0) the odd one.
        params = PotentialParams(1.0, -3.0, 1.0)
        grid = quick_grid(params)
        r = math.sqrt(17.0)
        even = lowest_eigenvalues(params, grid, k=2, parity="even")
        odd = lowest_eigenvalues(params, grid, k=1, parity="odd")
        assert list(even.eigenvalues) == pytest.approx(
            [-(1.0 + r) / 2.0, (r - 1.0) / 2.0], abs=1e-10
        )
        assert list(odd.eigenvalues) == pytest.approx([-1.0], abs=1e-10)

    def test_lambda_one_spectrum(self):
        params = PotentialParams(1.0, -2.0, 1.0)
        grid = quick_grid(params)
        even = lowest_eigenvalues(params, grid, k=1, parity="even")
        odd = lowest_eigenvalues(params, grid, k=1, parity="odd")
        assert even.eigenvalues[0] == pytest.approx(-1.25, abs=1e-10)
        assert odd.eigenvalues[0] == pytest.approx(0.75, abs=1e-10)

    def test_single_level(self):
        params = PotentialParams(1.0, -1.0, 1.0)
        spectrum = lowest_eigenvalues(params, quick_grid(params), k=1, parity="even")
        assert spectrum.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)

    def test_sturm_node_counts(self):
        # Half-line eigenvector j has j sign changes in either sector.
        params = PotentialParams(1.0, -3.0, 1.0)
        for parity in ("even", "odd"):
            spectrum = lowest_eigenvalues(params, quick_grid(params), k=5, parity=parity)
            for j in range(5):
                assert node_count(spectrum.eigenvectors[:, j]) == j

    def test_nodes_are_counted_where_v_is_below_e_and_one_point_past(self):
        # Points 0-2 are allowed (V <= E) for both eigenvalues, 3-5 forbidden.
        potential = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
        values = np.array([1.0, 2.0])
        vectors = np.array([
            [1.0, 1.0],
            [2.0, 0.5],
            [3.0, 0.2],  # the last allowed point
            [1e-3, -0.1],  # vector 1's node lies just before this point
            [1e-6, -1e-3],
            [-1e-9, 1e-8],  # tail noise, above 1e-12 of the peak
        ])
        # Out to the wall, the vectors have 1 and 2 sign changes.
        assert sign_changes(vectors.T)[1].tolist() == [1, 2]
        eps, _ = _checked_spectrum(potential, 2, "even", values, vectors)
        assert eps == (1.0, 2.0)
        # A sign change inside the allowed region still counts.
        vectors[1, 0] = -2.0
        with pytest.raises(InvariantViolationError, match="eigenvector 0 has 2"):
            _checked_spectrum(potential, 2, "even", values, vectors)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_sector_hamiltonian_is_the_folded_sinc_dvr(self, parity):
        # Against the full-line sinc-DVR on the mirrored grid, built entry by
        # entry, restricted to vectors of the sector's parity.
        params = PotentialParams(1.0, -3.0, 1.0)
        grid = quick_grid(params, n=7)
        h, x = grid.step, grid.points()
        full_x = np.concatenate((-x[::-1], x))
        size = len(full_x)
        full = np.empty((size, size))
        for i in range(size):
            for j in range(size):
                m = abs(i - j)
                full[i, j] = (
                    math.pi**2 / 3.0 if m == 0 else 2.0 * (-1.0) ** m / m**2
                ) / h**2
        full += np.diag(params.v1 * np.sinh(full_x) ** 2 + params.v2 * np.cosh(full_x))
        sign = 1.0 if parity == "even" else -1.0
        # Column j: the unit vector at x_j plus sign times the one at -x_j,
        # normalised.
        fold = np.vstack((sign * np.eye(7)[::-1], np.eye(7))) / math.sqrt(2.0)
        expected = fold.T @ full @ fold
        potential = params.v1 * np.sinh(x) ** 2 + params.v2 * np.cosh(x)
        actual = _sector_hamiltonian(grid, parity, potential)
        assert np.allclose(actual, expected, rtol=1e-13, atol=0.0)

    @staticmethod
    def sliding_window_hamiltonian(grid, parity, potential):
        # The construction that builds t on every call: two sliding-window
        # views of t / h^2.
        n, h = grid.point_count_N, grid.step
        t = np.empty(2 * n)
        t[0] = math.pi**2 / 3.0
        t[1:] = 2.0 / np.arange(1, 2 * n, dtype=float) ** 2
        t[1::2] *= -1.0
        t /= h * h
        direct = sliding_window_view(np.concatenate((t[n - 1 : 0 : -1], t[:n])), n)[::-1]
        mirror = sliding_window_view(t[1:], n)
        hamiltonian = (np.add if parity == "even" else np.subtract)(direct, mirror)
        hamiltonian.flat[:: n + 1] += potential
        return hamiltonian

    def test_sector_hamiltonian_matches_sliding_window_byte_for_byte(self):
        # Grid sizes and walls alternate, and the second round is served from
        # the cached tables: a table shared across N or scaled in place shows.
        params = PotentialParams(1.0, -3.0, 1.0)
        grids = [GridSpec(big_l, n) for n, big_l in
                 ((7, 2.5), (60, 7.1), (61, 7.1), (90, 4.3), (60, 3.3), (7, 9.0))]
        _kinetic_table.cache_clear()
        for grid in grids + grids[::-1]:
            potential = params.v1 * np.sinh(grid.points()) ** 2 + params.v2 * np.cosh(
                grid.points()
            )
            for parity in ("even", "odd"):
                actual = _sector_hamiltonian(grid, parity, potential)
                expected = self.sliding_window_hamiltonian(grid, parity, potential)
                assert actual.tobytes() == expected.tobytes(), (grid, parity)

    def test_cached_kinetic_table_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            _kinetic_table(60)[0] = 1.0

    def test_k_too_large_rejected(self):
        params = PotentialParams(1.0, -3.0, 1.0)
        with pytest.raises(ValueError, match="N >= 51 grid points, got N = 50"):
            lowest_eigenvalues(params, quick_grid(params, n=50), k=51, parity="even")
        spectrum = lowest_eigenvalues(
            params, quick_grid(params, n=50), k=50, parity="even"
        )
        assert len(spectrum.eigenvalues) == 50

    def test_no_eigenvalues_rejected(self):
        params = PotentialParams(1.0, -3.0, 1.0)
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            lowest_eigenvalues(params, quick_grid(params, n=50), k=0, parity="even")

    def test_unordered_eigenvalues_are_an_internal_failure(self, monkeypatch, capsys):
        # eigh's values with the second made equal to the first: the check
        # that they strictly increase fails, and the CLI exits 3, not 2.
        checked = oracle._checked_spectrum

        def tied(potential, k, parity, values, vectors):
            values = values.copy()
            values[1] = values[0]
            return checked(potential, k, parity, values, vectors)

        monkeypatch.setattr(oracle, "_checked_spectrum", tied)
        message = "oracle eigenvalues are not strictly increasing"
        with pytest.raises(InvariantViolationError, match=f"^{message}$"):
            verify_qes(PotentialParams(1.0, -4.0, 1.0), enumerate_qes_sets(2.0))
        assert cli.main(["verify", "--v1", "1", "--alpha", "1", "--lambda", "2"]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "InvariantViolationError", "message": message}

    def test_false_node_is_a_sturm_violation(self, monkeypatch, capsys):
        # An even ground state with a false node, crafted, then injected past
        # the peak of the solved one: the check's message, byte for byte,
        # and the CLI exits 3 with it.
        message = ("Sturm oscillation violated: even eigenvector 0 has 2 sign "
                   "changes on the half-line")
        vectors = np.array([[1.0], [2.0], [-1.0], [0.5]])
        with pytest.raises(InvariantViolationError, match=f"^{message}$"):
            _checked_spectrum(np.zeros(4), 1, "even", np.array([1.0]), vectors)
        checked = oracle._checked_spectrum

        def false_node(potential, k, parity, values, vectors):
            vectors = vectors.copy()
            vectors[np.abs(vectors[:, 0]).argmax() + 1, 0] *= -1.0
            return checked(potential, k, parity, values, vectors)

        monkeypatch.setattr(oracle, "_checked_spectrum", false_node)
        with pytest.raises(InvariantViolationError, match=f"^{message}$"):
            verify_qes(PotentialParams(1.0, -4.0, 1.0), enumerate_qes_sets(2.0))
        assert cli.main(["verify", "--v1", "1", "--alpha", "1", "--lambda", "2"]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "InvariantViolationError", "message": message}

    def test_unresolved_grid_is_refined_before_it_is_returned(self):
        # lambda = 10, s = 1: 20 points leave the 12th even eigenvalue off by
        # 1.4.  The call grows the grid until k_max h <= 1, and only then
        # returns, with the grid that resolved.
        params = PotentialParams(1.0, -20.0, 1.0)
        big_l = default_grid(params).half_width_L
        spectrum = lowest_eigenvalues(params, GridSpec(big_l, 20), k=12, parity="even")
        grid = spectrum.grid
        assert grid.half_width_L == big_l and grid.point_count_N > 20
        x = grid.points()
        v_min = np.min(params.v1 * np.sinh(x) ** 2 + params.v2 * np.cosh(x))
        assert math.sqrt(spectrum.eigenvalues[-1] - v_min) * grid.step <= 1.0
        reference = lowest_eigenvalues(params, GridSpec(big_l, 90), k=12, parity="even")
        assert reference.grid.point_count_N == 90
        assert spectrum.eigenvalues == pytest.approx(reference.eigenvalues, abs=1e-10)

    def test_largest_blocks_stay_under_the_grid_cap(self, monkeypatch):
        # lambda = 501, s = 0.1: sets 3 and 4 have n = MAX_BLOCK_N, the largest
        # blocks, at the measured envelope's smallest s.  From the 1509-point
        # start the rule asks for 6413 points (which resolve: k_max h = 0.907),
        # and verify's fine start is ceil(1.5 N) = 9620, under the cap.  The
        # start is solved; the grid the rule asks for next is only recorded.
        params = PotentialParams.from_lambda(0.01, 501.0)
        assert max(q.n for q in enumerate_qes_sets(params.lam).sets) == MAX_BLOCK_N
        asked = []

        class Asked(Exception):
            pass

        def recorded(grid, parity, potential):
            asked.append(grid.point_count_N)
            if len(asked) > 1:
                raise Asked
            return _sector_hamiltonian(grid, parity, potential)

        monkeypatch.setattr(oracle, "_sector_hamiltonian", recorded)
        k = MAX_BLOCK_N + 1 + EXTRA_ORACLE_LEVELS
        with pytest.raises(Asked):
            lowest_eigenvalues(params, default_grid(params), k, "even")
        assert asked == [1509, 6413]
        assert math.ceil(1.5 * asked[-1]) == 9620 <= MAX_GRID_POINTS

    def test_boundary_insensitivity(self):
        # Moving the wall 20% farther out, at the same step, leaves the level.
        params = PotentialParams(1.0, -3.0, 1.0)
        base = default_grid(params).half_width_L
        for big_l, n in ((base, 90), (1.2 * base, 108)):
            spectrum = lowest_eigenvalues(
                params, quick_grid(params, big_l, n), k=1, parity="odd"
            )
            assert spectrum.eigenvalues[0] == pytest.approx(-1.0, abs=1e-10)


class TestVerify:
    def test_lambda_one_passes(self):
        params = PotentialParams(1.0, -2.0, 1.0)
        report = verify_qes(params, enumerate_qes_sets(1.0), tolerance=1e-4)
        assert report.overall_pass
        assert [r.energy_analytic for r in report.rows] == [-1.25, 0.75]
        assert [r.node_count_oracle for r in report.rows] == [0, 1]
        assert report.max_self_gap <= 1e-10
        assert all(r.abs_gap <= 1e-10 for r in report.rows)

    def test_lambda_three_halves_passes(self):
        params = PotentialParams(1.0, -3.0, 1.0)
        report = verify_qes(params, enumerate_qes_sets(1.5), tolerance=1e-4)
        assert report.overall_pass
        assert [r.node_count_oracle for r in report.rows] == [0, 1, 2]
        assert len(report.unmatched_oracle) > 0  # non-QES levels above the block

    def test_unmatched_levels_lie_above_qes_block(self):
        params = PotentialParams(1.0, -3.0, 1.0)
        report = verify_qes(params, enumerate_qes_sets(1.5), tolerance=1e-4)
        top_qes = max(r.energy_analytic for r in report.rows)
        assert all(e > top_qes for e in report.unmatched_oracle)

    def test_wrong_energy_is_hard_mismatch(self):
        params = PotentialParams(1.0, -2.0, 1.0)
        classification = enumerate_qes_sets(1.0)
        levels = solve_classification(params, classification)
        # E = -alpha^2 mu = -1.7.
        fake = [replace(levels[0], mu=1.7), levels[1]]
        report = verify_qes(params, classification, tolerance=1e-4, analytic_levels=fake)
        assert not report.overall_pass
        # Set 3's even sector has its lowest eigenvalue at -1.25.
        assert report.rows[0].abs_gap == pytest.approx(0.45, abs=1e-4)
        assert report.rows[1].abs_gap <= 1e-4

    def test_collision_is_hard_mismatch(self):
        params = PotentialParams(1.0, -2.0, 1.0)
        classification = enumerate_qes_sets(1.0)
        levels = solve_classification(params, classification)
        # Set 4's level moved onto set 3's energy: its odd sector has no
        # eigenvalue there.
        fake = [levels[0], replace(levels[1], mu=levels[0].mu)]
        report = verify_qes(params, classification, tolerance=1e-4, analytic_levels=fake)
        assert not report.overall_pass
        assert report.rows[0].abs_gap <= 1e-4
        # The odd sector's lowest eigenvalue is 0.75, two above -1.25.
        assert report.rows[1].parity == "odd"
        assert report.rows[1].abs_gap == pytest.approx(2.0, abs=1e-4)

    @staticmethod
    def levels_at(lam, v1=1.0):
        params = PotentialParams.from_lambda(v1, lam, 1.0)
        return solve_classification(params, enumerate_qes_sets(lam))

    @pytest.mark.parametrize("levels, message", [
        # Levels of another lambda, a foreign level among the right ones, a
        # level left out (which would leave a row uncompared), a level given
        # twice, and the right sets solved at another V1.
        (lambda self: self.levels_at(2.5),
         "analytic_levels holds level 0 of set 1 with n = 2 twice or outside the classification"),
        (lambda self: self.levels_at(1.5) + self.levels_at(2.5)[-1:],
         "analytic_levels holds level 2 of set 1 with n = 2 twice or outside the classification"),
        (lambda self: self.levels_at(1.5)[:1],
         "analytic_levels lacks level 1 of set 1 with n = 1"),
        (lambda self: self.levels_at(1.5) * 2,
         "analytic_levels holds level 0 of set 1 with n = 1 twice or outside the classification"),
        (lambda self: self.levels_at(1.5, v1=4.0),
         "analytic_levels' level 0 of set 1 with n = 1 was solved at other parameters"),
    ], ids=["other-lambda", "foreign-level", "missing-level", "twice", "other-params"])
    def test_levels_outside_the_classification_rejected(self, levels, message):
        params = PotentialParams.from_lambda(1.0, 1.5, 1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_qes(params, enumerate_qes_sets(1.5), analytic_levels=levels(self))

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

    @pytest.mark.parametrize("lam", [1.0, 1.5, 10.0])
    def test_node_counts_have_one_owner(self, lam):
        # The analytic count, the oracle's and the set's mirroring of row j
        # onto the line agree for every level, and are 2 j + 1 for odd sets.
        params = PotentialParams.from_lambda(1.0, lam, 1.0)
        classification = enumerate_qes_sets(lam)
        levels = solve_classification(params, classification)
        report = verify_qes(params, classification, analytic_levels=levels)
        assert len(report.rows) == len(levels) == int(2 * lam)
        for level, row in zip(levels, report.rows):
            counts = (level.node_count, row.node_count_oracle,
                      level.qes_set.node_count(level.row))
            assert counts == (2 * level.row + (level.parity == "odd"),) * 3

    def test_one_dense_decomposition_per_grid(self, monkeypatch):
        # The start grid resolves both sets, so each set solves it once and
        # its 1.5 times finer grid once: 2 eigh per set and no eigvalsh.
        params = PotentialParams(1.0, -3.0, 1.0)
        classification = enumerate_qes_sets(1.5)
        levels = solve_classification(params, classification)
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(matrix, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, matrix.shape[0]))
                return _original(matrix, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        report = verify_qes(params, classification, analytic_levels=levels)
        assert report.overall_pass
        assert len(classification.sets) == 2
        assert calls == [("eigh", 23), ("eigh", 35)] * 2

    def test_resized_start_grid_passes(self, monkeypatch):
        # The default 69-point start is too coarse for lambda = 20.5 at s = 1:
        # the rule grows it, the checked solve on the grid that resolves is
        # the coarse one, and the fine grid has 1.5 times its points.
        params = PotentialParams(1.0, -41.0, 1.0)
        classification = enumerate_qes_sets(20.5)
        levels = solve_classification(params, classification)
        sizes = []
        original = np.linalg.eigh

        def recorded(matrix, *args, **kwargs):
            sizes.append(matrix.shape[0])
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        report = verify_qes(params, classification, analytic_levels=levels)
        assert report.overall_pass
        assert report.max_self_gap <= 1e-10
        assert report.grid.point_count_N == 209
        # Per set: the start, one resized grid that resolves, its finer grid.
        assert len(sizes) == 6
        for start, coarse, fine in (sizes[:3], sizes[3:]):
            assert start == 69 < coarse
            assert fine == math.ceil(1.5 * coarse)

    @pytest.mark.parametrize("lam, s", [(2.0, 1.0), (10.0, 0.3)])
    def test_report_holds_each_sets_fine_spectrum(self, lam, s):
        # One spectrum per set, in classification.sets order: its eigenvalue
        # j, scaled, is the energy_oracle of the set's level j, and the
        # report's grid is the largest of their grids.  The spectra hold
        # arrays, so they take no part in the report's equality.
        params = PotentialParams.from_lambda(s * s, lam, 1.0)
        classification = enumerate_qes_sets(lam)
        report = verify_qes(params, classification)
        assert len(report.spectra) == len(classification.sets)
        for qes_set, spectrum in zip(classification.sets, report.spectra):
            k = qes_set.n + 1 + EXTRA_ORACLE_LEVELS
            assert spectrum.eigenvectors.shape == (spectrum.grid.point_count_N, k)
            rows = sorted((row for row in report.rows if row.set_index == qes_set.set_index),
                          key=lambda row: row.energy_analytic)
            energies = params.scaled("E", spectrum.eigenvalues, 2)
            assert [row.energy_oracle for row in rows] == energies[: qes_set.n + 1]
        assert report.grid == max((spectrum.grid for spectrum in report.spectra),
                                  key=lambda grid: grid.point_count_N)
        assert report == verify_qes(params, classification)
        assert "spectra" not in repr(report)

    def test_wall_beyond_float64_is_inadmissible(self):
        # At V1 = 1e307 the tail wall is at y = cosh(alpha L) = 10, where
        # V1 sinh^2 already overflows: nothing is solved.
        params = PotentialParams(1e307, -2.0 * math.sqrt(1e307), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InadmissibleParametersError, match="wall xi = alpha L = 2.99"):
                verify_qes(params, enumerate_qes_sets(1.0))

    def test_tiny_s_passes(self):
        # s = 1e-20, lambda = 1: the wall is far out (alpha L = 51.3), and the
        # start step alpha h <= START_STEP keeps the sinc-DVR on it accurate
        # to round-off; a fixed 60-point start missed by 6.9e-6.
        params = PotentialParams(1e-40, -2e-20, 1.0)
        report = verify_qes(params, enumerate_qes_sets(1.0))
        assert report.overall_pass
        assert all(r.abs_gap <= 1e-10 for r in report.rows)

    def test_empty_classification_rejected(self):
        params = PotentialParams(1.0, -1.4, 1.0)
        with pytest.raises(ValueError):
            verify_qes(params, enumerate_qes_sets(0.7))

    def test_self_gap_and_gap_below_1e_10_on_anchors(self):
        # The start step alpha h <= START_STEP is what holds the self-gap down
        # at s = 0.1: a start of 3 points per eigenvalue resolves by the
        # sizing rule, yet leaves a self-gap of 7e-8 at lambda = 1.
        for s, lam in itertools.product((0.1, 1.0), (1.0, 1.5, 2.0)):
            params = PotentialParams(s * s, -2.0 * s * lam, 1.0)
            report = verify_qes(params, enumerate_qes_sets(lam))
            assert report.overall_pass
            assert report.max_self_gap == max(r.self_gap for r in report.rows)
            assert report.max_self_gap <= 1e-10
            assert all(r.abs_gap <= 1e-10 for r in report.rows)
            # The start already resolves the anchors, so the finer grid has
            # ceil(1.5 N) points: 53 at s = 0.1, 35 at s = 1.
            start = default_grid(params).point_count_N
            assert report.grid.point_count_N == math.ceil(1.5 * start)

    @seed(20260)
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        twice_lam=st.integers(min_value=1, max_value=41),
        log_s=st.floats(min_value=math.log(0.1), max_value=math.log(10.0)),
    )
    # Points of the 25-point log grid s = 10^(i/12 - 1) where counting the
    # eigenvectors' sign changes out to the wall read tail noise as nodes.
    @example(twice_lam=14, log_s=math.log(10.0) * (0 / 12 - 1))
    @example(twice_lam=14, log_s=math.log(10.0) * (1 / 12 - 1))
    @example(twice_lam=15, log_s=math.log(10.0) * (0 / 12 - 1))
    @example(twice_lam=15, log_s=math.log(10.0) * (1 / 12 - 1))
    @example(twice_lam=15, log_s=math.log(10.0) * (2 / 12 - 1))
    @example(twice_lam=16, log_s=math.log(10.0) * (3 / 12 - 1))
    def test_envelope_passes_at_alpha_one(self, twice_lam, log_s):
        # Half-integer lambda <= 20.5, log-uniform s in [0.1, 10]; every other
        # alpha scales exactly (test_report_scales_exactly_with_alpha).
        lam, s = twice_lam / 2.0, math.exp(log_s)
        report = verify_qes(PotentialParams(s * s, -2.0 * s * lam, 1.0),
                            enumerate_qes_sets(lam))
        assert report.overall_pass
        assert report.max_self_gap <= 1e-9
        assert all(r.abs_gap <= 1e-6 for r in report.rows)

    @pytest.mark.parametrize("lam, s", [(1.5, 1.0), (10.0, 0.3), (20.5, 3.0)])
    def test_report_scales_exactly_with_alpha(self, lam, s):
        # The oracle solves in xi = alpha x and gates on |mu + eps|, both set
        # by (s, lambda) alone: at alpha = 2^k the verdict and N are those of
        # alpha = 1, and every energy and gap is 2^(2k) times its alpha = 1
        # value, bit for bit, wherever that is a normal float.
        reports = {}
        for k in (-500, -20, 0, 20, 500):
            alpha = math.ldexp(1.0, k)
            params = PotentialParams.from_lambda((s * alpha) ** 2, lam, alpha)
            reports[k] = (params.s, verify_qes(params, enumerate_qes_sets(lam)))
        unit_s, unit = reports[0]
        assert unit.overall_pass
        compared = 0
        for k, (scaled_s, report) in reports.items():
            assert scaled_s == unit_s
            assert report.overall_pass == unit.overall_pass
            assert report.grid.point_count_N == unit.grid.point_count_N
            pairs = [(report.max_self_gap, unit.max_self_gap)]
            pairs += zip(report.unmatched_oracle, unit.unmatched_oracle)
            for row, unit_row in zip(report.rows, unit.rows):
                pairs += [(getattr(row, name), getattr(unit_row, name)) for name in
                          ("energy_analytic", "energy_oracle", "abs_gap", "self_gap")]
            for value, unit_value in pairs:
                if abs(value) >= sys.float_info.min:
                    assert math.ldexp(value, -2 * k) == unit_value, (k, value, unit_value)
                    compared += 1
        assert compared > 4 * 4 * len(unit.rows)

    @pytest.mark.parametrize("lam, s", [(1.5, 1.0), (2.0, 0.3), (5.5, 3.0), (10.0, 0.3),
                                        (20.5, 3.0)])
    def test_report_depends_on_s_and_lambda_alone(self, lam, s):
        # At any alpha, not only 2^k, V1 / alpha^2 and V2 / alpha^2 round
        # differently from s^2 and -2 s lambda; the oracle reads the working
        # point's (s, lambda) floats, so every eps is the one alpha = 1 gives
        # at the same s float.
        classification = enumerate_qes_sets(lam)
        for alpha in (1e-150, 1e-3, 0.7, 3.0, 1e3, 1e150):
            params = PotentialParams.from_lambda((s * alpha) ** 2, lam, alpha)
            unit_params = PotentialParams.from_lambda(params.s**2, lam, 1.0)
            report = verify_qes(params, classification)
            unit = verify_qes(unit_params, classification)
            assert params.s == unit_params.s
            assert report.overall_pass == unit.overall_pass
            assert report.grid.point_count_N == unit.grid.point_count_N
            assert ([spectrum.eigenvalues for spectrum in report.spectra]
                    == [spectrum.eigenvalues for spectrum in unit.spectra]), alpha
