"""Independent finite-difference eigenvalue oracle for -psi'' + V psi = E psi.

Second-order central differences on a symmetric grid with Dirichlet walls;
the super-exponential exp(-s cosh(alpha x)) decay makes wall error negligible
once s cosh(alpha L) >= 40.  Solving on grids h and h/2 gives both a
Richardson-extrapolated eigenvalue and a direct measurement of the
convergence order, which is itself a checked invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateVectorError,
    HardMismatchError,
    InvariantViolationError,
)
from .potential import PotentialParams, Variant, evaluate_potential
from .qhj import QesClassification
from .solver import QesLevel, solve_classification

MAX_POINTS = 200_000
# Oracle eigenvalues solved beyond the analytic levels, so that the highest
# analytic level is matched against eigenvalues on both sides of it.
EXTRA_ORACLE_LEVELS = 4


@dataclass(frozen=True)
class GridSpec:
    """Symmetric interior grid x_i = -L + i h, i = 1..N, h = 2L/(N+1)."""

    half_width_L: float
    point_count_N: int

    def __post_init__(self):
        if self.half_width_L <= 0.0:
            raise ValueError("half_width_L must be positive")
        if self.point_count_N < 200:
            raise ValueError("point_count_N must be at least 200")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width_L / (self.point_count_N + 1)

    def points(self) -> np.ndarray:
        return -self.half_width_L + self.step * np.arange(
            1, self.point_count_N + 1
        )

    def refined(self) -> "GridSpec":
        """Same L with the step exactly halved."""
        return GridSpec(self.half_width_L, 2 * self.point_count_N + 1)


@dataclass(frozen=True)
class NumericSpectrum:
    """Lowest eigenvalues and grid-sampled eigenvectors."""

    eigenvalues: tuple[float, ...]
    eigenvectors: np.ndarray  # column j belongs to eigenvalue j
    grid: GridSpec


@dataclass(frozen=True)
class LevelComparison:
    """Analytic-vs-oracle adjudication for one QES level."""

    set_index: int
    n: int
    energy_analytic: float
    energy_oracle: float  # Richardson-extrapolated
    abs_gap: float
    gap_h: float
    gap_half_h: float
    convergence_order: float
    node_count_analytic: int
    node_count_oracle: int
    parity: str
    parity_match: bool


@dataclass(frozen=True)
class VerificationReport:
    """Full adjudication: gaps, node counts, parities, convergence order."""

    rows: tuple[LevelComparison, ...]
    convergence_order_estimate: float
    overall_pass: bool
    unmatched_oracle: tuple[float, ...] = field(default_factory=tuple)
    tolerance: float = 1e-6


def default_grid(params: PotentialParams, levels_needed: int = 1) -> GridSpec:
    """Tail-safe grid: s cosh(alpha L) >= 40, h <= min(0.002/alpha, L/1000)."""
    s = params.s
    big_l = math.acosh(max(40.0 / s, 10.0)) / params.alpha
    h_target = min(0.002 / params.alpha, big_l / 1000.0)
    n = int(math.ceil(2.0 * big_l / h_target))
    n = min(n, MAX_POINTS)
    n = max(n, 200, 10 * max(1, levels_needed))
    return GridSpec(half_width_L=big_l, point_count_N=n)


def node_count(vector: np.ndarray) -> int:
    """Strict sign changes, ignoring entries below 1e-12 of the peak."""
    vector = np.asarray(vector, dtype=float)
    peak = float(np.max(np.abs(vector))) if vector.size else 0.0
    if peak == 0.0:
        raise DegenerateVectorError("all-zero vector has no node count")
    kept = vector[np.abs(vector) >= 1e-12 * peak]
    if kept.size == 0:
        raise DegenerateVectorError("vector is zero up to noise")
    signs = np.sign(kept)
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def lowest_eigenvalues(
    params: PotentialParams, grid: GridSpec, k: int
) -> NumericSpectrum:
    """k smallest eigenpairs of the discretized operator; accuracy O(h^2)."""
    # Imported here so that only verification pays for loading scipy.linalg.
    from scipy.linalg import eigh_tridiagonal

    if k < 1:
        raise ValueError("k must be at least 1")
    if k > grid.point_count_N // 10:
        raise ValueError(
            f"k = {k} too large for N = {grid.point_count_N} grid points"
        )
    x = grid.points()
    h = grid.step
    diagonal = 2.0 / h**2 + evaluate_potential(
        params, Variant.REAL_SINH_GORDON, x
    ).real
    off_diagonal = np.full(grid.point_count_N - 1, -1.0 / h**2)
    values, vectors = eigh_tridiagonal(
        diagonal, off_diagonal, select="i", select_range=(0, k - 1)
    )
    if np.any(np.diff(values) <= 0.0):
        raise InvariantViolationError("oracle eigenvalues are not strictly increasing")
    for j in range(k):
        if node_count(vectors[:, j]) != j:
            raise InvariantViolationError(
                f"Sturm oscillation violated: eigenvector {j} has "
                f"{node_count(vectors[:, j])} sign changes"
            )
    return NumericSpectrum(
        eigenvalues=tuple(float(v) for v in values),
        eigenvectors=vectors,
        grid=grid,
    )


def _vector_parity(vector: np.ndarray) -> tuple[str, float]:
    """Best-fitting parity and its sup-norm mismatch on the symmetric grid."""
    reversed_v = vector[::-1]
    err_even = float(np.max(np.abs(vector - reversed_v)))
    err_odd = float(np.max(np.abs(vector + reversed_v)))
    if err_even <= err_odd:
        return "even", err_even
    return "odd", err_odd


def verify_qes(
    params: PotentialParams,
    classification: QesClassification,
    tolerance: float = 1e-6,
    grid: GridSpec | None = None,
    analytic_levels: list[QesLevel] | None = None,
) -> VerificationReport:
    """Adjudicate every analytic level against the two-grid oracle.

    analytic_levels overrides the solved levels (used to demonstrate that a
    published value fails the match).  Raises HardMismatchError when a level
    is farther than 10*tolerance from every oracle eigenvalue or when two
    levels collide on the same oracle eigenvalue.
    """
    if not classification.sets:
        raise ValueError("classification is empty; nothing to verify")
    if analytic_levels is None:
        analytic_levels = solve_classification(params, classification)
    if grid is None:
        grid = default_grid(params, levels_needed=len(analytic_levels))

    k = min(len(analytic_levels) + EXTRA_ORACLE_LEVELS, grid.point_count_N // 10)
    coarse = lowest_eigenvalues(params, grid, k)
    fine = lowest_eigenvalues(params, grid.refined(), k)
    coarse_e = np.asarray(coarse.eigenvalues)
    fine_e = np.asarray(fine.eigenvalues)
    richardson = (4.0 * fine_e - coarse_e) / 3.0

    rows = []
    taken: dict[int, float] = {}
    for level in analytic_levels:
        j = int(np.argmin(np.abs(richardson - level.energy)))
        gap = float(abs(richardson[j] - level.energy))
        if gap > 10.0 * tolerance:
            raise HardMismatchError(
                f"analytic level E = {level.energy!r} (set "
                f"{level.qes_set.set_index}) is {gap!r} away from every "
                f"oracle eigenvalue: adjudicated mismatch"
            )
        if j in taken:
            raise HardMismatchError(
                f"levels E = {taken[j]!r} and E = {level.energy!r} both match "
                f"oracle eigenvalue {float(richardson[j])!r}: collision"
            )
        taken[j] = level.energy

        gap_h = abs(coarse_e[j] - level.energy)
        gap_half = abs(fine_e[j] - level.energy)
        order = (
            math.log2(gap_h / gap_half) if gap_half > 0.0 else float("nan")
        )
        vec = fine.eigenvectors[:, j]
        oracle_nodes = node_count(vec)
        oracle_parity, parity_err = _vector_parity(vec)
        parity_ok = (
            oracle_parity == level.parity
            and parity_err < 1e-6 * float(np.max(np.abs(vec)))
        )
        rows.append(
            LevelComparison(
                set_index=level.qes_set.set_index,
                n=level.qes_set.n,
                energy_analytic=level.energy,
                energy_oracle=float(richardson[j]),
                abs_gap=float(gap),
                gap_h=float(gap_h),
                gap_half_h=float(gap_half),
                convergence_order=float(order),
                node_count_analytic=level.node_count,
                node_count_oracle=oracle_nodes,
                parity=level.parity,
                parity_match=parity_ok,
            )
        )

    unmatched = tuple(
        float(richardson[j]) for j in range(k) if j not in taken
    )
    orders = [r.convergence_order for r in rows if math.isfinite(r.convergence_order)]
    order_estimate = float(np.median(orders)) if orders else float("nan")
    overall = all(
        r.abs_gap <= tolerance
        and r.node_count_analytic == r.node_count_oracle
        and r.parity_match
        for r in rows
    )
    return VerificationReport(
        rows=tuple(rows),
        convergence_order_estimate=order_estimate,
        overall_pass=overall,
        unmatched_oracle=unmatched,
        tolerance=tolerance,
    )
