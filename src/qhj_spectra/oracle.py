"""Independent finite-difference eigenvalue oracle for -psi'' + V psi = E psi.

V is even in x, so each QES set, whose residue b1 fixes its parity, is checked
in its own sector: second-order central differences on the cell-centred
half-line grid x_i = (i - 1/2) h, with a mirror ghost point psi_0 = +-psi_1
at x = 0 and a Dirichlet wall at x = L.  The wall sits where
s y - lambda ln y >= 40 (y = cosh(alpha L)), past the y^lambda exp(-s y)
tail of every QES level.  A set's levels, in energy order, are matched by
index to its sector's lowest eigenvalues.  Solving on grids h and h/2 gives
both a Richardson-extrapolated eigenvalue and a direct measurement of the
convergence order.  The order is reported, not gated: overall_pass reads only
the gaps and the node counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, InvariantViolationError
from .potential import PotentialParams, Variant, evaluate_potential
from .qhj import QesClassification, infinity_analysis
from .solver import QesLevel, solve_classification

MAX_POINTS = 200_000
# Default bound on |E_analytic - E_oracle| for a level to pass.
DEFAULT_TOLERANCE = 1e-6
# Sector eigenvalues solved beyond a set's levels, so that its highest level
# is matched against eigenvalues on both sides of it.
EXTRA_ORACLE_LEVELS = 2


@dataclass(frozen=True)
class GridSpec:
    """Cell-centred half-line grid x_i = (i - 1/2) h, i = 1..N, h = L/N.

    One parity sector lives on (0, L): the mirror ghost point at x = -h/2
    carries the parity, and the wall is at x = L.
    """

    half_width_L: float
    point_count_N: int

    def __post_init__(self):
        if self.half_width_L <= 0.0:
            raise ValueError("half_width_L must be positive")
        if not math.isfinite(self.half_width_L):
            raise ValueError("half_width_L must be finite")
        if self.point_count_N < 200:
            raise ValueError("point_count_N must be at least 200")

    @property
    def step(self) -> float:
        return self.half_width_L / self.point_count_N

    def points(self) -> np.ndarray:
        return self.step * (np.arange(1, self.point_count_N + 1) - 0.5)

    def refined(self) -> "GridSpec":
        """Same L with the step exactly halved."""
        return GridSpec(self.half_width_L, 2 * self.point_count_N)


@dataclass(frozen=True)
class NumericSpectrum:
    """Lowest eigenvalues and grid-sampled eigenvectors of one parity sector."""

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


@dataclass(frozen=True)
class VerificationReport:
    """Full adjudication: gaps, node counts, parities, convergence order."""

    rows: tuple[LevelComparison, ...]
    convergence_order_estimate: float
    overall_pass: bool
    unmatched_oracle: tuple[float, ...]


def default_grid(params: PotentialParams) -> GridSpec:
    """Tail-safe half-line grid: the wall y = cosh(alpha L) is the smallest
    y >= 10 with s y - lambda ln y >= 40 (QES levels decay like
    y^lambda exp(-s y)), h <= 0.002/alpha, and enough points for the sector
    eigenvalues of the largest QES set."""
    # A decaying y^lambda (lambda < 0) only moves the wall inwards.
    s, lam = params.s, max(infinity_analysis(params).lam, 0.0)
    y, previous = 10.0, 0.0
    if s * y - lam * math.log(y) < 40.0:
        # Fixed-point iteration onto the largest root: it rises monotonically
        # from y = 10, with contraction lam / (s y) < 1/ln(10) at the root.
        while y - previous > 1e-12 * y:
            previous, y = y, (40.0 + lam * math.log(y)) / s
    big_l = math.acosh(y) / params.alpha
    # L >= acosh(10)/alpha, so N >= 1497 already meets GridSpec's floor of 200.
    n = min(int(math.ceil(big_l / (0.002 / params.alpha))), MAX_POINTS)
    # The largest QES set has floor(lambda + 1/2) levels; lowest_eigenvalues
    # needs N >= 10 k for its k sector eigenvalues.
    n = max(n, 10 * (math.floor(lam + 0.5) + EXTRA_ORACLE_LEVELS))
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
    params: PotentialParams, grid: GridSpec, k: int, parity: str
) -> NumericSpectrum:
    """k smallest eigenpairs of one parity sector on (0, L); accuracy O(h^2)."""
    # Imported here so that only verification pays for loading scipy.linalg.
    from scipy.linalg import eigh_tridiagonal

    if k < 1:
        raise ValueError("k must be at least 1")
    if k > grid.point_count_N // 10:
        raise ValueError(
            f"{k} eigenvalues per sector need N >= {10 * k} grid points, "
            f"got N = {grid.point_count_N}"
        )
    h = grid.step
    diagonal = 2.0 / h**2 + evaluate_potential(
        params, Variant.REAL_SINH_GORDON, grid.points()
    ).real
    # Mirror ghost point psi_0 = +psi_1 (even) or -psi_1 (odd).
    diagonal[0] += {"even": -1.0, "odd": 1.0}[parity] / h**2
    off_diagonal = np.full(grid.point_count_N - 1, -1.0 / h**2)
    # Bisect to the kinetic scale 4/h^2, not to the default eps * |T|_1, which
    # grows with the wall height V(L) and blurs the low eigenvalues.
    values, vectors = eigh_tridiagonal(
        diagonal, off_diagonal, select="i", select_range=(0, k - 1),
        tol=4.0 * np.finfo(float).eps / h**2,
    )
    if np.any(np.diff(values) <= 0.0):
        raise InvariantViolationError("oracle eigenvalues are not strictly increasing")
    for j in range(k):
        nodes = node_count(vectors[:, j])
        if nodes != j:
            raise InvariantViolationError(
                f"Sturm oscillation violated: {parity} eigenvector {j} has "
                f"{nodes} sign changes on the half-line"
            )
    return NumericSpectrum(
        eigenvalues=tuple(float(v) for v in values),
        eigenvectors=vectors,
        grid=grid,
    )


def verify_qes(
    params: PotentialParams,
    classification: QesClassification,
    tolerance: float = DEFAULT_TOLERANCE,
    grid: GridSpec | None = None,
    analytic_levels: list[QesLevel] | None = None,
) -> VerificationReport:
    """Adjudicate every analytic level against the two-grid sector oracle.

    Level j of a set (energy order) is compared with eigenvalue j of the
    sector of the set's parity.  analytic_levels overrides the solved levels
    (used to demonstrate that a published value fails the match).  A level
    farther than tolerance from its sector eigenvalue fails overall_pass.
    Raises ValueError when grid is too coarse for a set.
    """
    if not classification.sets:
        raise ValueError("classification is empty; nothing to verify")
    if analytic_levels is None:
        analytic_levels = solve_classification(params, classification)
    if grid is None:
        grid = default_grid(params)

    rows: dict[int, LevelComparison] = {}
    unmatched: list[float] = []
    for qes_set in classification.sets:
        members = sorted(
            (i for i, level in enumerate(analytic_levels) if level.qes_set == qes_set),
            key=lambda i: analytic_levels[i].energy,
        )
        k = qes_set.n + 1 + EXTRA_ORACLE_LEVELS
        coarse = lowest_eigenvalues(params, grid, k, qes_set.parity)
        fine = lowest_eigenvalues(params, grid.refined(), k, qes_set.parity)
        coarse_e = np.asarray(coarse.eigenvalues)
        fine_e = np.asarray(fine.eigenvalues)
        richardson = (4.0 * fine_e - coarse_e) / 3.0
        unmatched.extend(float(e) for e in richardson[len(members):])
        odd = 1 if qes_set.parity == "odd" else 0

        for j, i in enumerate(members):
            level = analytic_levels[i]
            gap_h = abs(coarse_e[j] - level.energy)
            gap_half = abs(fine_e[j] - level.energy)
            order = (
                math.log2(gap_h / gap_half) if gap_half > 0.0 else float("nan")
            )
            rows[i] = LevelComparison(
                set_index=qes_set.set_index,
                n=qes_set.n,
                energy_analytic=level.energy,
                energy_oracle=float(richardson[j]),
                abs_gap=float(abs(richardson[j] - level.energy)),
                gap_h=float(gap_h),
                gap_half_h=float(gap_half),
                convergence_order=float(order),
                node_count_analytic=level.node_count,
                # lowest_eigenvalues has checked that fine eigenvector j has
                # j sign changes on the half-line; mirrored, 2 j + odd nodes.
                node_count_oracle=2 * j + odd,
                parity=level.parity,
            )

    ordered = tuple(rows[i] for i in range(len(analytic_levels)))
    orders = [
        r.convergence_order for r in ordered if math.isfinite(r.convergence_order)
    ]
    order_estimate = float(np.median(orders)) if orders else float("nan")
    overall = all(
        r.abs_gap <= tolerance
        and r.node_count_analytic == r.node_count_oracle
        for r in ordered
    )
    return VerificationReport(
        rows=ordered,
        convergence_order_estimate=order_estimate,
        overall_pass=overall,
        unmatched_oracle=tuple(sorted(unmatched)),
    )
