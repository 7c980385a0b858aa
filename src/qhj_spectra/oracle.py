"""Independent sinc-DVR eigenvalue oracle for -psi'' + V psi = E psi.

It solves -phi'' + v phi = eps phi in xi = alpha x, v = V / alpha^2 built from
the working point's (s, lambda) alone: its grids are grids of xi; E = alpha^2 eps.
v is even, so each QES set, whose residue b1 fixes its parity, is checked
in its own sector.  The cell-centred half-line points xi_i = (i - 1/2) h and
their mirror images form one uniform grid of step h.  On it the sinc
discrete-variable representation of -d^2/dxi^2 (Colbert & Miller, J. Chem.
Phys. 96, 1982 (1992)), folded onto the sector, gives a dense symmetric
Hamiltonian, solved with numpy's eigh; its error falls exponentially with N.
The wall xi = L sits where s y - lambda ln y >= 40 (y = cosh L), past
the y^lambda exp(-s y) tail of every QES level.  A set's levels, in energy
order, are matched by index to its sector's lowest eigenvalues.
lowest_eigenvalues sizes its grid from the sector's own eigenvalues, never
from the analytic side, and returns only a spectrum its grid resolves and
solver.sturm_signs passes: half-line eigenvector j changes sign j times.  Each
set is solved by it twice: from default_grid, whose step alpha h is at most
START_STEP = 0.2 (the coarse solve), then from 1.5 times as many points as
the coarse grid resolved on (the fine solve).  The fine eigenvalue is
reported, and its distance to the coarse one is the level's self-gap; the
report keeps each set's fine spectrum, vectors included.  The self-gap is
reported, not gated: overall_pass reads only the gaps
|E_analytic - E_oracle| / alpha^2 = |mu + eps| and the node counts, so its
verdict is the same at every alpha.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InadmissibleParametersError, InvariantViolationError
from .potential import PotentialParams
from .qhj import QesClassification
from .solver import QesLevel, sign_changes, solve_classification, sturm_signs

# Default bound on |E_analytic - E_oracle| / alpha^2 for a level to pass.
DEFAULT_TOLERANCE = 1e-6
# Sector eigenvalues solved beyond a set's levels, so that its highest level
# is matched against eigenvalues on both sides of it.
EXTRA_ORACLE_LEVELS = 2
# The sizing rule starts from a step h of at most this: the coarsest step,
# with a margin, at which the envelope scan's self-gaps stay at round-off
# (a step of 0.25 leaves self-gaps up to 5.2e-10 at lambda = 3, s <= 0.26).
START_STEP = 0.2
# The most points a grid may have: its dense Hamiltonian takes 8 N^2 bytes,
# 1.125 GiB here, and eigh's peak is about five such arrays.  The largest
# blocks (n = 500, lambda <= 501) need at most 9620 fine points for s >= 0.1.
MAX_GRID_POINTS = 3 * 2**12


@dataclass(frozen=True)
class GridSpec:
    """Cell-centred half-line grid xi_i = (i - 1/2) h, i = 1..N, h = L/N, in xi = alpha x.

    One parity sector lives on (0, L): the mirror images of the points carry
    the parity, and the wall is at xi = L, that is at x = L / alpha.
    """

    half_width_L: float
    point_count_N: int

    def __post_init__(self):
        if self.half_width_L <= 0.0:
            raise ValueError("half_width_L must be positive")
        if not math.isfinite(self.half_width_L):
            raise ValueError("half_width_L must be finite")
        if not isinstance(self.point_count_N, int) or isinstance(self.point_count_N, bool):
            raise ValueError(f"point_count_N must be an int, got {self.point_count_N!r}")
        if self.point_count_N < 1:
            raise ValueError("point_count_N must be at least 1")

    @property
    def step(self) -> float:
        return self.half_width_L / self.point_count_N

    def points(self) -> np.ndarray:
        return self.step * (np.arange(1, self.point_count_N + 1) - 0.5)


@dataclass(frozen=True)
class NumericSpectrum:
    """Lowest eigenvalues and grid-sampled eigenvectors of one parity sector."""

    eigenvalues: tuple[float, ...]  # eps, of -phi'' + v phi on the grid; E = alpha^2 eps
    eigenvectors: np.ndarray  # column j belongs to eigenvalue j
    grid: GridSpec


@dataclass(frozen=True)
class LevelComparison:
    """Analytic-vs-oracle adjudication for one QES level."""

    set_index: int
    n: int
    energy_analytic: float
    energy_oracle: float  # on the fine grid, N2 >= ceil(1.5 N)
    abs_gap: float  # |E_analytic - E_oracle|
    self_gap: float  # |E(N2) - E(N)|
    # log(gap_N / gap_N2) / log(N2 / N); NaN when either gap is 0.
    convergence_order: float
    node_count_analytic: int
    node_count_oracle: int
    parity: str


@dataclass(frozen=True)
class VerificationReport:
    """Full adjudication: gaps, self-gaps, node counts, the grid and spectra solved."""

    rows: tuple[LevelComparison, ...]
    max_self_gap: float
    overall_pass: bool
    unmatched_oracle: tuple[float, ...]
    grid: GridSpec  # the finest grid solved; every set used its wall
    # Each set's fine spectrum, in classification.sets order; arrays, so not compared.
    spectra: tuple[NumericSpectrum, ...] = field(compare=False, repr=False)


def default_grid(params: PotentialParams) -> GridSpec:
    """Tail-safe half-line grid: the wall y = cosh(L) is the smallest
    y >= 10 with s y - lambda ln y >= 40 (QES levels decay like
    y^lambda exp(-s y)), and N = max(3 k, ceil(L / START_STEP))
    starts the sizing rule for the k sector eigenvalues of the largest QES
    set, at a step h <= START_STEP.

    On the envelope scan (half-integer lambda in [0.5, 39.5] x 25 log-spaced
    s in [0.1, 10], alpha = 1) the starts run on 15 to 126 points, and the
    largest self-gap is 2.9e-11.  The start is meant to be cheap, not final:
    at 1882 of the 1975 points some set's start does not resolve, and the
    rule grows it before the coarse solve.  Raises InadmissibleParametersError
    where y, or v = V / alpha^2 at the wall, is beyond float64."""
    # A decaying y^lambda (lambda < 0) only moves the wall inwards.
    s, lam = params.s, max(params.lam, 0.0)
    y, previous = 10.0, 0.0
    if s * y - lam * math.log(y) < 40.0:
        # Fixed-point iteration onto the largest root: it rises monotonically
        # from y = 10, with contraction lam / (s y) < 1/ln(10) at the root.
        while y - previous > 1e-12 * y:
            previous, y = y, (40.0 + lam * math.log(y)) / s
    if not math.isfinite(y):
        raise InadmissibleParametersError(
            f"the oracle's wall y = cosh(alpha L) overflows float64 at s = {params.s!r}, "
            "where the QES levels' tails fall below exp(-40)"
        )
    wall = math.acosh(y)
    # Far out, s^2 sinh^2 - 2 s lambda cosh can be inf - inf: ignore both warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        v_wall = _potential(params, wall)
    if not math.isfinite(v_wall):
        raise InadmissibleParametersError(
            f"v = V / alpha^2 overflows float64 at s = {params.s!r}, at the oracle's "
            f"wall xi = alpha L = {wall!r}, where the QES levels' "
            "tails fall below exp(-40)"
        )
    # The largest QES set has floor(lambda + 1/2) levels.
    k = math.floor(lam + 0.5) + EXTRA_ORACLE_LEVELS
    return GridSpec(wall, max(3 * k, math.ceil(wall / START_STEP)))


def node_count(vector: np.ndarray) -> int:
    """Strict sign changes, ignoring entries below 1e-12 of the peak (solver.sign_changes).

    An empty, all-zero or non-finite vector raises DegenerateVectorError.
    """
    return int(sign_changes(np.asarray(vector, dtype=float).reshape(1, -1))[1][0])


def _require_points(grid: GridSpec, k: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > grid.point_count_N:
        raise ValueError(
            f"{k} eigenvalues per sector need N >= {k} grid points, "
            f"got N = {grid.point_count_N}"
        )


@functools.lru_cache(maxsize=16)
def _kinetic_table(n: int) -> np.ndarray:
    """u[n - 1 + k] = t(|k|) at h = 1 for k = 1 - n .. 2 n - 1; read-only.

    t(0) = pi^2 / 3 and t(m) = 2 (-1)^m / m^2.  It depends on n alone, so
    every grid of n points, of either parity, shares it.
    """
    t = np.empty(2 * n)
    t[0] = math.pi**2 / 3.0
    t[1:] = 2.0 / np.arange(1, 2 * n, dtype=float) ** 2
    t[1::2] *= -1.0
    table = np.concatenate((t[n - 1 : 0 : -1], t))
    table.setflags(write=False)
    return table


def _sector_hamiltonian(
    grid: GridSpec, parity: str, potential: np.ndarray
) -> np.ndarray:
    """Dense sinc-DVR Hamiltonian of one parity sector on grid's points.

    H[i, j] = t(|i - j|) +- t(i + j + 1) + v(xi_i) delta_ij, with
    t(0) = pi^2 / (3 h^2) and t(m) = 2 (-1)^m / (m^2 h^2): the mirror image
    of point j lies i + j + 1 steps from point i.  + for even, - for odd.
    potential holds v(xi_i) on grid's points.
    """
    combine = {"even": np.add, "odd": np.subtract}[parity]
    n, h = grid.point_count_N, grid.step
    u = _kinetic_table(n) / (h * h)
    # Strided views of u, so that no N x N index array is built: row i of
    # `direct` is t(|i - j|) = u[n - 1 - i + j] and row i of `mirror` is
    # t(i + j + 1) = u[n + i + j].
    step = u.itemsize
    direct = np.ndarray((n, n), buffer=u, offset=(n - 1) * step, strides=(-step, step))
    mirror = np.ndarray((n, n), buffer=u, offset=n * step, strides=(step, step))
    hamiltonian = combine(direct, mirror)
    hamiltonian.flat[:: n + 1] += potential
    return hamiltonian


def _potential(params: PotentialParams, xi):
    """v = V / alpha^2 = s^2 sinh^2 xi - 2 s lambda cosh xi, from params' (s, lam) alone."""
    s, lam = params.s, params.lam
    return s * s * np.sinh(xi) ** 2 - 2.0 * s * lam * np.cosh(xi)


def _checked_spectrum(
    potential: np.ndarray, k: int, parity: str, values: np.ndarray, vectors: np.ndarray,
) -> tuple[tuple[float, ...], np.ndarray]:
    """The k smallest eigenpairs of a sector's eigh, checked: the eigenvalues
    strictly increase, and half-line eigenvector j has j sign changes (Sturm
    oscillation) on the points where v(xi_i) <= eps_j, widened by one point past
    each end: no node lies where v > eps_j, and the tail there is only noise."""
    # A copy, so that the N x N eigenvector matrix is freed before the
    # next grid is solved.
    values, vectors = values[:k], vectors[:, :k].copy()
    if np.any(np.diff(values) <= 0.0):
        raise InvariantViolationError("oracle eigenvalues are not strictly increasing")
    allowed = potential[:, None] <= values
    window = allowed.copy()
    window[1:] |= allowed[:-1]
    window[:-1] |= allowed[1:]
    sturm_signs(np.where(window, vectors, 0.0).T, lambda j, changes: (
        f"Sturm oscillation violated: {parity} eigenvector {j} has "
        f"{changes} sign changes on the half-line"))
    return tuple(values.tolist()), vectors


def lowest_eigenvalues(
    params: PotentialParams, grid: GridSpec, k: int, parity: str
) -> NumericSpectrum:
    """k smallest eigenpairs of one parity sector on (0, L), on a grid of xi
    that resolves them.

    The sizing rule: from grid, N = ceil(1.1 k_max L) while k_max h > 1, where
    k_max = sqrt(eps_(k-1) - min v) is the largest local wavenumber of the k
    eigenvalues.  Each grid is decomposed once, and the returned spectrum
    carries the grid that resolved.  Only that grid is checked, since an
    unresolved one may break the checks: the eigenvalues strictly increase,
    and half-line eigenvector j has j sign changes (Sturm oscillation) where
    v <= eps_j.  A grid of more than MAX_GRID_POINTS points raises
    InadmissibleParametersError before it is built.
    """
    _require_points(grid, k)
    while True:
        if grid.point_count_N > MAX_GRID_POINTS:
            raise InadmissibleParametersError(
                f"the oracle's sizing rule asks for N = {grid.point_count_N:.3g} grid points "
                f"at s = {params.s!r}; N is limited to {MAX_GRID_POINTS}"
            )
        potential = _potential(params, grid.points())
        values, vectors = np.linalg.eigh(_sector_hamiltonian(grid, parity, potential))
        k_max = math.sqrt(max(float(values[k - 1]) - float(np.min(potential)), 0.0))
        if k_max * grid.step <= 1.0:
            return NumericSpectrum(*_checked_spectrum(potential, k, parity, values, vectors), grid)
        grid = GridSpec(grid.half_width_L, math.ceil(1.1 * k_max * grid.half_width_L))


def _require_classified(params: PotentialParams, classification: QesClassification,
                        levels: list[QesLevel]) -> None:
    """ValueError unless levels hold each (set, row) of classification once, solved at params."""
    missing = dict.fromkeys((q, j) for q in classification.sets for j in range(q.n + 1))
    for level in levels:
        q = level.qes_set
        name = f"level {level.row} of set {q.set_index} with n = {q.n}"
        if (q, level.row) not in missing:
            raise ValueError(f"analytic_levels holds {name} twice or outside the classification")
        if level.params != params:
            raise ValueError(f"analytic_levels' {name} was solved at other parameters")
        del missing[q, level.row]
    if missing:
        q, j = next(iter(missing))
        raise ValueError(f"analytic_levels lacks level {j} of set {q.set_index} with n = {q.n}")


def verify_qes(
    params: PotentialParams,
    classification: QesClassification,
    tolerance: float = DEFAULT_TOLERANCE,
    analytic_levels: list[QesLevel] | None = None,
) -> VerificationReport:
    """Adjudicate every analytic level against the two-grid sector oracle.

    Every set's coarse solve starts from default_grid(params), whose wall is
    past the tail of every QES level.  Level j of a set (energy order) is
    compared with eigenvalue j of the sector of the set's parity.
    analytic_levels overrides the solved levels (used to demonstrate that a
    published value fails the match): one level per (set, row) of the
    classification, each solved at params, though its mu may be replaced,
    or ValueError names the first level or set that breaks this.  A level
    whose |mu + eps| = |E_analytic - E_oracle| / alpha^2 exceeds tolerance
    fails overall_pass.
    Raises InadmissibleParametersError, before anything is solved, when
    default_grid's wall, or v = V / alpha^2 at it, is beyond float64.
    """
    if not classification.sets:
        raise ValueError("classification is empty; nothing to verify")
    start = default_grid(params)
    if analytic_levels is None:
        analytic_levels = solve_classification(params, classification)
    else:
        _require_classified(params, classification, analytic_levels)

    rows: dict[int, LevelComparison] = {}
    unmatched: list[float] = []
    spectra: list[NumericSpectrum] = []
    passed = True
    for qes_set in classification.sets:
        members = sorted(
            (i for i, level in enumerate(analytic_levels) if level.qes_set == qes_set),
            key=lambda i: -analytic_levels[i].mu,
        )
        k = qes_set.n + 1 + EXTRA_ORACLE_LEVELS
        coarse = lowest_eigenvalues(params, start, k, qes_set.parity)
        fine_start = GridSpec(
            start.half_width_L, math.ceil(1.5 * coarse.grid.point_count_N)
        )
        fine = lowest_eigenvalues(params, fine_start, k, qes_set.parity)
        spectra.append(fine)
        energies = params.scaled("the oracle's E = alpha^2 eps", fine.eigenvalues, 2)
        unmatched.extend(energies[len(members):])
        grid_ratio = fine.grid.point_count_N / coarse.grid.point_count_N
        # The gaps in units of alpha^2, from mu and eps alone.
        mus = [analytic_levels[i].mu for i in members]
        gaps = [abs(eps + mu) for eps, mu in zip(fine.eigenvalues, mus)]
        passed = passed and all(gap <= tolerance for gap in gaps)
        abs_gaps = params.scaled("|E_analytic - E_oracle|", gaps, 2)
        self_gaps = params.scaled("the oracle's self-gap", [
            abs(f - c) for f, c, _ in zip(fine.eigenvalues, coarse.eigenvalues, mus)], 2)

        for j, i in enumerate(members):
            level, gap_coarse = analytic_levels[i], abs(coarse.eigenvalues[j] + mus[j])
            rows[i] = LevelComparison(
                set_index=qes_set.set_index,
                n=qes_set.n,
                energy_analytic=level.energy,
                energy_oracle=energies[j],
                abs_gap=abs_gaps[j],
                self_gap=self_gaps[j],
                convergence_order=(
                    math.log(gap_coarse / gaps[j]) / math.log(grid_ratio)
                    if gap_coarse > 0.0 and gaps[j] > 0.0 else math.nan
                ),
                node_count_analytic=level.node_count,
                # Both grids' solves have checked that eigenvector j has j sign
                # changes on the half-line.
                node_count_oracle=qes_set.node_count(j),
                parity=level.parity,
            )

    ordered = tuple(rows[i] for i in range(len(analytic_levels)))
    overall = passed and all(r.node_count_analytic == r.node_count_oracle for r in ordered)
    return VerificationReport(
        rows=ordered,
        max_self_gap=max(r.self_gap for r in ordered),
        overall_pass=overall,
        unmatched_oracle=tuple(sorted(unmatched)),
        grid=max((fine.grid for fine in spectra), key=lambda g: g.point_count_N),
        spectra=tuple(spectra),
    )
