"""Finite secular pencil, QES energies, closed-form wavefunctions, QMF diagnostics.

With p1 = b1 - 1/4, p2 = b1' - 1/4 and s = sqrt(V1)/alpha, the bound states
in the QES block take the form

    psi = z^p1 (z + 2)^p2 exp(-s (1 + z)) P_n(z),   z = cosh(alpha x) - 1,

extended to x < 0 by parity (odd when p1 = 1/2).  Substituting this into the
Schrodinger equation and matching powers of z yields a three-term recurrence:
a tridiagonal matrix H with positive off-diagonal products, symmetrized by a
diagonal scaling and solved with numpy's eigh.  E = -alpha^2 * eig(H), and
the eigenvectors are the coefficients of P_n in ascending powers of z.  Every
release must pass the residual and oracle checks in the test suite; the
recursion below is validated there, not trusted.

A Jacobi eigenvector's polynomial has only real zeros (Heine-Stieltjes), in
(-2, 0) and (0, inf).  Its moving poles (zeros in z > 0) are counted twice,
independently, and neither count locates a root: by Descartes' rule, the sign
changes of its coefficients, which is exact for a real-rooted polynomial; and
by the argument principle on an ellipse in ln z that spans the two Fujiwara
root bounds, integrated with the periodic trapezoid rule.  In z the ellipse
encloses the positive axis and strays off it only where |arg z| < 3/2, where
no zero can lie.  Every polynomial, P, P', P'' or a roundoff scale, goes
through one in-place Horner helper.

The levels of one set share a working point, (p1, p2) and the degree n, so
solve_levels attaches one table to all of them, with one accessor per result,
each filled for the whole set (in blocks of bounded size) on first use and
kept: log_norm, from one scan of the shared |x| <= 5/alpha grid, and once
alone on a grid of its own for a row whose turning point lies farther out;
contour_value, from passes each over the rows not yet converged; and
closed_form, one evaluation per block of rows at the x asked for, kept
until each of its rows has been read or another x or block is asked for.
That pays when a set's levels are evaluated one after another at one x, as
sample does; a caller that evaluates one level of a set, or each level at
its own x, pays for its whole block every time.  Each row has the bits it would
have alone, and a row's error is raised only for its own level.  A level
built any other way (by hand, or by dataclasses.replace) gets a table of
its own.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContourCollisionError,
    InadmissibleParametersError,
    InvariantViolationError,
    QmfPoleError,
)
from .potential import PotentialParams, Variant, evaluate_potential
from .qhj import SET_RESIDUES, QesClassification, QesSet, enumerate_qes_sets

# Moving-pole contour: half-height of the ellipse in w = ln z, agreement
# between successive trapezoid passes, and the range of node counts tried.
_CONTOUR_HALF_HEIGHT = 1.5
_CONTOUR_TOLERANCE = 1e-9
_CONTOUR_MIN_NODES = 64
_CONTOUR_MAX_NODES = 2**16
# The largest block degree n: a 501 x 501 float64 pencil is 2 MB.
MAX_BLOCK_N = 500
# Rows x points one block of a set scan evaluates at a time.
_BLOCK_ENTRIES = 2**14
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SpectralPencil:
    """The (n+1) x (n+1) secular matrix H, dimensionless; E = -alpha^2 eig(H)."""

    matrix: np.ndarray
    qes_set: QesSet

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class QesLevel:
    """One analytic eigenvalue with its polynomial, node count and working point."""

    energy: float
    coefficients: tuple[float, ...]  # c0..cn in powers of z = y - 1, leading 1
    qes_set: QesSet
    node_count: int
    params: PotentialParams

    @property
    def parity(self) -> str:
        return self.qes_set.parity


@dataclass(frozen=True)
class ClosedFormWavefunction:
    """Evaluable closed form of one level; decays like exp(-s cosh(alpha x))."""

    level: QesLevel
    log_norm: float  # max of log|psi| on the default grid; fixes the scale


def build_pencil(qes_set: QesSet, params: PotentialParams) -> SpectralPencil:
    """Assemble H for one set of n <= MAX_BLOCK_N that params' lambda admits."""
    if qes_set.n > MAX_BLOCK_N:
        raise InadmissibleParametersError(
            f"set {qes_set.set_index} has n = {qes_set.n}; the dense pencil "
            f"supports n <= {MAX_BLOCK_N}"
        )
    # The set's own lambda (exact for n <= MAX_BLOCK_N) is admitted by definition.
    lam = params.lam
    if lam != qes_set.lam and qes_set not in enumerate_qes_sets(lam).sets:
        raise InadmissibleParametersError(
            f"set {qes_set.set_index} with n = {qes_set.n} needs M = 2 lambda = "
            f"{2.0 * qes_set.lam:g}, got lambda = {lam!r} at V2 = {params.v2!r}"
        )
    n = qes_set.n
    s = params.s
    p1, p2 = qes_set.p1, qes_set.p2
    sigma, delta = p1 + p2, p1 - p2
    k = np.arange(n + 1, dtype=float)
    # The diagonal, sub- and superdiagonal are written in place through the
    # flat index (stride n + 2), so only one matrix is built.
    matrix = np.zeros((n + 1, n + 1))
    matrix.flat[:: n + 2] = (k * (k - 1.0) + (2.0 * sigma + 1.0 - 4.0 * s) * k
                             + 2.0 * s * n + sigma**2 - 2.0 * s * delta)
    matrix.flat[n + 1 :: n + 2] = 2.0 * s * (n - k[1:] + 1.0)
    matrix.flat[1 :: n + 2] = (k[:-1] + 1.0) * (2.0 * k[:-1] + 1.0 + 4.0 * p1)
    matrix.setflags(write=False)
    return SpectralPencil(matrix=matrix, qes_set=qes_set)


def _row_sign_changes(signs: np.ndarray) -> np.ndarray:
    """Sign changes along each row of a 2-D table of signs, zeros skipped."""
    kept = signs != 0.0
    row = np.nonzero(kept)[0]
    signs = signs[kept]
    # The kept entries, row after row, each with its row's index: a change
    # is a flip between neighbours of the same row.
    flips = (signs[1:] != signs[:-1]) & (row[1:] == row[:-1])
    return np.bincount(row[1:][flips], minlength=len(kept))


def _node_count(coefficients: np.ndarray, parity: str) -> list[int]:
    """Real-line node count of each row c0..cn: 2 per zero of P in z > 0, +1 if odd.

    The zeros in z > 0 are counted by Descartes' rule: the sign changes of
    c0..cn, zeros skipped.  The rule is exact for a real-rooted polynomial
    with P(0) != 0, and P is the polynomial of a Jacobi eigenvector, so its
    zeros are real (Heine-Stieltjes).
    """
    odd = 1 if parity == "odd" else 0
    changes = _row_sign_changes(np.sign(coefficients))
    return [2 * count + odd for count in changes.tolist()]


def solve_levels(pencil: SpectralPencil, params: PotentialParams) -> list[QesLevel]:
    """Energies and polynomial coefficients for one set, sorted by energy.

    H is tridiagonal with positive off-diagonal products, so the diagonal
    similarity D H D^-1 with D[k+1]/D[k] = sqrt(H[k,k+1]/H[k+1,k]) is a
    symmetric Jacobi matrix: real, simple eigenvalues, and eigenvectors u
    whose last component never vanishes, giving the coefficients u / D.
    In float64 that component can underflow once D grows large, and the
    set then raises InvariantViolationError.  The levels share one _SetTable.
    """
    h = pencil.matrix
    upper, lower = h.diagonal(1), h.diagonal(-1)
    qes_set, parity = pencil.qes_set, pencil.qes_set.parity
    scale = np.ones(len(h))
    with np.errstate(over="ignore"):
        np.cumprod(np.sqrt(upper / lower), out=scale[1:])
    if not np.isfinite(scale).all():
        raise InvariantViolationError(
            f"the diagonal scaling D of set {qes_set.set_index} with "
            f"n = {qes_set.n} overflows float64"
        )
    off = np.sqrt(upper * lower)
    # H's diagonal, with both off-diagonals replaced by sqrt(upper * lower).
    jacobi = h.copy()
    jacobi.flat[1 :: len(h) + 1] = off
    jacobi.flat[len(h) :: len(h) + 1] = off
    mus, vectors = np.linalg.eigh(jacobi)
    vectors = vectors / scale[:, None]

    # E = -alpha^2 mu, and eigh sorts mu ascending: row j, level j, is
    # column -1 - j, scaled to a leading 1.
    last = vectors[-1, ::-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        coefficients = vectors.T[::-1] / last[:, None]
    if not np.isfinite(coefficients).all():
        j = int(np.isfinite(coefficients).all(axis=1).argmin())
        raise InvariantViolationError(
            f"level {j} of set {qes_set.set_index} with n = {qes_set.n} has no "
            f"leading-1 scaling in float64: its eigenvector's last component "
            f"is {float(last[j])!r}"
        )
    coefficients.setflags(write=False)
    nodes = _node_count(coefficients, parity)
    leading = coefficients[:, 0].tolist()
    # An unreduced Jacobi eigenvector has u_0 != 0, and level j has 2 j
    # nodes, plus one if odd.
    odd = 1 if parity == "odd" else 0
    expected = list(range(odd, 2 * len(nodes) + odd, 2))
    if nodes != expected or 0.0 in leading:
        j = next(j for j, c0 in enumerate(leading) if c0 == 0.0 or nodes[j] != expected[j])
        if leading[j] == 0.0:
            raise InvariantViolationError(
                f"level {j} of set {qes_set.set_index} has P(0) = 0: the "
                "eigenvector's smallest component underflowed"
            )
        raise InvariantViolationError(
            f"Sturm ordering violated: level {j} of set {qes_set.set_index} "
            f"has {nodes[j]} nodes"
        )
    energies = (-params.alpha**2 * mus[::-1]).tolist()
    table = _SetTable(coefficients, energies, qes_set, params)
    levels = []
    for j, row in enumerate(coefficients.tolist()):
        level = QesLevel(
            energy=energies[j],
            coefficients=tuple(row),
            qes_set=qes_set,
            node_count=nodes[j],
            params=params,
        )
        object.__setattr__(level, "_set_table", (table, j))
        levels.append(level)
    return levels


def solve_classification(
    params: PotentialParams, classification: QesClassification
) -> list[QesLevel]:
    """Solve every set in the classification; all levels sorted by energy."""
    levels: list[QesLevel] = []
    for qes_set in classification.sets:
        levels.extend(solve_levels(build_pencil(qes_set, params), params))
    # Tunnelling doublets can be degenerate below roundoff: order by the
    # energy as printed (12 significant digits), then by set.
    levels.sort(key=lambda lvl: (float("%.12g" % lvl.energy), lvl.qes_set.set_index))
    return levels


def _horner(coefficients, z):
    """c0 + c1 z + ... + cn z^n by Horner's rule in place, as numpy's polyval; each
    c_k a scalar, or a (rows, 1) column: rows never mix, each keeps its bits alone."""
    poly = np.empty(np.broadcast(coefficients[-1], z).shape, z.dtype)
    poly[...] = coefficients[-1]
    for c in coefficients[-2::-1]:
        poly *= z
        poly += c
    return poly


def _log_abs(coefficients, qes_set: QesSet, s: float, z, log_z=None, log_z2=None):
    """Unnormalized log|psi| and P at z = cosh(alpha x) - 1, accumulated in log space.

    log|psi| = ln|P(z)| - s (1 + z) + p1 ln z + p2 ln(z + 2), added left to
    right; ln z and ln(z + 2) are taken from log_z and log_z2 when given.
    coefficients holds c0..cn as _horner takes them, for one level or a block.
    Callers ignore divide, over and invalid: a zero of P or z gives -inf.
    """
    p1, p2 = qes_set.p1, qes_set.p2
    poly = _horner(coefficients, z)
    # In place, so that a set's scan holds two tables of its size, not four.
    log_abs = np.log(np.abs(poly))
    log_abs += -s * (1.0 + z)
    if p1 > 0.0:
        log_abs += p1 * (np.log(z) if log_z is None else log_z)
    if p2 > 0.0:
        log_abs += p2 * (np.log(z + 2.0) if log_z2 is None else log_z2)
    return log_abs, poly


def _grid_z(alpha: float, half_width: float) -> np.ndarray:
    """z on the normalisation grid: x in [0, half_width/alpha], steps <= 0.005/alpha."""
    x = np.linspace(0.0, half_width / alpha, math.ceil(200.0 * half_width) + 1)
    sh = np.sinh(0.5 * alpha * x)
    return 2.0 * sh * sh


@functools.lru_cache(maxsize=8)
def _default_grid_terms(alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z, ln z and ln(z + 2) on the default grid |x| <= 5/alpha; read-only.

    They depend on alpha alone, so every level at one alpha shares them.
    Each is one (1, points) row, the shape a set's rows broadcast against
    fastest.
    """
    z = _grid_z(alpha, 5.0)[None, :]
    with np.errstate(divide="ignore"):
        terms = (z, np.log(z), np.log(z + 2.0))
    for table in terms:
        table.setflags(write=False)
    return terms


def _require_own_params(level: QesLevel, params: PotentialParams) -> None:
    if params != level.params:
        raise InadmissibleParametersError("level was solved for different parameters")


def _turning_point(params: PotentialParams, energy: float) -> float:
    """The outer turning point y_t, V(y_t) = E; NaN if V never falls to E."""
    v1, v2 = params.v1, params.v2
    discriminant = v2 * v2 + 4.0 * v1 * (v1 + energy)
    return (-v2 + math.sqrt(discriminant)) / (2.0 * v1) if discriminant >= 0.0 else math.nan


def wavefunction(level: QesLevel, params: PotentialParams) -> ClosedFormWavefunction:
    """Closed form for one solved level; normalized so max|psi| = 1 on the grid.

    params must be the level's own working point; the grid is _SetTable.log_norm's.
    """
    _require_own_params(level, params)
    table, row = _set_table(level)
    return ClosedFormWavefunction(level, table.log_norm(row))


def _scaled_closed_form(level: QesLevel, x, log_norm=None) -> np.ndarray:
    """sign exp(log|psi| - log_norm) at the finite points x; 0 where psi underflows.

    log_norm defaults to the maximum of log|psi| over x itself.
    """
    table, row = _set_table(level)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_abs, sign = table.closed_form(row, np.asarray(x, dtype=float))
        finite = np.isfinite(log_abs)
        if log_norm is None:
            log_norm = np.where(finite, log_abs, -np.inf).max(initial=-np.inf)
        return sign * np.where(finite, np.exp(log_abs - log_norm), 0.0)


def evaluate_wavefunction(wf: ClosedFormWavefunction, x):
    """psi(x), max-normalized; underflow-safe (extreme |x| returns 0)."""
    value = _scaled_closed_form(wf.level, x, wf.log_norm)
    if value.ndim == 0:
        return float(value)
    return value


def sample_wavefunction(level: QesLevel, x: np.ndarray) -> np.ndarray:
    """psi at the points x, scaled so that max|psi| over x is exactly 1.

    The level's row of its set's evaluation at x, its maximum taken over x.
    Where psi underflows it is 0, everywhere if need be.
    """
    return _scaled_closed_form(level, x)


@contextmanager
def _overflow_names(x: float):
    """Raise one ValueError that names x where float64 overflows."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise ValueError(f"the closed form overflows float64 at x = {x!r}") from None


def _log_derivative_pieces(level: QesLevel, x: float):
    """L = d(ln psi)/dx and L' as numpy scalars; raises at QMF poles."""
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    a = level.params.alpha
    p1, p2 = level.qes_set.p1, level.qes_set.p2
    c = np.asarray(level.coefficients)
    # The coefficients of P' and P'' (numpy's polyder), each with a zero on top,
    # so that Horner starts as polyval does and a constant has P' = 0.
    dc = np.append(np.arange(1, len(c)) * c[1:], 0.0)
    ddc = np.append(np.arange(1, len(dc)) * dc[1:], 0.0)
    with _overflow_names(x):
        # cosh(a x) - 1 without cancellation, as a numpy scalar to obey errstate.
        z = 2.0 * np.float64(math.sinh(0.5 * a * x)) ** 2
        p, dp, ddp = _horner(c, z), _horner(dc, z), _horner(ddc, z)
        # Horner's roundoff scale: sum_k |c_k| |z|^k.
        if abs(p) < 1e-12 * _horner(np.abs(c), abs(z)):
            raise QmfPoleError(f"moving pole: P(y) = 0 at x = {x!r}")
        if p1 > 0.0 and x == 0.0:
            raise QmfPoleError("moving pole at the origin (odd-parity node)")

        # Ratios to P: P^2 overflows long before L does.
        r = dp / p
        m = -level.params.s + r
        dm = ddp / p - r * r
        if p1 > 0.0:
            m += p1 / z
            dm -= p1 / z**2
        if p2 > 0.0:
            m += p2 / (z + 2.0)
            dm -= p2 / (z + 2.0) ** 2
        sh = np.float64(math.sinh(a * x))
        big_l = a * sh * m
        big_lp = a * a * (1.0 + z) * m + (a * sh) ** 2 * dm
    return big_l, big_lp


def quantum_momentum(wf: ClosedFormWavefunction, x: float) -> complex:
    """p(x) = -i psi'/psi; purely imaginary for the real closed form."""
    big_l, _ = _log_derivative_pieces(wf.level, x)
    return complex(0.0, -big_l)


def quantum_momentum_derivative(wf: ClosedFormWavefunction, x: float) -> complex:
    """dp/dx from the analytic closed form (no finite differences)."""
    _, big_lp = _log_derivative_pieces(wf.level, x)
    return complex(0.0, -big_lp)


def qhj_residual(
    wf: ClosedFormWavefunction, energy: float, params: PotentialParams, x: float
) -> float:
    """p^2 - i p' - (E - V) at one point; zero for a true bound state.

    params must be the working point wf's level was solved at.
    """
    _require_own_params(wf.level, params)
    big_l, big_lp = _log_derivative_pieces(wf.level, x)
    with _overflow_names(x):
        v = evaluate_potential(params, Variant.REAL_SINH_GORDON, x).real
        return float((-big_l * big_l - big_lp) - (energy - v))


def schrodinger_residual(
    wf: ClosedFormWavefunction, energy: float, params: PotentialParams, x: float
) -> float:
    """(-psi'' + V psi - E psi)(x): the QHJ residual times psi."""
    return qhj_residual(wf, energy, params, x) * evaluate_wavefunction(wf, x)


@functools.lru_cache(maxsize=16)
def _contour_pass_tables(nodes: int) -> tuple[np.ndarray, ...]:
    """cos t, exp(i b sin t), -sin t and i b cos t at the new nodes of one pass.

    The pass completes the nodes-point trapezoid rule on t in [0, 2 pi): the
    first (2 * _CONTOUR_MIN_NODES) covers the 64-point rule, then its
    midpoints; a later one the midpoints of the nodes/2-point rule.
    """
    k = np.arange(1.0, nodes, 2.0)  # the midpoints of the nodes/2-point rule
    if nodes == 2 * _CONTOUR_MIN_NODES:
        k = np.concatenate((k - 1.0, k))
    theta = 2.0 * math.pi / nodes * k
    cos, sin = np.cos(theta), np.sin(theta)
    b = _CONTOUR_HALF_HEIGHT
    tables = (cos, np.exp(1j * b * sin), -sin, 1j * b * cos)
    for table in tables:
        table.setflags(write=False)
    return tables


def _contour_terms(coefficients: np.ndarray, center, a, nodes: int) -> np.ndarray:
    """The trapezoid terms (P'/P) dz/dt at the new nodes of one pass.

    One row per row of coefficients (c0..cn, n >= 1) on its own ellipse
    (center and half-width a in ln z); P' has the coefficients k c_k.
    """
    cos, exp_ib_sin, neg_sin, ib_cos = _contour_pass_tables(nodes)
    z = np.exp(center[:, None] + a[:, None] * cos) * exp_ib_sin
    columns = coefficients.T[:, :, None]
    terms = _horner(np.arange(1, len(columns))[:, None, None] * columns[1:], z)
    terms /= _horner(columns, z)
    terms *= z
    del z  # freed before the dz/dt step, where the pass peaks in memory
    terms *= a[:, None] * neg_sin + ib_cos
    return terms


def moving_pole_contour_value(level: QesLevel) -> complex:
    """Raw (1/2 pi i) * contour integral of P'/P around the half-line z > 0.

    The contour is an ellipse in w = ln z, so dz = z dw, with real vertices
    -ln B_rev and ln B and half-height 3/2.  B is the Fujiwara bound on the
    zeros of P and B_rev the same bound on the zeros of the reversed
    polynomial, so every zero has 1/B_rev <= |z| <= B and no root needs to be
    located.  In z the ellipse encloses the whole positive axis and strays
    off it only where |arg z| < 3/2.  No complex zero can be counted
    there: P is the polynomial of an eigenvector of a Jacobi matrix, so by
    Heine-Stieltjes theory all its zeros are real, in (-2, 0) and (0, inf).
    The negative ones sit at Im w = pi, and the half-height splits the gap.

    The periodic trapezoid rule converges exponentially for this analytic
    integrand.  The first pass gives the 64- and the 128-node estimates;
    while two successive estimates disagree, the node count doubles, in one
    pass of the level's set over its levels that still need it.
    A zero on the contour stalls convergence and raises ContourCollisionError.
    """
    table, row = _set_table(level)
    return table.contour_value(row)


class _SetTable:
    """Results shared by the levels of one set, computed for all of them (or a block) on first use.

    Row j belongs to level j: coefficients (levels x (n + 1)) and energies
    (a list); the levels share qes_set and params.  A row's failure is kept
    as its message and raised only for its own level.
    """

    def __init__(self, coefficients, energies, qes_set: QesSet, params: PotentialParams):
        self.coefficients = coefficients
        self.energies = energies
        self.qes_set = qes_set
        self.params = params
        self._log_norms = None
        self._contour = None
        self._block = None

    def closed_form(self, row: int, x: np.ndarray):
        """Unnormalized log|psi| and sign of level row at the points x, which must be finite.

        The row's block of rows is evaluated in one pass: the x-only terms
        once, z = 2 sinh(alpha x / 2)^2 = cosh(alpha x) - 1 (free of
        cancellation) and its logs, then Horner over the block's columns;
        the odd-parity sign rides on sinh(alpha x / 2).  The last block is
        kept, read-only, with a private copy of the x it was evaluated at,
        until each of its rows has been read; the set's other levels read
        their rows from it while x is unchanged bit for bit.  Only a checked
        x is kept, so a hit needs no check.  Callers ignore divide, over and
        invalid.
        """
        block = self._block
        if block is None or not (block[0].start <= row < block[0].stop
                                 and block[1] == (x.shape, x.tobytes())):
            if not np.isfinite(x).all():
                raise ValueError("x must be finite")
            rows = next(b for b in _row_blocks(len(self.energies), max(x.size, 1))
                        if row < b.stop)
            columns = self.coefficients.T[:, rows]
            sh = np.sinh(0.5 * self.params.alpha * x)
            log_abs, poly = _log_abs(columns.reshape(columns.shape + (1,) * x.ndim),
                                     self.qes_set, self.params.s, 2.0 * sh * sh)
            sign = np.sign(poly)
            if self.qes_set.p1 > 0.0:
                sign *= np.sign(sh)
            log_abs.setflags(write=False)
            sign.setflags(write=False)
            unread = set(range(rows.start, rows.start + len(log_abs)))
            # A block of one row is never kept, so x is not copied for it.
            key = (x.shape, x.tobytes()) if len(unread) > 1 else None
            block = (rows, key, log_abs, sign, unread)
        rows, _, log_abs, sign, unread = block
        unread.discard(row)
        self._block = block if unread else None
        return log_abs[row - rows.start], sign[row - rows.start]

    def log_norm(self, row: int) -> float:
        """Level row's log_norm: the max of log|psi| on x in [0, 5/alpha], in steps <= 0.005/alpha.

        |psi| is even in x and has no interior maximum where V > E, so its
        peak lies inside the outer turning point y_t (V(y_t) = E).  The first
        call scans that grid once for every row with y_t <= cosh 5; a row
        with y_t farther out is scanned alone, out to y_t, when first asked.
        """
        if self._log_norms is None:
            shared = [_turning_point(self.params, energy) <= math.cosh(5.0)  # False for NaN
                      for energy in self.energies]
            maxima = iter(self._maxima(np.flatnonzero(shared),
                                       _default_grid_terms(self.params.alpha)))
            self._log_norms = [next(maxima) if on else None for on in shared]
        if self._log_norms[row] is None:
            y_turn = _turning_point(self.params, self.energies[row])
            if math.isnan(y_turn):
                self._log_norms[row] = (
                    f"energy {self.energies[row]!r} lies below the minimum of V")
            else:
                grid = _grid_z(self.params.alpha, math.acosh(y_turn))[None, :]
                (self._log_norms[row],) = self._maxima([row], (grid,))
        return _kept(self._log_norms[row], InvariantViolationError)

    def _maxima(self, rows, grid) -> list:
        """Max of log|psi| over the grid for each of rows, in blocks of rows."""
        columns = self.coefficients.T[:, rows, None]
        maxima = []
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for block in _row_blocks(len(rows), grid[0].shape[1]):
                log_abs, _ = _log_abs(columns[:, block], self.qes_set, self.params.s, *grid)
                maxima += log_abs.max(axis=1, where=np.isfinite(log_abs),
                                      initial=-np.inf).tolist()
        return [value if value > -math.inf else
                "the closed form has no finite value on its grid" for value in maxima]

    def contour_value(self, row: int) -> complex:
        """Level row's moving_pole_contour_value; the first call makes every row's passes."""
        if self.coefficients.shape[1] == 1:
            return 0j
        if self.coefficients[row, 0] == 0.0:
            raise ContourCollisionError("P(0) = 0: a zero sits on the fixed pole z = 0")
        if self._contour is None:
            c = self.coefficients
            k = np.arange(1, c.shape[1])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # Fujiwara, in logs: ln B = ln 2 + max_k ln|c_(n-k)| / k for
                # the monic P, and ln B_rev = ln 2 + max_k (ln|c_k| - ln|c_0|)
                # / k for its reversal.
                log_abs = np.log(np.abs(c))
                right = _LN2 + (log_abs[:, -2::-1] / k).max(axis=1)
                left = -(_LN2 + ((log_abs[:, 1:] - log_abs[:, :1]) / k).max(axis=1))
                center, a = 0.5 * (right + left), 0.5 * (right - left)

                def pass_sums(rows, nodes, parts):
                    # Each row's sums over `parts` equal runs of the pass's nodes.
                    c_rows, center_rows, a_rows = c[rows], center[rows], a[rows]
                    points = len(_contour_pass_tables(nodes)[0])
                    return np.concatenate([
                        _contour_terms(c_rows[b], center_rows[b], a_rows[b], nodes)
                        .reshape(-1, parts, points // parts).sum(axis=2)
                        for b in _row_blocks(len(c_rows), points)
                    ])

                # The 64-node rule, then its midpoints: both first estimates.
                nodes = 2 * _CONTOUR_MIN_NODES
                half, midpoints = pass_sums(slice(None), nodes, 2).T
                total = half + midpoints
                previous, mean = half / _CONTOUR_MIN_NODES, total / nodes
                # NaN never converges.
                active = np.flatnonzero(~(abs(mean - previous) <= _CONTOUR_TOLERANCE))
                while active.size and nodes < _CONTOUR_MAX_NODES:
                    nodes *= 2
                    total[active] += pass_sums(active, nodes, 1)[:, 0]
                    previous = mean[active]
                    mean[active] = total[active] / nodes
                    active = active[~(abs(mean[active] - previous) <= _CONTOUR_TOLERANCE)]
            self._contour = [complex(value) / 1j for value in mean.tolist()]
            for j in active.tolist():
                self._contour[j] = (f"contour integral did not converge with {_CONTOUR_MAX_NODES} "
                                    "nodes; a polynomial zero lies on or near the contour")
        return _kept(self._contour[row], ContourCollisionError)


def _kept(value, error: type[Exception]):
    """A kept per-row result: the value, or error raised with the kept message."""
    if isinstance(value, str):
        raise error(value)
    return value


def _row_blocks(count: int, points: int) -> list[slice]:
    """Slices splitting count rows into blocks of _BLOCK_ENTRIES // points rows or one."""
    step = max(1, _BLOCK_ENTRIES // points)
    return [slice(i, i + step) for i in range(0, count, step)]


def _set_table(level: QesLevel) -> tuple[_SetTable, int]:
    """The level's set table and its row; a level solve_levels did not make
    gets a table of one on first use."""
    if not hasattr(level, "_set_table"):
        table = _SetTable(np.array([level.coefficients], dtype=float), [level.energy],
                          level.qes_set, level.params)
        object.__setattr__(level, "_set_table", (table, 0))
    return level._set_table


def count_moving_poles(level: QesLevel) -> int:
    """Number of P_n zeros in the physical region z > 0 (argument principle).

    Rounds moving_pole_contour_value, whose ellipse in ln z also encloses
    complex points with |arg z| < 3/2; P_n has no zeros there, as all its
    zeros are real.  A zero at z = 0, on the fixed pole, raises
    ContourCollisionError, as does a value more than 1e-3 from an integer.
    """
    raw = moving_pole_contour_value(level)
    count = round(raw.real)
    if abs(raw.real - count) > 1e-3 or abs(raw.imag) > 1e-3:
        raise ContourCollisionError(
            f"contour integral {raw!r} is not close to an integer"
        )
    return int(count)


# Published energy rows, by (table, set): n and the printed closed form in
# alpha and sqrt(V1).  Each set's n fixes V2 = -2 sqrt(V1) alpha (b1 + b1' + n).
PRINTED_ENERGIES = {
    ("3.2", 1): (1, lambda alpha, root: -(alpha**2) / 4.0 + alpha * root),
    ("3.2", 2): (0, lambda alpha, root: -(alpha**2)),
    ("3.3", 3): (0, lambda alpha, root: -(alpha**2) / 4.0 - alpha * root),
    # The published set-4 row duplicates the set-3 value.
    ("3.3", 4): (0, lambda alpha, root: -(alpha**2) / 4.0 - alpha * root),
}

# Published wavefunction rows, adjudicated structurally; each table's rows
# follow its energy rows.
_WAVEFUNCTION_ROWS = (
    {
        "table": "3.2",
        "set": 2,
        "quantity": "wavefunction",
        "printed": "exp(-(sqrt(V1)/alpha) cosh(alpha x)) sinh(alpha x)",
        "computed": "exp(-(sqrt(V1)/alpha) cosh(alpha x)) sinh(alpha x)",
        "flag": "matches-paper",
    },
    {
        "table": "3.2",
        "set": 1,
        "quantity": "wavefunction",
        "printed": "exp(-(sqrt(V1)/alpha) cosh(alpha x)) (gamma cosh(alpha x) + beta)",
        "computed": "exp(-(sqrt(V1)/alpha) cosh(alpha x)) (c1 cosh(alpha x) + c0)",
        "flag": "not-adjudicated",
        "note": (
            "same functional shape; the printed gamma expressions depend "
            "on an undefined auxiliary quantity and are not reproduced"
        ),
    },
    {
        "table": "3.3",
        "set": "3-4",
        "quantity": "wavefunction",
        "printed": "(cosh(alpha x) +- 1) prefactors",
        "computed": "(cosh(alpha x) +- 1)^(1/2) prefactors",
        "flag": "paper-typo-suspected",
        "note": "the published prefactors are missing the square root",
    },
)

# Table 3.1 as printed: (M condition, QES condition, n in terms of M) per set.
_M_CONDITIONS = {
    1: ("M odd, M >= 1", "M = 2n + 1", "(M - 1)/2"),
    2: ("M odd, M >= 3", "M = 2n + 3", "(M - 3)/2"),
    3: ("M even, M >= 2", "M = 2n + 2", "(M - 2)/2"),
    4: ("M even, M >= 2", "M = 2n + 2", "(M - 2)/2"),
}


def _energy_row(
    table: str, set_index: int, n: int, printed: float, v1: float, alpha: float
) -> dict:
    """One printed energy against the solved levels of its set."""
    qes_set = QesSet(set_index, n)
    params = PotentialParams.from_lambda(v1, qes_set.lam, alpha)
    computed = [lvl.energy for lvl in solve_levels(build_pencil(qes_set, params), params)]
    matches = any(abs(printed - e) <= 1e-9 * max(1.0, abs(e)) for e in computed)
    return {
        "table": table,
        "set": set_index,
        "quantity": "energy",
        "printed": printed,
        "computed": computed,
        "flag": "matches-paper" if matches else "paper-typo-suspected",
    }


def reproduce_paper_tables(v1: float, alpha: float) -> dict:
    """Structured reproduction of the three published tables with adjudication.

    Each energy row compares the printed closed form against this package's
    secular solution; a row is flagged 'paper-typo-suspected' when the printed
    value does not appear among the computed energies (the numerical oracle
    independently confirms the computed side in the test suite).  Wavefunction
    prefactor rows are adjudicated structurally.
    """
    table_3_1 = [
        {
            "set": index,
            "b1": str(b1),
            "b1_prime": str(b1p),
            "n_from_m": _M_CONDITIONS[index][2],
            "printed_m_condition": _M_CONDITIONS[index][0],
            "printed_qes_condition": _M_CONDITIONS[index][1],
            "printed_m_definition": "M = V2 / (2 sqrt(V1) alpha)",
            "reconciled_m_definition": "M = 2 lambda = |V2| / (sqrt(V1) alpha)",
        }
        for index, (b1, b1p) in sorted(SET_RESIDUES.items())
    ]

    rows = []
    for table in ("3.2", "3.3"):
        rows += [
            _energy_row(table, index, n, printed(alpha, math.sqrt(v1)), v1, alpha)
            for (tbl, index), (n, printed) in PRINTED_ENERGIES.items()
            if tbl == table
        ]
        rows += [dict(row) for row in _WAVEFUNCTION_ROWS if row["table"] == table]

    flags = [row["flag"] for row in rows]
    return {
        "parameters": {"v1": float(v1), "alpha": float(alpha)},
        "table_3_1": table_3_1,
        "rows": rows,
        "flags_summary": {
            "matches-paper": flags.count("matches-paper"),
            "paper-typo-suspected": flags.count("paper-typo-suspected"),
            "not-adjudicated": flags.count("not-adjudicated"),
        },
    }
