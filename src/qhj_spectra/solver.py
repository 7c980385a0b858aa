"""Finite secular pencil, QES energies, closed-form wavefunctions, QMF diagnostics.

With p1 = b1 - 1/4, p2 = b1' - 1/4 and s = sqrt(V1)/alpha, the bound states
in the QES block take the form

    psi = w(z) P_n(z),   w = z^p1 (z + 2)^p2 exp(-s (1 + z)),   z = cosh(alpha x) - 1,

extended to x < 0 by parity (odd when p1 = 1/2).  Substituting this into the
Schrodinger equation and matching powers of z yields a three-term recurrence:
a tridiagonal matrix H with positive off-diagonal products, and
E = -alpha^2 eig(H), taken from numpy's eigh of H's symmetric Jacobi form.
Every release must pass the residual and oracle checks in the test suite;
the recursion below is validated there, not trusted.

A set's levels are orthogonal in L^2(dx), so their polynomials are
orthogonal for the weight w^2 dx, and P_n is held in that weight's
orthonormal basis q_0 = 1, ..., q_n (unit mass), whose recurrence comes from
the Stieltjes procedure on the midpoint rule at cell-centred nodes out to
the weight's tail: spectrally accurate, as every integrand is even in x and
decays like exp(-2 s cosh(alpha x)).  A node's values are mantissas times a
shared exp(l), so neither w's decay nor q_k's growth leaves float64.  In the
basis the set's operator is a symmetric tridiagonal A: its eigenvalues must
reproduce eig(H), its eigenvectors are the levels' basis coefficients, and
level j must change sign j times on the nodes (sturm_signs, the oracle's check too).
Those sign changes are its moving poles, the zeros of P_n in z > 0 where
p = -i psi'/psi has its poles.  An n = 0 set has P = 1 and no basis.

A solved set (_SetTable) owns its pencil, mus, basis and coefficients; a
QesLevel is a (set, row) view, evaluated by the same scaled recurrence, then
one product with the coefficients of all the set's rows (or its own alone).
A value's last bits depend on that product, so psi and log_norm repeat only
to about 1e-13 of the level's peak across products of other shapes.
Where P is round-off in the basis, far below the peak, the QMF functions
take it from its Frobenius series at z = 0 instead.
A set scans its levels once, on the lattice alpha x_k = 0.005 u k with
u = min(1, 10 / sqrt(s)), to scale each to max |psi| = 1.  All of it is
computed from (s, lambda) in xi = alpha x: alpha enters only as xi = alpha x
and E = -alpha^2 mu (PotentialParams.scaled).
"""

from __future__ import annotations

import functools
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateVectorError, InadmissibleParametersError,
                     InvariantViolationError, QmfPoleError)
from .potential import PotentialParams, Variant, evaluate_potential
from .qhj import SET_RESIDUES, QesClassification, QesSet, enumerate_qes_sets

# The largest block degree n: a 501 x 501 float64 pencil is 2 MB.
MAX_BLOCK_N = 500
# Entries (basis functions x points) of one chunk of the q_k table that
# _evaluate builds, unless it is one point: a size that stays in cache.
_BLOCK_ENTRIES = 2**14
# The quadrature's nodes lie at most this far apart in alpha x, and at least
# _MIN_NODES resolve the weight.
_NODE_STEP = 0.1
_MIN_NODES = 40
# Entries (64 MB) of a set's two tables: q_k at its nodes, and its rows at x.
_MAX_TABLE_ENTRIES = 2**23
# A mantissa beyond _RESCALE is divided by it, and its point's exponent raised.
_RESCALE = 1e100
_LOG_RESCALE = math.log(_RESCALE)
# eig(A) must reproduce the energies' mu to this, relative to max(1, |mu|).
_MU_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SpectralPencil:
    """The (n+1) x (n+1) secular matrix H, dimensionless; E = -alpha^2 eig(H)."""

    matrix: np.ndarray
    qes_set: QesSet
    params: PotentialParams = field(compare=False, repr=False)  # the working point built at

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class OrthonormalBasis:
    """A set's q_0 = 1, ..., q_n: beta_(k+1) q_(k+1) = (z - alpha_k) q_k - beta_k q_(k-1).

    The q_k are orthonormal for the weight w(z)^2 dx on x > 0 scaled to unit
    mass.  alpha holds alpha_0..alpha_(n-1) and beta beta_1..beta_n; both
    are empty for n = 0.
    """

    alpha: tuple[float, ...]
    beta: tuple[float, ...]


@dataclass(frozen=True)
class QesLevel:
    """Row `row` of its solved set: replace(level, mu=...) changes only the
    energy it reports, not the set's closed form, normalisation or nodes."""

    mu: float  # the eigenvalue of H
    qes_set: QesSet
    params: PotentialParams
    row: int
    set_table: _SetTable = field(compare=False, repr=False)

    @property
    def energy(self) -> float:
        """E = -alpha^2 mu; solve_levels has checked that it is finite."""
        return -self.mu * self.params.alpha * self.params.alpha

    @property
    def parity(self) -> str:
        return self.qes_set.parity

    @property
    def basis_coefficients(self) -> tuple[float, ...]:  # P = sum_k c_k q_k(z), c orthonormal
        return tuple(self.set_table.coefficients[self.row].tolist())

    @property
    def basis(self) -> OrthonormalBasis:
        return self.set_table.basis

    @property
    def node_count(self) -> int:  # solve_levels checked level j's j sign changes
        return self.qes_set.node_count(self.row)


@dataclass(frozen=True)
class ClosedFormWavefunction:
    """Evaluable closed form of one level; decays like exp(-s cosh(alpha x))."""

    level: QesLevel
    log_norm: float  # max of log(|psi| e^s) on the normalisation lattice; fixes the scale


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
    with np.errstate(over="ignore", invalid="ignore"):
        matrix.flat[:: n + 2] = (k * (k - 1.0) + (2.0 * sigma + 1.0 - 4.0 * s) * k
                                 + 2.0 * s * n + sigma**2 - 2.0 * s * delta)
        matrix.flat[n + 1 :: n + 2] = 2.0 * s * (n - k[1:] + 1.0)
        matrix.flat[1 :: n + 2] = (k[:-1] + 1.0) * (2.0 * k[:-1] + 1.0 + 4.0 * p1)
        products = matrix.diagonal(1) * matrix.diagonal(-1)
    # solve_levels takes sqrt(H[k, k+1] H[k+1, k]) for its Jacobi form.
    if not (np.isfinite(matrix).all() and np.isfinite(products).all()):
        raise InadmissibleParametersError(
            f"set {qes_set.set_index} with n = {n} has a pencil entry or a product "
            f"H[k, k+1] H[k+1, k] beyond float64 at s = {s!r}"
        )
    matrix.setflags(write=False)
    return SpectralPencil(matrix=matrix, qes_set=qes_set, params=params)


def _log_weight(qes_set: QesSet, s: float, z, log_z, log_z2):
    """ln w + s = -s z + p1 ln z + p2 ln(z + 2); z = 0 gives -inf when p1 > 0.
    w's constant exp(-s) is left out (normalising divides it out): at large s
    it would round away the -s z that w's shape depends on."""
    log_w = -s * z
    if qes_set.p1 > 0.0:
        log_w += qes_set.p1 * log_z
    if qes_set.p2 > 0.0:
        log_w += qes_set.p2 * log_z2
    return log_w


def _node_wall(s: float, lam: float) -> float:
    """alpha L = acosh(1 + z), z = z_e + u: every zero of the basis's q_n lies
    below z_e = 2 lam / s (Laguerre's bound for w^2, a polynomial of degree
    2 lam - 2 n - 1 times exp(-2 s z)), and z^lam exp(-s z) falls by e^-40
    from z_e to z, so the basis's integrands are past their tails, at any s."""
    z_e = 2.0 * lam / s
    u, previous = 40.0 / s, 0.0
    # Fixed-point iteration, rising monotonically with contraction z_e / (2 z) < 1/2.
    while u - previous > 1e-12 * u:
        previous, u = u, (40.0 + lam * math.log1p(u / z_e)) / s
    return 2.0 * math.asinh(math.sqrt(0.5 * (z_e + u)))


def _nodes(qes_set: QesSet, params: PotentialParams, mu_top: float):
    """z and ln w at the quadrature nodes of a set whose highest level has mu_top.

    alpha x_m = (m - 1/2) alpha L / M for m = 1..M, alpha L = _node_wall, with
    M = max(ceil(k_max L), ceil(alpha L / _NODE_STEP), _MIN_NODES) and k_max
    the top level's largest local wavenumber.  The midpoint rule's weights
    omega = h w^2 are ln w up to a constant, which _q_table normalises away.
    """
    lam, s = params.lam, params.s
    alpha_l = _node_wall(s, lam)
    # min V / alpha^2: -(lambda^2 + s^2) at cosh(alpha x) = lambda / s, if that is > 1.
    v_min = -(lam * lam + s * s) if lam > s else -2.0 * s * lam
    k_max_l = math.sqrt(max(-mu_top - v_min, 0.0)) * alpha_l
    count = max(math.ceil(k_max_l), math.ceil(alpha_l / _NODE_STEP), _MIN_NODES)
    if count * (qes_set.n + 1) > _MAX_TABLE_ENTRIES:
        raise InadmissibleParametersError(
            f"set {qes_set.set_index} with n = {qes_set.n} needs {count} quadrature "
            f"nodes at s = {s!r}; (n + 1) x nodes is limited to {_MAX_TABLE_ENTRIES}"
        )
    z, log_z, log_z2 = _z_terms((np.arange(count) + 0.5) * (alpha_l / count))
    return z, _log_weight(qes_set, s, z, log_z, log_z2)


def _z_terms(xi: np.ndarray):
    """z = 2 sinh(xi / 2)^2 = cosh(xi) - 1, ln z and ln(z + 2), read-only."""
    sh = np.sinh(0.5 * xi)
    z = 2.0 * sh * sh
    with np.errstate(divide="ignore"):
        terms = (z, np.log(z), np.log(z + 2.0))
    for table in terms:
        table.setflags(write=False)
    return terms


def _q_table(alpha, beta, z: np.ndarray, top: float, log_w=None):
    """(t, l) with q_k(z) = t[k] exp(l) for k = 0..n at the points 0 <= z <= top
    (1-D); where a new row passes _RESCALE, the point's rows are divided by it.

    Given ln w at the ascending nodes z, alpha and beta are filled in by the
    Stieltjes procedure on the midpoint rule's weights omega = exp(2 l) (unit
    mass), and row k holds q_k sqrt(omega); without reorthogonalisation it
    keeps the q_k orthonormal to round-off.
    """
    n, stieltjes = len(alpha), log_w is not None
    t = np.ones((n + 1, z.size))
    log_scale = log_w - log_w.max() if stieltjes else np.zeros(z.size)
    if stieltjes:
        weight = np.exp(2.0 * log_scale)
        total = float(weight.sum())
        log_scale -= 0.5 * math.log(total)  # weight = exp(2 l) after a rescale, too
        weight /= total
        z_weight = z * weight
    # bound >= max |t[k]|, so that the rows are searched only when one may
    # have passed _RESCALE.
    bound, b = 1.0, 0.0
    for k in range(n):
        a = float(np.dot(z_weight * t[k], t[k])) if stieltjes else alpha[k]
        row = t[k + 1]
        np.subtract(z, a, out=row)
        row *= t[k]
        if k:
            row -= b * t[k - 1]
        if stieltjes:
            alpha[k], beta[k] = a, math.sqrt(float(np.dot(weight * row, row)))
            if not 0.0 < beta[k] < math.inf:
                raise InvariantViolationError(f"the basis's quadrature cannot hold "
                                              f"q_{k + 1}: beta_{k + 1} = {float(beta[k])!r}")
        b_next = float(beta[k])
        row /= b_next
        bound *= max(1.0, (top + abs(a) + b) / b_next)
        b = b_next
        if bound > _RESCALE:
            big = np.abs(row) > _RESCALE
            t[: k + 2, big] /= _RESCALE
            log_scale[big] += _LOG_RESCALE
            if stieltjes:
                weight[big] = np.exp(2.0 * log_scale[big])
                z_weight[big] = z[big] * weight[big]
            bound = float(np.abs(t[k : k + 2]).max(initial=0.0))
    return t, log_scale


def _evaluate(coefficients, alpha, beta, z, log_w):
    """The one chunk loop of a set's rows: yields (part, P, l), psi = P exp(l)
    for each row of coefficients (rows x (n + 1)) at the points z[part], for
    z >= 0 (1-D) and ln w at z given; each chunk tables the q_k for at most
    _BLOCK_ENTRIES entries or one point.  Where psi has no value in float64
    (the table overflows, or ln w is NaN at z = inf), P is 0 and l -inf.
    The caller sets np.errstate: overflow and invalid arise by design.
    """
    top = float(z.max(initial=0.0))
    step = max(1, _BLOCK_ENTRIES // (len(alpha) + 1))
    for start in range(0, z.size, step):
        part = slice(start, start + step)
        t, log_scale = _q_table(alpha, beta, z[part], top)
        poly = coefficients @ t
        log_scale += log_w[part]
        # An overflowed entry leaves every later row non-finite.
        bad = ~np.isfinite(t[-1]) | np.isnan(log_scale)
        if bad.any():
            poly[:, bad] = 0.0
            log_scale[bad] = -np.inf
        yield part, poly, log_scale


def _basis_and_vectors(h: np.ndarray, qes_set: QesSet, params: PotentialParams,
                       mus: np.ndarray):
    """The set's alpha and beta, and the levels' coefficients (a row per level).

    With S_k = alpha_0 + ... + alpha_(k-1) and H[k+1, k] = 2 s (n - k),
    A[k, k] = H[k, k] - S_k H[k, k-1] + S_(k+1) H[k+1, k] and
    A[k+1, k] = H[k+1, k] beta_(k+1): compare the z^(k+1) and z^k
    coefficients of L pi_k for the monic pi_k = z^k - S_k z^(k-1) + ...
    sturm_signs checks that level j has j sign changes on the nodes, and its
    signs give the sign of a monic P: positive beyond its outermost zero.
    """
    n, index = qes_set.n, qes_set.set_index
    z, log_w = _nodes(qes_set, params, float(mus[-1]))
    # In z / c, c a power of two near the wall's z: exact, and z q_k^2 stays finite.
    c = math.ldexp(1.0, math.frexp(float(z[-1]))[1])
    alpha, beta = np.empty(n), np.empty(n)
    t, log_scale = _q_table(alpha, beta, z / c, float(z[-1]) / c, log_w)
    alpha, beta = alpha * c, beta * c
    sub = h.diagonal(-1)
    shift = np.cumsum(alpha) * sub
    diagonal = h.diagonal().copy()
    diagonal[:-1] += shift
    diagonal[1:] -= shift
    a = np.diag(diagonal)
    a.flat[n + 1 :: n + 2] = sub * beta  # eigh reads the lower triangle
    values, vectors = np.linalg.eigh(a)
    values, vectors = values[::-1], vectors[:, ::-1]
    miss = float(np.max(np.abs(values - mus)))
    if not miss <= _MU_TOLERANCE * max(1.0, abs(float(mus[0])), abs(float(mus[-1]))):
        raise InvariantViolationError(
            f"the basis of set {index} with n = {n} reproduces its energies' mu "
            f"only to {miss:.3g}"
        )
    # sqrt(omega) P_j at the nodes, a row per level.
    signs = sturm_signs((vectors.T @ t) * np.exp(log_scale), lambda j, changes: (
        f"Sturm ordering violated: level {j} of set {index} has "
        f"{qes_set.node_count(changes)} nodes"))
    vectors *= signs[np.arange(n + 1), len(z) - 1 - np.abs(signs[:, ::-1]).argmax(axis=1)]
    return alpha, beta, vectors.T


def sign_changes(table: np.ndarray):
    """The node rule for each row of a 2-D table: (signs, changes), the signs
    0 below 1e-12 of the row's peak, and the strict sign changes of the rest.
    A non-finite, all-zero or empty row raises DegenerateVectorError."""
    magnitude = np.abs(table)
    peaks = magnitude.max(axis=1, initial=0.0)
    if not np.isfinite(peaks).all():
        raise DegenerateVectorError("non-finite vector has no node count")
    if not (peaks > 0.0).all():
        raise DegenerateVectorError("all-zero vector has no node count")
    signs = np.sign(table)
    signs[magnitude < 1e-12 * peaks[:, None]] = 0.0
    kept = signs != 0.0
    row = np.nonzero(kept)[0]
    kept_signs = signs[kept]
    # The kept entries, row after row, each with its row's index: a change
    # is a flip between neighbours of the same row.
    flips = (kept_signs[1:] != kept_signs[:-1]) & (row[1:] == row[:-1])
    return signs, np.bincount(row[1:][flips], minlength=len(kept))


def sturm_signs(table: np.ndarray, message) -> np.ndarray:
    """sign_changes' signs once row j of the table changes sign j times (Sturm
    oscillation); else InvariantViolationError(message(j, changes)) for the
    first row j that does not."""
    signs, changes = sign_changes(table)
    wrong = np.flatnonzero(changes != np.arange(len(changes)))
    if wrong.size:
        j = int(wrong[0])
        raise InvariantViolationError(message(j, int(changes[j])))
    return signs


def solve_levels(pencil: SpectralPencil, params: PotentialParams) -> list[QesLevel]:
    """Energies, basis coefficients and node counts for one set, sorted by energy.

    The energies are the eigenvalues mu of H's symmetric Jacobi form (H's
    diagonal, both off-diagonals sqrt(H[k, k+1] H[k+1, k])), E = -alpha^2 mu.
    For n >= 1 the coefficients are the eigenvectors of the set's matrix A
    in its orthonormal basis.  Raises InadmissibleParametersError unless
    params is the working point the pencil was built at, and
    InvariantViolationError when eig(A) misses mu, or when level j does not
    change sign j times on the nodes.
    """
    if params != pencil.params:
        raise InadmissibleParametersError("pencil was built for different parameters")
    h = pencil.matrix
    qes_set = pencil.qes_set
    off = np.sqrt(h.diagonal(1) * h.diagonal(-1))
    jacobi = h.copy()
    jacobi.flat[1 :: len(h) + 1] = off
    jacobi.flat[len(h) :: len(h) + 1] = off
    # eigh sorts mu ascending, and E = -alpha^2 mu: level j has mus[j].
    mus = np.linalg.eigh(jacobi)[0][::-1]
    params.scaled("E = -alpha^2 mu", (-mus).tolist(), 2)
    if qes_set.n == 0:
        alpha = beta = np.empty(0)
        coefficients = np.ones((1, 1))
    else:
        alpha, beta, coefficients = _basis_and_vectors(h, qes_set, params, mus)
    coefficients.setflags(write=False)
    basis = OrthonormalBasis(tuple(alpha.tolist()), tuple(beta.tolist()))
    table = _SetTable(pencil, mus.tolist(), basis, coefficients)
    return [QesLevel(mu, qes_set, params, j, table) for j, mu in enumerate(table.mus)]


def solve_classification(
    params: PotentialParams, classification: QesClassification
) -> list[QesLevel]:
    """Solve every set in the classification; all levels sorted by energy."""
    levels: list[QesLevel] = []
    for qes_set in classification.sets:
        levels.extend(solve_levels(build_pencil(qes_set, params), params))
    # Tunnelling doublets can be degenerate below roundoff: order by
    # E / alpha^2 = -mu to 12 significant digits, then by set, at every alpha.
    levels.sort(key=lambda lvl: (float("%.12g" % -lvl.mu), lvl.qes_set.set_index))
    return levels


@functools.lru_cache(maxsize=8)
def _grid_terms(count: int, unit: float):
    """_z_terms at the first count points of the normalisation lattice alpha x_k = 0.005 u k."""
    return _z_terms(np.arange(count) * (0.005 * unit))


def _require_own_params(level: QesLevel, params: PotentialParams) -> None:
    if params != level.params:
        raise InadmissibleParametersError("level was solved for different parameters")


def wavefunction(level: QesLevel, params: PotentialParams) -> ClosedFormWavefunction:
    """Closed form for one solved level; max|psi| = 1 on _SetTable.log_norm's lattice.

    params must be the level's own working point.
    """
    _require_own_params(level, params)
    return ClosedFormWavefunction(level, level.set_table.log_norm(level.row))


def evaluate_wavefunction(wf: ClosedFormWavefunction, x):
    """psi(x), max-normalized; underflow-safe (extreme |x| returns 0)."""
    poly, log_scale = wf.level.set_table.closed_form(wf.level.row, np.asarray(x, dtype=float))
    value = poly * np.exp(log_scale - wf.log_norm)
    if value.ndim == 0:
        return float(value)
    return value


@contextmanager
def _overflow_names(x: float):
    """Raise one ValueError that names x where float64 overflows."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise ValueError(f"the closed form overflows float64 at x = {x!r}") from None


def _log_derivative_pieces(level: QesLevel, x: float):
    """(ln phi)' and (ln phi)'' in xi = alpha x, as numpy scalars; raises at QMF poles."""
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    xi = level.params.alpha * x
    p1, p2 = level.qes_set.p1, level.qes_set.p2
    c, alpha, beta = level.basis_coefficients, level.basis.alpha, level.basis.beta
    with _overflow_names(x):
        # cosh(xi) - 1 without cancellation, as a numpy scalar to obey errstate.
        z = 2.0 * np.float64(math.sinh(0.5 * xi)) ** 2
        # P = sum c_k q_k in the basis, whose roundoff scale is sum |c_k q_k|.
        p, dp, ddp, scale = _series(float(z), c, c, alpha, beta, (0.0,) + beta[:-1])
        if not all(map(math.isfinite, (p, dp, ddp, scale))):
            raise OverflowError
        if not abs(p) >= 1e-12 * scale:
            # Far below the level's peak (a central barrier) P is round-off
            # in the basis, but its series at z = 0 can hold it.
            p, dp, ddp, scale = _frobenius(level, float(z))
            if not (math.isfinite(scale) and abs(p) >= 1e-12 * scale):
                raise QmfPoleError(f"moving pole: P(y) = 0 at x = {x!r}")
        p, dp, ddp = np.float64(p), np.float64(dp), np.float64(ddp)
        if p1 > 0.0 and xi == 0.0:
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
        sh = np.float64(math.sinh(xi))
        return sh * m, (1.0 + z) * m + sh**2 * dm


def _series(z: float, c, m, a, b, g):
    """sum c_k q_k(z), its first two derivatives in z and sum |m_k q_k(z)| for
    q_0 = 1, b_k q_(k+1) = (z - a_k) q_k - g_k q_(k-1), by the differentiated
    recurrence in plain floats."""
    q, dq, ddq, q_, dq_, ddq_ = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0
    p, dp, ddp, scale = c[0], 0.0, 0.0, abs(m[0])
    for k, (ak, bk, gk) in enumerate(zip(a, b, g)):
        q, q_, dq, dq_, ddq, ddq_ = (
            ((z - ak) * q - gk * q_) / bk, q,
            ((z - ak) * dq + q - gk * dq_) / bk, dq,
            ((z - ak) * ddq + 2.0 * dq - gk * ddq_) / bk, ddq,
        )
        p += c[k + 1] * q
        dp += c[k + 1] * dq
        ddp += c[k + 1] * ddq
        scale += abs(m[k + 1] * q)
    return p, dp, ddp, scale


def _frobenius(level: QesLevel, z: float):
    """_series for P scaled to P(0) = 1 in monomials, its coefficients a_k from
    the rows of (H - mu) a = 0 with a_0 = 1, and m_k >= |a_k| bounding their
    propagated round-off in place of c_k in the scale."""
    table = level.set_table
    h, mu = table.pencil.matrix, table.mus[level.row]
    d, u, l = h.diagonal().tolist(), h.diagonal(1).tolist(), [0.0] + h.diagonal(-1).tolist()
    a, m = [1.0], [1.0]
    for k in range(len(u)):  # l[0] = 0: a[-1] and m[-1] drop out
        a.append(((mu - d[k]) * a[k] - l[k] * a[k - 1]) / u[k])
        m.append(((abs(mu) + abs(d[k])) * m[k] + l[k] * m[k - 1]) / u[k])
    return _series(z, a, m, [0.0] * len(u), [1.0] * len(u), [0.0] * len(u))


def quantum_momentum(wf: ClosedFormWavefunction, x: float) -> complex:
    """p(x) = -i psi'/psi; purely imaginary for the real closed form."""
    big_l, _ = _log_derivative_pieces(wf.level, x)
    with _overflow_names(x):
        return complex(0.0, -wf.level.params.alpha * big_l)


def quantum_momentum_derivative(wf: ClosedFormWavefunction, x: float) -> complex:
    """dp/dx from the analytic closed form (no finite differences)."""
    _, big_lp = _log_derivative_pieces(wf.level, x)
    alpha = wf.level.params.alpha
    with _overflow_names(x):
        return complex(0.0, -alpha * alpha * big_lp)


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
        return float(params.alpha * params.alpha * (-big_l * big_l - big_lp) - (energy - v))


def schrodinger_residual(
    wf: ClosedFormWavefunction, energy: float, params: PotentialParams, x: float
) -> float:
    """(-psi'' + V psi - E psi)(x): the QHJ residual times psi."""
    return qhj_residual(wf, energy, params, x) * evaluate_wavefunction(wf, x)


class _SetTable:
    """A solved set, the one owner of its levels' pencil, mus, basis and coefficients
    (a row per level), with results computed for all its rows at once on first use.

    Level j is row j; a row's failure is kept as its message and raised only
    for its own level.
    """

    def __init__(self, pencil: SpectralPencil, mus, basis: OrthonormalBasis, coefficients):
        self.pencil = pencil
        self.mus = mus
        self.basis = basis
        self.coefficients = coefficients
        self._log_norms = None
        self._block = None

    def closed_form(self, row: int, x: np.ndarray):
        """(P, l), psi e^s = P exp(l) unnormalized, for level row at the finite points x.

        Every row of the set is evaluated in one pass (an odd level takes the
        sign of x), or only this one where rows x points would pass
        _MAX_TABLE_ENTRIES.  The block is kept, read-only, with a private copy
        of x, until each of its rows has been read; the set's other levels
        read their rows from it while x is unchanged bit for bit.
        """
        block = self._block
        if block is None or not (block[0].start <= row < block[0].stop
                                 and block[1] == (x.shape, x.tobytes())):
            if not np.isfinite(x).all():
                raise ValueError("x must be finite")
            count = len(self.mus)
            rows = slice(0, count) if count * x.size <= _MAX_TABLE_ENTRIES else slice(row, row + 1)
            poly, log_scale = np.empty((rows.stop - rows.start, x.size)), np.empty(x.size)
            with np.errstate(over="ignore", invalid="ignore"):
                z_terms = _z_terms(self.pencil.params.alpha * x.ravel())
                for part, chunk, chunk_scale in self._psi(rows, *z_terms):
                    poly[:, part], log_scale[part] = chunk, chunk_scale
            if self.pencil.qes_set.p1 > 0.0:
                poly *= np.sign(x.ravel())
            poly = poly.reshape(poly.shape[:1] + x.shape)
            log_scale = log_scale.reshape(x.shape)
            poly.setflags(write=False)
            log_scale.setflags(write=False)
            unread = set(range(rows.start, rows.stop))
            # A block of one row is never kept, so x is not copied for it.
            key = (x.shape, x.tobytes()) if len(unread) > 1 else None
            block = (rows, key, poly, log_scale, unread)
        rows, _, poly, log_scale, unread = block
        unread.discard(row)
        self._block = block if unread else None
        return poly[row - rows.start], log_scale

    def log_norm(self, row: int) -> float:
        """Level row's log_norm: the max of log(|psi| e^s) on the lattice
        alpha x_k = 0.005 u k, u = params.well_unit = min(1, 10 / sqrt(s)).

        The well is about 1 / sqrt(s) wide in alpha x, so for s > 100 the unit
        u shrinks with it; for s <= 100 the lattice is alpha x_k = 0.005 k.
        |psi| is even in x and has no interior maximum where V > E, so a
        level's peak lies inside its outer turning point y_t = cosh(alpha x_t):
        V / alpha^2 = s^2 y^2 - 2 s lam y - s^2 meets E / alpha^2 = -mu at
        y_t = (lam + sqrt(lam^2 + s^2 - mu)) / s, taken with every term over s
        where s^2 overflows.  The first call scans every row once, out to the
        farther of alpha x = 5 u and the set's farthest y_t, all rows together,
        reducing _evaluate's chunks to a running maximum; past its own y_t a
        row's |psi| only falls, so each row's maximum is the one on its own range.
        """
        if self._log_norms is None:
            params = self.pencil.params
            lam, s, unit = params.lam, params.s, params.well_unit
            # y_t's terms over c: c = s where s^2 overflows, else 1 (the same bits).
            c = 1.0 if math.isfinite(s * s) else s
            lam_c, s_c = lam / c, s / c
            # (lam^2 + s^2 - mu) / c^2 per row; negative or NaN has no y_t.
            spreads = [lam_c * lam_c + s_c * s_c - mu / c / c for mu in self.mus]
            y_turn = max([(lam_c + math.sqrt(d)) / s_c for d in spreads if d >= 0.0], default=1.0)
            # Past y = float max, z overflows and psi has no value.
            x_turn = math.acosh(min(y_turn, sys.float_info.max))
            count = math.ceil(200.0 * max(5.0, x_turn / unit)) + 1
            maxima = np.full(len(spreads), -np.inf)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                for _, poly, log_scale in self._psi(slice(None), *_grid_terms(count, unit)):
                    log_abs = np.log(np.abs(poly))
                    log_abs += log_scale
                    np.maximum(maxima, log_abs.max(axis=1), out=maxima)
            self._log_norms = [
                f"E = -alpha^2 mu at mu = {mu!r} lies below the minimum of V" if not d >= 0.0
                else value if value > -math.inf
                else "the closed form has no finite value on its lattice"
                for value, d, mu in zip(maxima.tolist(), spreads, self.mus)]
        if isinstance(self._log_norms[row], str):
            raise InvariantViolationError(self._log_norms[row])
        return self._log_norms[row]

    def _psi(self, rows, z, log_z, log_z2):
        """_evaluate's chunks for the given rows at the points z, with their ln z and ln(z + 2)."""
        return _evaluate(self.coefficients[rows], self.basis.alpha, self.basis.beta, z,
                         _log_weight(self.pencil.qes_set, self.pencil.params.s, z, log_z, log_z2))


def count_moving_poles(level: QesLevel) -> int:
    """Number of P_n zeros in z > 0: level j of its set has j sign changes on
    the set's quadrature nodes, which solve_levels checked."""
    return level.row


def moving_pole_contour_value(level: QesLevel) -> complex:
    """count_moving_poles as a complex number, for callers of the former
    argument-principle count; it integrates nothing, so it has no drift."""
    return complex(count_moving_poles(level))


# Published energy rows, by (table, set): n and the printed E / alpha^2 in
# s = sqrt(V1)/alpha.  Each set's n fixes V2 = -2 sqrt(V1) alpha (b1 + b1' + n).
PRINTED_ENERGIES = {
    ("3.2", 1): (1, lambda s: -0.25 + s),
    ("3.2", 2): (0, lambda s: -1.0),
    ("3.3", 3): (0, lambda s: -0.25 - s),
    # The published set-4 row duplicates the set-3 value.
    ("3.3", 4): (0, lambda s: -0.25 - s),
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


def _energy_row(table: str, set_index: int, n: int, printed, v1: float, alpha: float) -> dict:
    """One printed energy, E / alpha^2 = printed(s), against its set's levels' -mu."""
    qes_set = QesSet(set_index, n)
    params = PotentialParams.from_lambda(v1, qes_set.lam, alpha)
    levels = solve_levels(build_pencil(qes_set, params), params)
    eps = printed(params.s)
    matches = any(abs(eps + lvl.mu) <= 1e-9 * max(1.0, abs(lvl.mu)) for lvl in levels)
    return {
        "table": table,
        "set": set_index,
        "quantity": "energy",
        "printed": params.scaled("the printed E", [eps], 2)[0],
        "computed": [lvl.energy for lvl in levels],
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
            _energy_row(table, index, n, printed, v1, alpha)
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
