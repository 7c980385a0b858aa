"""Pole analysis of the transformed Riccati equation.

After the change of variable y = cosh(alpha x) and the usual logarithmic-
derivative substitutions, the bound-state problem becomes

    chi'(y) + chi(y)^2 + G(y) = 0,

where G carries two fixed double poles at y = +1 and y = -1 and a part linear
in eps = E / alpha^2; the potential enters only through the working point's
s and lambda.  This module extracts the exact fixed-pole residues and the
constant and 1/y coefficients of chi at infinity, and alone knows the QES
condition: a set, its Table 3.1 index (fixing b1, b1' in {1/4, 3/4}) and
degree n, is admitted when lambda = b1 + b1' + n, i.e. M = 2 lambda = 2n + k
with k = 2 (b1 + b1'), for the working point's own lambda, PotentialParams.lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ComplexResidueError
from .potential import PotentialParams, _require_positive_v1

# How far lambda may sit from b1 + b1' + n (M from 2n + k: twice this).
INTEGER_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RiccatiFixedTerm:
    """The fixed term G(y; eps), evaluable at complex y != +-1, in eps = E / alpha^2.

    G(y; eps) = (y^2 + 2) / (4 (y^2 - 1)^2)
                + (eps - s^2 y^2 + 2 s lambda y + s^2) / (y^2 - 1);

    its second term is the paper's (E - V1 y^2 - V2 y + V1) / (alpha^2 (y^2 - 1)).
    """

    s: float
    lam: float

    def evaluate(self, y, eps):
        q, s = y * y - 1.0, self.s
        return (y * y + 2.0) / (4.0 * q * q) + (eps - s * s * q + 2.0 * s * self.lam * y) / q

    @staticmethod
    def double_pole_coefficient(location: int) -> Fraction:
        """Exact coefficient of 1/(y - location)^2; equals 3/16 at both poles.

        Only the first term of G contributes (the second has simple poles),
        so the value is independent of eps, s and lambda.
        """
        if location not in (1, -1):
            raise ValueError(f"fixed poles sit at y = +-1, got {location}")
        return Fraction(location * location + 2, 4 * (2 * location) ** 2)


@dataclass(frozen=True)
class FixedPoleAnalysis:
    """Residue data at one fixed pole y0 in {+1, -1}."""

    location: int
    residues: tuple[Fraction, Fraction]
    double_pole_coefficient: Fraction
    # Constant Laurent coefficient candidates +-s = +-sqrt(V1)/alpha (sign
    # fixed only by the behavior at infinity).
    a0_candidates: tuple[float, float]


@dataclass(frozen=True)
class InfinityAnalysis:
    """Constant and 1/y coefficients of chi at large y."""

    c_candidates: tuple[float, float]
    c_physical: float
    lam: float
    m_paper: float


@dataclass(frozen=True)
class QesSet:
    """One QES set: its index in Table 3.1 and its polynomial degree n.

    The index fixes b1, b1', p1 = b1 - 1/4, p2 = b1' - 1/4 and the parity (odd
    when b1 = 3/4); lam = b1 + b1' + n is the lambda that admits the set.  All
    are plain fields, set once here.  Equality, hash and repr cover (set_index, n).
    """

    set_index: int
    n: int
    b1: Fraction = field(init=False, repr=False, compare=False)
    b1_prime: Fraction = field(init=False, repr=False, compare=False)
    p1: float = field(init=False, repr=False, compare=False)
    p2: float = field(init=False, repr=False, compare=False)
    parity: str = field(init=False, repr=False, compare=False)
    lam: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        derived, k = _SET_CONSTANTS[self.set_index]  # KeyError for an unknown index
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"n must be a non-negative int, got {self.n!r}")
        # As dataclass does when frozen (a __dict__ update slows later reads).
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "lam", (2 * self.n + k) / 2)

    def node_count(self, sign_changes: int) -> int:
        """Nodes on the line of a level with sign_changes on x > 0, mirrored (+1 at 0 if odd)."""
        return 2 * sign_changes + (1 if self.parity == "odd" else 0)


@dataclass(frozen=True)
class QesClassification:
    """All admissible sets for a given infinity exponent."""

    lam: float
    sets: tuple[QesSet, ...]

    @property
    def total_levels(self) -> int:
        return sum(q.n + 1 for q in self.sets)


def riccati_fixed_term(params: PotentialParams) -> RiccatiFixedTerm:
    """Build G(y; eps) for the real variant at params' (s, lambda); requires V1 > 0."""
    _require_positive_v1(params.v1)
    return RiccatiFixedTerm(s=params.s, lam=params.lam)


def _exact_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def indicial_residues(coefficient):
    """Both roots of b^2 - b + coefficient = 0, ascending.

    Exact Fractions when the coefficient is rational and the discriminant is
    a perfect rational square, floats otherwise.
    """
    exact = isinstance(coefficient, (Fraction, int))
    c = Fraction(coefficient) if exact else float(coefficient)
    disc = 1 - 4 * c
    if disc < 0:
        raise ComplexResidueError(f"discriminant 1 - 4*{c} < 0: complex residues")
    root = _exact_sqrt(disc) if exact else None
    if root is None:
        root = math.sqrt(disc)
    return ((1 - root) / 2, (1 + root) / 2)


# The indicial roots (low, high) = (1/4, 3/4) at y = +1 (b1) and y = -1 (b1').
(_B1_LOW, _B1_HIGH), (_B1P_LOW, _B1P_HIGH) = (
    indicial_residues(RiccatiFixedTerm.double_pole_coefficient(y)) for y in (1, -1)
)
# Residue pair (b1, b1') per set index: the four pairings of the roots.  Set 3
# is the even member of sets 3/4 (b1 = 1/4), consistent with their closed-form
# energies -alpha^2/4 -/+ alpha sqrt(V1).
SET_RESIDUES: dict[int, tuple[Fraction, Fraction]] = {
    1: (_B1_LOW, _B1P_LOW), 2: (_B1_HIGH, _B1P_HIGH),
    3: (_B1_LOW, _B1P_HIGH), 4: (_B1_HIGH, _B1P_LOW),
}
# Per set: the fields its index fixes, and k = 2 (b1 + b1') = M - 2n.
_SET_CONSTANTS = {
    index: (dict(b1=b1, b1_prime=b1p, p1=float(b1 - _B1_LOW), p2=float(b1p - _B1P_LOW),
                 parity="odd" if b1 == _B1_HIGH else "even"), int(2 * (b1 + b1p)))
    for index, (b1, b1p) in SET_RESIDUES.items()
}


def fixed_pole_analysis(term: RiccatiFixedTerm, location: int) -> FixedPoleAnalysis:
    """Exact residues {1/4, 3/4} at the fixed pole y = location."""
    g2 = term.double_pole_coefficient(location)
    residues = indicial_residues(g2)
    return FixedPoleAnalysis(
        location=location,
        residues=residues,
        double_pole_coefficient=g2,
        a0_candidates=(term.s, -term.s),
    )


def infinity_analysis(params: PotentialParams) -> InfinityAnalysis:
    """Match chi = a0 + lam/y + ... at large y.

    Order 1 gives a0 = +-sqrt(V1)/alpha; on the normalizable branch a0 = C =
    -sqrt(V1)/alpha the 1/y order gives lam = -V2 / (2 sqrt(V1) alpha), the
    working point's own params.lam.  lam > 0 (hence QES) requires V2 < 0.
    """
    lam = params.lam
    s = params.s
    return InfinityAnalysis(
        c_candidates=(s, -s),
        c_physical=-s,
        lam=lam,
        m_paper=2.0 * lam,
    )


def enumerate_qes_sets(lam: float) -> QesClassification:
    """Admit each set whose M = 2 lam is within 2 INTEGER_TOLERANCE of 2n + k, n >= 0.

    Half-odd lam admits sets 1 and 2, integer lam admits sets 3 and 4;
    anything else yields an empty classification.  modf splits M = 2 whole +
    frac exactly, even where 2 lam overflows; the 2n + k nearest M is
    2 whole + j, j = 1 for odd k and 0 or 2 for even k.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    half, whole = math.modf(lam)
    frac, whole = 2.0 * half, int(whole)
    sets = []
    for index, (_, k) in _SET_CONSTANTS.items():
        j = 1 if k % 2 else (0 if frac < 1.0 else 2)
        n = whole + (j - k) // 2
        if n >= 0 and abs(frac - j) <= 2.0 * INTEGER_TOLERANCE:
            sets.append(QesSet(index, n))
    return QesClassification(lam=lam, sets=tuple(sets))
