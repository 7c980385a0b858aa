"""Generalized Sinh-Gordon potential: parameters, evaluation, symmetry classification.

The real family is V(x) = V1 sinh^2(alpha x) + V2 cosh(alpha x) with hbar = 2m = 1.
Two complex variants (with the frequency fixed at 2) attach a factor i to either
the cosh or the sinh^2 coefficient.  One table row per variant holds these facts.
The real variant's lambda, all the QES condition reads, is owned by the working
point: PotentialParams derives it from V2, or keeps it exactly (from_lambda).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePotentialError, InadmissibleParametersError, UnsupportedBranchError

# The complex variants are defined with this fixed inverse-length scale.
COMPLEX_VARIANT_ALPHA = 2.0


class Variant(Enum):
    """Which member of the potential family is meant."""

    REAL_SINH_GORDON = "real"
    IMAG_COSH = "i-cosh"
    IMAG_SINH = "i-sinh"


@dataclass(frozen=True)
class PotentialParams:
    """The triple (V1, V2, alpha) and its lambda; the single source of physical truth.

    alpha is normalized positive at construction (the potential only depends
    on it through even combinations).  v1 > 0 is required for the QES
    analysis and lam but not for mere evaluation.  lam is one float, set
    once: derived from the V2 given, or given to from_lambda, which derives
    the V2 stored (and printed) from it.  It is not a field: equality, hash,
    repr and asdict cover the potential (v1, v2, alpha); replace re-derives it.
    """

    v1: float
    v2: float
    alpha: float = 1.0

    def __post_init__(self):
        for name in ("v1", "v2", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.alpha == 0.0:
            raise ValueError("alpha must be nonzero")
        object.__setattr__(self, "alpha", abs(float(self.alpha)))
        object.__setattr__(self, "v1", float(self.v1))
        object.__setattr__(self, "v2", float(self.v2))
        try:  # NaN where the pole analysis has no lambda; reading lam raises
            lam = _lambda(_REAL, self).real if self.v1 > 0.0 else math.nan
        except DegeneratePotentialError:
            lam = math.nan
        object.__setattr__(self, "_lam", lam)

    @classmethod
    def from_lambda(cls, v1: float, lam: float, alpha: float = 1.0) -> PotentialParams:
        """The working point whose lam is exactly lam, at V2 = -2 sqrt(V1) alpha lam."""
        _require_positive_v1(v1)
        v2 = -2.0 * math.sqrt(v1) * abs(alpha) * lam
        if not math.isfinite(v2):
            raise ValueError(f"V2 = {v2!r} overflows float64 at this working point")
        params = cls(v1, v2, alpha)
        if not math.isnan(params._lam):  # else 2 sqrt(V1) alpha underflowed: V2 fixes none
            object.__setattr__(params, "_lam", float(lam))
        return params

    @property
    def lam(self) -> float:
        """The real variant's lambda, the 1/y coefficient of chi at infinity."""
        if math.isnan(self._lam):
            _require_positive_v1(self.v1)
            _lambda(_REAL, self)  # raises: 2 sqrt(V1) alpha underflows to 0
        return self._lam

    @property
    def s(self) -> float:
        """sqrt(V1)/alpha, the dimensionless well-strength parameter."""
        if self.v1 <= 0.0:
            raise DegeneratePotentialError(
                f"s = sqrt(V1)/alpha needs V1 > 0, got V1 = {self.v1}"
            )
        return math.sqrt(self.v1) / self.alpha

    @property
    def well_unit(self) -> float:
        """u = min(1, 10 / sqrt(s)), a length in xi = alpha x that follows the
        well, about 1 / sqrt(s) wide: 1 for s <= 100, then shrinking with it."""
        return min(1.0, 10.0 / math.sqrt(self.s))

    def scaled(self, name: str, reduced: list[float], power: int) -> list[float]:
        """The (s, lambda) core's values, Python floats, in units: energies
        (power 2, E = alpha^2 eps) or lengths (power -1, x = xi / alpha).  One
        that leaves float64 raises InadmissibleParametersError naming it."""
        a = self.alpha
        values = [v * a * a for v in reduced] if power == 2 else [v / a for v in reduced]
        if not all(map(math.isfinite, values)):
            raise InadmissibleParametersError(f"{name} overflows float64 at alpha = {a!r}")
        return values


def _require_positive_v1(v1: float) -> None:
    if v1 <= 0.0:
        raise UnsupportedBranchError(f"the pole analysis needs V1 > 0, got V1 = {v1}")


@dataclass(frozen=True)
class SymmetryReport:
    """PT classification of one variant plus its infinity exponent."""

    variant: Variant
    pt_symmetric: bool
    lambda_value: complex
    lambda_candidates: tuple[complex, complex]
    physical_qes_possible: bool
    note: str


class _Row(NamedTuple):
    """One variant: V = c1 V1 sinh^2(a x) + c2 V2 cosh(a x)."""

    c1: complex
    c2: complex
    alpha: float | None  # the frequency a; None reads the params' own alpha
    pt_symmetric: bool
    note: str


_VARIANTS = {
    Variant.REAL_SINH_GORDON: _Row(
        1.0, 1.0, None, True,
        "real coefficients: PT symmetric; QES possible when lambda > 0",
    ),
    Variant.IMAG_COSH: _Row(
        1.0, 1j, COMPLEX_VARIANT_ALPHA, True,
        "imaginary cosh coefficient: PT symmetric under the shifted "
        "reflection, but the infinity exponent is imaginary, so no "
        "physical bound-state branch exists",
    ),
    Variant.IMAG_SINH: _Row(
        1j, 1.0, COMPLEX_VARIANT_ALPHA, False,
        "imaginary sinh^2 coefficient: not PT symmetric; the infinity "
        "exponent is complex, so no physical bound-state branch exists",
    ),
}
_REAL = _VARIANTS[Variant.REAL_SINH_GORDON]


def evaluate_potential(params: PotentialParams, variant: Variant, x):
    """Evaluate the chosen variant at x (scalar or array); always complex-valued.

    The real variant returns values with imaginary part exactly zero.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    row = _VARIANTS[variant]
    a = row.alpha or params.alpha
    value = row.c1 * params.v1 * np.sinh(a * x) ** 2 + row.c2 * params.v2 * np.cosh(a * x)
    value = np.asarray(value, dtype=complex)
    return complex(value) if value.ndim == 0 else value


def _lambda(row: _Row, params: PotentialParams) -> complex:
    """lambda = -c2 V2 / (2 a sqrt(c1 V1)), with the variant's coefficients c1,
    c2 and frequency a.  For V1 > 0, cmath.sqrt has math.sqrt's bits."""
    a = row.alpha or params.alpha
    denominator = 2.0 * cmath.sqrt(row.c1 * params.v1) * a
    if denominator == 0.0:
        raise DegeneratePotentialError(
            f"2 sqrt(V1) alpha underflows to 0 at V1 = {params.v1!r}, alpha = {a!r}"
        )
    return -row.c2 * params.v2 / denominator


def classify_symmetry(params: PotentialParams, variant: Variant) -> SymmetryReport:
    """PT classification plus the infinity exponent lambda for one variant.

    Matching the large-y expansion of the transformed Riccati equation on the
    normalizable branch a0 = -sqrt(c1 V1)/a gives _lambda's expression.  The
    real variant at V1 > 0 reads the working point's own lam.
    """
    if params.v1 == 0.0:
        raise DegeneratePotentialError(
            "V1 = 0: no sinh^2 term, the fixed-pole structure degenerates"
        )
    row = _VARIANTS[variant]
    lam = complex(params.lam) if row is _REAL and params.v1 > 0.0 else _lambda(row, params)
    return SymmetryReport(
        variant=variant,
        pt_symmetric=row.pt_symmetric,
        lambda_value=lam,
        lambda_candidates=(lam, -lam),
        physical_qes_possible=lam.imag == 0.0 and lam.real > 0.0,
        note=row.note,
    )
