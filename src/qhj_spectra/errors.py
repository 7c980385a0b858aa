"""Exception hierarchy shared across the package."""


class QhjSpectraError(Exception):
    """Base class for all errors raised by this package."""


class DegeneratePotentialError(QhjSpectraError):
    """V1 = 0: the sinh^2 term is absent and the pole structure degenerates."""


class UnsupportedBranchError(QhjSpectraError):
    """V1 <= 0: the indicial analysis at infinity needs a real sqrt(V1)."""


class ComplexResidueError(QhjSpectraError):
    """The indicial quadratic has complex roots (non-QES pole structure)."""


class InadmissibleParametersError(QhjSpectraError):
    """Parameters violate the QES admissibility condition for a chosen set,
    or put V beyond float64 at the oracle's wall."""


class InvariantViolationError(QhjSpectraError):
    """A computed quantity broke an invariant; the base of every internal failure."""


class QmfPoleError(QhjSpectraError):
    """The quantum momentum function was evaluated at one of its poles."""


class DegenerateVectorError(InvariantViolationError):
    """A grid vector is identically zero up to noise; node counting undefined."""
