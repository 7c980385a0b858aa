"""Quasi-exactly-solvable spectra of the generalized Sinh-Gordon potential.

Analytic route: residue analysis of the transformed Riccati equation, a
finite secular pencil for the polynomial part, and closed-form
wavefunctions.  Numerical route: an independent sinc-DVR Schrodinger
eigensolver that adjudicates every analytic result.
"""

from .errors import (
    ComplexResidueError,
    DegeneratePotentialError,
    DegenerateVectorError,
    InadmissibleParametersError,
    InvariantViolationError,
    QhjSpectraError,
    QmfPoleError,
    UnsupportedBranchError,
)
from .oracle import (
    GridSpec,
    NumericSpectrum,
    VerificationReport,
    default_grid,
    lowest_eigenvalues,
    node_count,
    verify_qes,
)
from .potential import (
    PotentialParams,
    SymmetryReport,
    Variant,
    classify_symmetry,
    evaluate_potential,
)
from .qhj import (
    FixedPoleAnalysis,
    InfinityAnalysis,
    QesClassification,
    QesSet,
    RiccatiFixedTerm,
    SET_RESIDUES,
    enumerate_qes_sets,
    fixed_pole_analysis,
    indicial_residues,
    infinity_analysis,
    riccati_fixed_term,
)
from .solver import (
    ClosedFormWavefunction,
    OrthonormalBasis,
    QesLevel,
    SpectralPencil,
    build_pencil,
    count_moving_poles,
    evaluate_wavefunction,
    moving_pole_contour_value,
    qhj_residual,
    quantum_momentum,
    quantum_momentum_derivative,
    reproduce_paper_tables,
    schrodinger_residual,
    solve_classification,
    solve_levels,
    wavefunction,
)

__version__ = "0.1.0"
