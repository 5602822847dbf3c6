"""Trace functionals on the positive definite cone and their verifiers.

The library implements the reduced relative quantum entropy, the
trace-exponential concave functionals built from it, the Golden-Thompson /
Jensen interpolation bound, and the Gibbs-type variational identities, plus
a randomized property-testing engine that checks every convexity,
concavity, equality, and inequality claim on seeded instance families.
"""

from .errors import (
    ConvergenceFailure,
    DimensionError,
    DomainError,
    EntropyLabError,
    NonFiniteObjective,
    NotAContraction,
    NumericalInconsistency,
    OutputError,
    ParseError,
)
from .functionals import (
    BlockLift,
    MultiInstance,
    block_lift,
    gibbs_objective,
    gt_jensen_lhs,
    gt_jensen_rhs,
    lieb_trace,
    lieb_trace_derivative_at_zero,
    multi_trace_exp,
    phi_objective,
    reduced_relative_entropy,
    relative_entropy,
    trace_exp_functional,
)
from .matrix_core import (
    Contraction,
    ContractionTuple,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    SpectralDecomposition,
    make_rng,
    matrix_exp,
    matrix_function,
    matrix_log,
    matrix_power,
    operator_norm,
    random_contraction_tuple,
    random_hermitian,
    random_pd,
    spectral_decompose,
    stack,
)
from .variational import (
    SolverConfig,
    SolverResult,
    gibbs_gradient,
    maximize,
    phi_gradient,
)
from .verifiers import (
    CHECKS,
    CheckConfig,
    CheckReport,
    run_all,
    run_check,
)

__version__ = "0.1.0"
