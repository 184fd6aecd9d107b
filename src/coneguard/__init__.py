"""Diagnostics for multifold second-order-cone and semidefinite programs.

The package classifies constraint blocks at a point, verifies constraint
qualifications numerically with explicit certificates, certifies
approximate-stationarity traces, recovers candidate multipliers from such
traces, and ships a small augmented Lagrangian solver that produces them.
"""

__version__ = "0.1.0"

from .akkt import (
    AkktRecord,
    AkktTrace,
    CertifyOutcome,
    RecoveryOutcome,
    akkt_residual,
    build_trace,
    certify_akkt,
    dumps_trace,
    loads_trace,
    recover_kkt,
    verify_kkt,
)
from .alm import AlmConfig, solve
from .certificates import (
    CaratheodoryResult,
    Certificate,
    ConeMembership,
    DependenceWitness,
    caratheodory_reduce,
    cone_membership,
    conic_dependence,
    nnls,
    numerical_rank,
    verify_dependence,
)
from .classify import IndexClassification, classify, eigen_gap
from .cones import (
    SpectralData,
    classify_soc,
    eig_sym,
    project_psd,
    project_soc,
    psd_distance,
    smat,
    soc_distance,
    svec,
    svec_dim,
)
from .cqchecks import (
    CqReport,
    check_crsc,
    check_nondegeneracy,
    check_rcpld,
    check_robinson,
)
from .errors import (
    BudgetExhaustedError,
    ConeguardError,
    DimensionMismatchError,
    DomainError,
    ExprSyntaxError,
    InfeasiblePointError,
    NonSimpleEigenvalueError,
    ProblemFormatError,
    ReconstructionError,
    SymmetryError,
    UnknownIdentifierError,
    VariableIndexError,
)
from .model import (
    ConicBlock,
    ConicProgram,
    EvaluatedPoint,
    apply_jacobian_adjoint,
    block_distances,
    dumps,
    embed_block_diagonal,
    evaluate,
    loads,
)
from .reduction import ReducedEntry, ReducedGradients, reduced_view

__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and callable(value))  # not the modules
