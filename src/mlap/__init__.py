"""Measure-weighted graph Laplacians on finite state spaces.

Networks carry a positive base measure and a symmetric nonnegative
coupling; the package derives the induced Markov chain, energy form,
Green's functions, set kernels and the closed-form penalized regression,
and verifies their exchange identities numerically.
"""

from .energy import (
    DipoleSolution,
    EnergyElement,
    KernelGram,
    canonicalize,
    dipole,
    energy_inner,
    indicator_gram,
    mu_f,
    norm_bounds_report,
    royden_project,
)
from .errors import (
    AsymmetricCoupling,
    DimensionMismatch,
    EmptyTargetSet,
    FamilyTooSmall,
    MissingBoundary,
    MlapError,
    MlapIOError,
    NegativeGamma,
    NegativePower,
    NonpositiveMass,
    NonpositiveWeight,
    NotMeasurePreserving,
    ParseError,
    SchemaVersionError,
    SetMeetsBoundary,
    SingularSystem,
    SymmetryViolation,
    TrappedInterior,
    UnbalancedSets,
    ValidationError,
    ZeroConductance,
)
from .green import (
    BoundaryConfig,
    KilledRestriction,
    boundary_config,
    green_indicator,
    green_operator,
    isometry_suite,
    kernel_gram,
    killed_restriction,
    mu_f_rkhs_norm,
)
from .learn import (
    LearnProblem,
    diagonal_network,
    joining_network,
    objective,
    optimality_check,
    product_measure_network,
    solve_regularized,
)
from .net import (
    Irreducibility,
    Network,
    ReweightResult,
    attainability,
    build_network,
    components,
    derive,
    index_set,
    irreducibility,
    reweight,
    symmetrize,
)
from .netio import emit_fixtures, load_network, network_checksum, save_network
from .operators import (
    OperatorBundle,
    apply_Delta,
    apply_P,
    apply_R,
    harmonic_basis,
    iota_adjoint_residual,
    j_adjoint_residual,
    laplacian_matrix,
    markov_power,
    mass_transport_check,
    operator_bundle,
    rho_n,
    spectrum_P,
)
from .paths import (
    McEstimate,
    PathBatch,
    cylinder_mass,
    dissipation_norm,
    mc_energy_estimate,
    orthogonality_residual,
    sample_paths,
    variance_invariance,
)
from .suites import Report, run_suite

__version__ = "0.1.0"
