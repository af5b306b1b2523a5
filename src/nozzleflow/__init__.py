"""Viscous quasi-1D compressible flow laboratory.

Solves the viscous approximation of duct / spherically symmetric gas flow,
monitors the energy, invariant-bound, integrability, and weak-form
inequalities the construction is supposed to satisfy, and sweeps the
viscosity down to measure convergence of the approximations.
"""

from .checks import Check, Report
from .errors import (
    CavitationError,
    ConfigError,
    DomainError,
    NonFiniteError,
    NozzleflowError,
    QuadratureError,
    SolverError,
    StabilityError,
    SweepError,
)
from .geometry import (
    ConstantProfile,
    ExponentialProfile,
    GaussianBumpProfile,
    NozzleProfile,
    PowerLawClosingProfile,
    SphericalProfile,
    TabulatedProfile,
    make_profile,
    unit_sphere_area,
)
from .thermo import GasLaw, default_kappa
from .entropy import (
    EntropyGenerator,
    EntropyKernel,
    ReferenceState,
    gauss_jacobi,
    gen_bump,
    gen_convex_spline,
    gen_half_signed_square,
    gen_half_square,
    gen_linear,
    gen_one,
    gen_quartic,
    gen_smoothed_abs,
    get_kernel,
    mechanical_energy,
    quartic_entropy,
    weight_moment,
)
from .solver import (
    BCMode,
    BoundarySpec,
    FluidField,
    Grid,
    InitialData,
    SolverContext,
    prepare_initial_data,
    run,
    step,
)
from .schedule import (ViscositySchedule, certificate_summary, certify,
                       make_default)
from .diagnostics import (
    DiagnosticsReport,
    IntegrabilityRecord,
    Recorder,
    RecorderOptions,
    SnapshotSet,
    SpaceTimeBump,
    WeakResidualRecord,
    default_generator_family,
    default_test_functions,
    energy_budget,
    integrability_window,
    riemann_monitor,
    vacuum_functional,
    weak_residual,
)
from .harness import (
    RunConfig,
    RunOutput,
    SweepResult,
    lp_distance,
    single_run,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
