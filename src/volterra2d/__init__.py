"""Numerical library for two-component nonlinear Volterra difference
systems with infinite delay: forward simulation, periodic and
asymptotically periodic fixed-point solvers with certified truncation, and
independent verification of candidate solutions."""

from ._iteration import SolverOptions
from .asymptotic_solver import (
    AsymptoticSolveReport,
    Decomposition,
    TailMapOperator,
    solve_asymptotic,
)
from .kernels import (
    FiniteLag,
    Kernel,
    NotDiagonalPeriodic,
    SeparableExponential,
    TailNotCertified,
    TruncationPolicy,
)
from .periodic_solver import (
    PeriodicSolveReport,
    solve_periodic,
)
from .sequences import (
    History,
    PeriodicSequence,
    PeriodProductIsOne,
    PeriodProductNotOne,
    Trajectory,
    ZeroFactor,
    cycle_gain,
    reciprocal_growth,
)
from .simulate import defects, simulate
from .system import (
    CheckItem,
    CheckReport,
    ConfigError,
    GrowthProfile,
    Nonlinearity,
    Scenario,
    SystemSpec,
    check_asymptotic_hypotheses,
    check_periodic_hypotheses,
    growth_profile,
    parse_scenario,
    parse_system,
    spec_to_config,
)
from .verify import (
    DecompositionVerification,
    PeriodicVerification,
    verify_decomposition,
    verify_periodic,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticSolveReport",
    "CheckItem",
    "CheckReport",
    "ConfigError",
    "Decomposition",
    "DecompositionVerification",
    "FiniteLag",
    "GrowthProfile",
    "History",
    "Kernel",
    "Nonlinearity",
    "NotDiagonalPeriodic",
    "PeriodProductIsOne",
    "PeriodProductNotOne",
    "PeriodicSequence",
    "PeriodicSolveReport",
    "PeriodicVerification",
    "Scenario",
    "SeparableExponential",
    "SolverOptions",
    "SystemSpec",
    "TailMapOperator",
    "TailNotCertified",
    "Trajectory",
    "TruncationPolicy",
    "ZeroFactor",
    "check_asymptotic_hypotheses",
    "check_periodic_hypotheses",
    "cycle_gain",
    "defects",
    "growth_profile",
    "parse_scenario",
    "parse_system",
    "reciprocal_growth",
    "simulate",
    "solve_asymptotic",
    "solve_periodic",
    "spec_to_config",
    "verify_decomposition",
    "verify_periodic",
]
