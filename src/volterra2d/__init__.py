"""Numerical library for two-component nonlinear Volterra difference
systems with infinite delay: forward simulation, periodic and
asymptotically periodic fixed-point solvers with certified truncation, and
independent verification of candidate solutions."""

from .asymptotic_solver import (
    AsymptoticSolveReport,
    Decomposition,
    GrowthProfile,
    TailMapOperator,
    apply_tail_map,
    growth_profile,
    solve_asymptotic,
)
from .kernels import (
    DrivePlan,
    FiniteLag,
    Kernel,
    NotDiagonalPeriodic,
    SeparableExponential,
    TailNotCertified,
    TruncationPolicy,
    drive_plan,
    inner_sum,
)
from .periodic_solver import (
    PeriodicSolveReport,
    SolverOptions,
    apply_cycle_map,
    cycle_gain,
    solve_periodic,
)
from .sequences import (
    History,
    PeriodicSequence,
    PeriodProductIsOne,
    PeriodProductNotOne,
    Trajectory,
    ZeroFactor,
    product_one_plus,
    reciprocal_growth,
)
from .simulate import defects, drive_depth, simulate
from .system import (
    CheckItem,
    CheckReport,
    ConfigError,
    Nonlinearity,
    Scenario,
    SystemSpec,
    check_asymptotic_hypotheses,
    check_periodic_hypotheses,
    parse_scenario,
    parse_system,
    spec_to_config,
)
from .verify import (
    DecompositionVerification,
    PeriodicVerification,
    periodic_residual_max,
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
    "DrivePlan",
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
    "apply_cycle_map",
    "apply_tail_map",
    "check_asymptotic_hypotheses",
    "check_periodic_hypotheses",
    "cycle_gain",
    "defects",
    "drive_depth",
    "drive_plan",
    "growth_profile",
    "inner_sum",
    "parse_scenario",
    "parse_system",
    "periodic_residual_max",
    "product_one_plus",
    "reciprocal_growth",
    "simulate",
    "solve_asymptotic",
    "solve_periodic",
    "spec_to_config",
    "verify_decomposition",
    "verify_periodic",
]
