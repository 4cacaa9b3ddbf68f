"""Exact Daum-Huang particle flow filters with a closed-form scalar-measurement update.

The flow moves particles from the prior to the posterior along a
homotopy parameter instead of weighting and resampling them. For scalar
measurements the flow ODE solves in closed form, which this package
implements together with Euler-integrated reference variants, the
parallel EKF, independent numerical oracles for every closed-form
expression, and a Monte Carlo benchmark harness.

The names below are the entry points; everything else is importable
from its submodule (`pflow.flow_core`, `pflow.filters`, `pflow.ekf`,
`pflow.model`, `pflow.oracle`, `pflow.bench`).
"""

from .bench import (
    BenchConfig,
    RunRecord,
    emit_csv,
    emit_markdown,
    emit_scatter_svg,
    normalize_vs_ekf,
    run_benchmark,
)
from .filters import FILTER_NAMES, FilterConfig, FilterDivergenceError, run_filter
from .flow_core import (
    FlowCoefficients,
    analytic_flow_map,
    apply_flow_ensemble,
    build_coefficients,
)
from .model import SystemModel, Trajectory, random_coupled_model, simulate, ungm_model
from .oracle import ORACLE_TOLERANCES, verify_closed_forms

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "FILTER_NAMES",
    "FilterConfig",
    "FilterDivergenceError",
    "FlowCoefficients",
    "ORACLE_TOLERANCES",
    "RunRecord",
    "SystemModel",
    "Trajectory",
    "analytic_flow_map",
    "apply_flow_ensemble",
    "build_coefficients",
    "emit_csv",
    "emit_markdown",
    "emit_scatter_svg",
    "normalize_vs_ekf",
    "random_coupled_model",
    "run_benchmark",
    "run_filter",
    "simulate",
    "ungm_model",
    "verify_closed_forms",
]
