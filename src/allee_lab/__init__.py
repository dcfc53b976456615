"""Equilibrium and bifurcation analysis for a harvested Leslie-Gower
predator-prey system with a predator Allee effect."""
from .model import (
    DimensionalParams,
    ModelParams,
    State,
    TaylorCoefficients,
    nondimensionalize,
    vector_field,
    derivatives,
)
from .equilibria import (
    Branch,
    BranchDiscriminants,
    Equilibrium,
    StabilityClass,
    Thresholds,
    discriminants,
    solve_branch_prey_axis,
    solve_branch_allee_line,
    solve_branch_diagonal,
    classify,
    thresholds,
    full_portrait,
)
from .normal_forms import (
    SaddleNodeCheck,
    SaddleNodeVerdict,
    CuspCheck,
    CuspVerdict,
    SotomayorReport,
    SotomayorVerdict,
    taylor_at,
    saddle_node_check,
    cusp_check,
    sotomayor_saddle_node,
)
from .bifurcations import (
    HopfReport,
    HopfDirection,
    BTReport,
    BTVerdict,
    hopf_critical_s,
    first_lyapunov_coefficient,
    lyapunov_number,
    bt_normal_form,
    cusp_base_params,
)
from .dynamics import (
    Trajectory,
    TerminalReason,
    CycleDetection,
    CycleStability,
    SimVerdict,
    integrate,
    detect_cycle,
    classify_by_simulation,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "DimensionalParams", "ModelParams", "State", "TaylorCoefficients",
    "nondimensionalize", "vector_field", "derivatives",
    "Branch", "BranchDiscriminants", "Equilibrium", "StabilityClass", "Thresholds",
    "discriminants", "solve_branch_prey_axis", "solve_branch_allee_line",
    "solve_branch_diagonal", "classify", "thresholds", "full_portrait",
    "SaddleNodeCheck", "SaddleNodeVerdict",
    "CuspCheck", "CuspVerdict", "taylor_at", "saddle_node_check", "cusp_check",
    "SotomayorReport", "SotomayorVerdict", "HopfReport", "HopfDirection",
    "BTReport", "BTVerdict", "sotomayor_saddle_node", "hopf_critical_s",
    "first_lyapunov_coefficient", "lyapunov_number", "bt_normal_form",
    "cusp_base_params",
    "Trajectory", "TerminalReason", "CycleDetection", "CycleStability",
    "SimVerdict", "integrate", "detect_cycle", "classify_by_simulation",
    "errors",
]
