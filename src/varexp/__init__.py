"""Variable-exponent energy functionals on box grids.

Luxemburg norms and modular inequalities for L^{p(x)} spaces, gradient
energies with quadrant truncations, hypothesis checkers for a coupled
log-power system, projected descent and numerical mountain-pass search,
and a CLI that runs the whole pipeline from a JSON config.
"""

from .config import default_problem, parse_config, parse_config_text
from .energy import (
    HypothesisConstants,
    ProblemSpec,
    check_hypotheses,
    default_hypothesis_constants,
    minimize_rayleigh,
    phi_energy,
    phi_gradient,
    rayleigh_quotient,
    weak_residual,
)
from .errors import ConfigError, DataError, GeometryError
from .exponents import (
    ExponentField,
    conjugate_exponent,
    constant_exponent,
    exponent_from_expression,
    exponent_from_values,
)
from .grid import (
    Grid,
    GridFunction,
    gradient,
    integrate,
    make_grid,
    tent_function,
)
from .nonlinearity import (
    CustomExpression,
    LinearSource,
    LogPowerCoupling,
    SeparablePower,
)
from .solve import (
    CriticalPoint,
    ScanResult,
    SolutionInventory,
    SolverConfig,
    classify_quadrant,
    descend,
    divergence_scan,
    find_constant_sign_solutions,
    find_six_solutions,
    mountain_pass,
    smooth_bump,
    symmetric_pairs,
)
from .spaces import (
    holder_check,
    luxemburg_norm,
    modular,
    norm_modular_relation_check,
    sobolev_norm,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CriticalPoint",
    "CustomExpression",
    "DataError",
    "ExponentField",
    "GeometryError",
    "Grid",
    "GridFunction",
    "HypothesisConstants",
    "LinearSource",
    "LogPowerCoupling",
    "ProblemSpec",
    "ScanResult",
    "SeparablePower",
    "SolutionInventory",
    "SolverConfig",
    "check_hypotheses",
    "classify_quadrant",
    "conjugate_exponent",
    "constant_exponent",
    "default_hypothesis_constants",
    "default_problem",
    "descend",
    "divergence_scan",
    "exponent_from_expression",
    "exponent_from_values",
    "find_constant_sign_solutions",
    "find_six_solutions",
    "gradient",
    "holder_check",
    "integrate",
    "luxemburg_norm",
    "make_grid",
    "minimize_rayleigh",
    "modular",
    "mountain_pass",
    "norm_modular_relation_check",
    "parse_config",
    "parse_config_text",
    "phi_energy",
    "phi_gradient",
    "rayleigh_quotient",
    "smooth_bump",
    "sobolev_norm",
    "symmetric_pairs",
    "tent_function",
    "weak_residual",
    "__version__",
]
