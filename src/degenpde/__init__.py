"""Numerical engine for degenerate semilinear parabolic pricing equations.

Solves the general equation du/dt + H = 0 on truncated grids, measures the
regularity quantities its solutions are known to satisfy (semiconvexity
envelopes, Lipschitz constants, initial-layer bounds), and cross-validates
the mortgage pricing instance against its Girsanov-changed Monte Carlo
representation.
"""

from .degeneracy import (
    KernelDecomposition,
    continuity_diagnostic,
    counterexample_run,
    kernel_basis,
    projection_paths,
)
from .model import (
    CoefficientNorms,
    CoefficientSet,
    MbsModel,
    ProblemSpec,
    discount_and_xi,
    mbs_price_problem,
    mbs_to_general,
)
from .montecarlo import (
    GradientInterpolant,
    PathEnsemble,
    PricingKernel,
    girsanov_log_weight,
    payoff_discounted,
    price_and_compare,
    simulate,
)
from .regularity import (
    BoundConstants,
    bound_constants,
    envelope_fit,
    initial_deviation_check,
    lipschitz_estimates,
    second_difference_constants,
)
from .solver import (
    GridSpec,
    ResidualReport,
    SolutionField,
    discretize_hamiltonian,
    residual_field,
    solve,
    stable_step_count,
    step,
)
from .transform import (
    TransformPair,
    invert,
    primitive_lambda,
    solve_Q,
    structural_check,
    transformed_problem,
)

__all__ = [
    "BoundConstants",
    "CoefficientNorms",
    "CoefficientSet",
    "GradientInterpolant",
    "GridSpec",
    "KernelDecomposition",
    "MbsModel",
    "PathEnsemble",
    "PricingKernel",
    "ProblemSpec",
    "ResidualReport",
    "SolutionField",
    "TransformPair",
    "bound_constants",
    "continuity_diagnostic",
    "counterexample_run",
    "discount_and_xi",
    "discretize_hamiltonian",
    "envelope_fit",
    "girsanov_log_weight",
    "initial_deviation_check",
    "invert",
    "kernel_basis",
    "lipschitz_estimates",
    "mbs_price_problem",
    "mbs_to_general",
    "payoff_discounted",
    "price_and_compare",
    "primitive_lambda",
    "projection_paths",
    "residual_field",
    "second_difference_constants",
    "simulate",
    "solve",
    "solve_Q",
    "stable_step_count",
    "step",
    "structural_check",
    "transformed_problem",
]

__version__ = "0.1.0"
