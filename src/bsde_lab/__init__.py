"""Numerical laboratory for matrix stochastic exponentials, reverse Holder
estimates, and linear/quadratic BSDE systems on Brownian filtrations."""

__version__ = "0.1.0"

from .grids import ConfigurationError, TimeGrid
from .brownian import PathEnsemble, generate_brownian
from .tensors import contract_az, contract_adb, mat_square, operator_norm
from .norms import NormEstimate, estimate_norm
from .fields import (
    CoefficientField,
    constant_field,
    left_outer_field,
    right_outer_field,
    scalar_field,
    zero_field,
)
from .exponential import (
    ExponentialEnsemble,
    ReverseHolderReport,
    doob_sup_check,
    estimate_reverse_holder,
    integrate_exponential,
    integrate_inverse,
    martingale_defect,
    simulate_exponential,
)
from .counterexamples import (
    NonexistenceSpec,
    emery_closed_form,
    exit_time_exact,
    exit_time_exponential,
    nonexistence_blowup,
)
from .linear import (
    LinearBsdeSpec,
    SolutionEnsemble,
    solve_auto,
    solve_by_regression,
    solve_by_representation,
    solve_left_outer,
    solve_perturbed,
    solve_right_outer,
    solve_triangular,
)
from .quadratic import (
    AbCondition,
    LyapunovPair,
    QuadraticLinearDriver,
    UnidirectionalDriver,
    check_ab_condition,
    check_lyapunov,
    solve_quadratic,
    truncate_driver,
)
from .tree import (
    FiniteFiltration,
    discrete_exponential,
    discrete_linear_bsde_solve,
    discrete_reverse_holder,
    verify_duality_lemma,
)
