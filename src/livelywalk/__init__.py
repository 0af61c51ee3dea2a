"""Three-state lively quantum walks on cycles with permutative orthogonal coins.

The library builds every 3x3 orthogonal matrix that is a linear sum of
permutation matrices (the four families X, Y, Z, W, their exact rational
members, and the Grover-type matrices), simulates the lively walk
U = S (C (x) I) on the n-cycle matrix-free in O(n) per step, and computes
the walk period three ways: closed-form family dispatch, the lcm of the
eigenvalue orders of the n momentum blocks (one batched LAPACK call over
their (n, 3, 3) stack), and brute force on the same stack,
cross-validating the answers.
"""

from . import errors
from .coins import (
    Classification,
    Coin3,
    FAMILIES,
    LinearSumCoefficients,
    classify,
    coin_from_json,
    coin_from_rational,
    coin_from_theta,
    coin_from_theta_frac,
    coin_from_xyz,
    coin_to_json,
    decompose_linear_sum,
    grover_type,
    multiply,
    pell_point,
    perm_matrix,
    solve_y,
)
from .exactnum import eig3_unitary, mat_power_norm_defect
from .period import (
    AngleClass,
    CrossValidation,
    PeriodResult,
    classify_angle,
    cross_validate,
    order_of_unit,
    period_analytic,
    period_bruteforce,
    period_spectral,
    report_json,
)
from .walk import (
    ReducedBlock,
    SpectrumEntry,
    WalkSpec,
    basis_state,
    block_stack,
    distribution,
    eigenvalues_closed_form,
    evolution_operator,
    evolve,
    momentum_state,
    reduced_block,
    shift_operator,
    spectrum,
    write_distribution_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AngleClass",
    "Classification",
    "Coin3",
    "CrossValidation",
    "FAMILIES",
    "LinearSumCoefficients",
    "PeriodResult",
    "ReducedBlock",
    "SpectrumEntry",
    "WalkSpec",
    "basis_state",
    "block_stack",
    "classify",
    "classify_angle",
    "coin_from_json",
    "coin_from_rational",
    "coin_from_theta",
    "coin_from_theta_frac",
    "coin_from_xyz",
    "coin_to_json",
    "cross_validate",
    "decompose_linear_sum",
    "distribution",
    "eig3_unitary",
    "eigenvalues_closed_form",
    "errors",
    "evolution_operator",
    "evolve",
    "grover_type",
    "mat_power_norm_defect",
    "momentum_state",
    "multiply",
    "order_of_unit",
    "pell_point",
    "perm_matrix",
    "period_analytic",
    "period_bruteforce",
    "period_spectral",
    "reduced_block",
    "report_json",
    "shift_operator",
    "solve_y",
    "spectrum",
    "write_distribution_csv",
]
