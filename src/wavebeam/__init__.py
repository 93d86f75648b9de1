"""Exponential integrators for semilinear damped wave and beam equations.

The linear part of the semi-discretized system is propagated exactly: the
symmetric spatial operator is diagonalized once, the 2n-by-2n system matrix
splits into n independent 2x2 mode blocks, and exp/phi functions of those
blocks have one closed form, r*I + s*(G - m*I), in every discriminant case.
"""

from .discretize import (
    GridOperator,
    ProblemSpec,
    Profile,
    StateVector,
    build_operator,
    grid_points,
    initial_state,
    sample_profile,
)
from .eigen import SpectralFactorization, factorize
from .integrators import (
    SchemeTableau,
    SolveResult,
    SolveStats,
    build_tableau,
    solve,
)
from .modefuncs import (
    CASE_NAMES,
    COMPLEX_PAIR,
    DOUBLE_ROOT,
    K_MAX,
    REAL_DISTINCT,
    ModeParams,
    classify_mode,
    phi_block,
    scalar_phi,
)
from .oracles import (
    apply_undamped_reference,
    assemble_dense_A,
    block_oracle_suite,
    dense_phi,
    discrete_l2_error,
    merged_damping_solve,
    mode_matrix,
    observed_order,
    rk4_baseline_solve,
    rk4_step,
)
from .presets import ExperimentPreset, load_preset
from .propagator import BlockPropagator, apply_phi, build_propagator, permutation_positions

__version__ = "0.1.0"
