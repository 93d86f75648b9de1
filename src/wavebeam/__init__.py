"""Exponential integrators for semilinear damped wave and beam equations.

The linear part of the semi-discretized system is propagated exactly: the
symmetric spatial operator is diagonalized once, the 2n-by-2n system matrix
splits into n independent 2x2 mode blocks, and exp/phi functions of those
blocks have one closed form, r*I + s*(G - m*I), in every discriminant case.
"""

from .discretize import (
    BEAM,
    WAVE,
    GridOperator,
    ProblemSpec,
    Profile,
    StateVector,
    build_beam_operator,
    build_operator,
    build_wave_operator,
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
    merged_damping_solve,
    rk4_baseline_solve,
    rk4_step,
    solve,
    step,
)
from .modefuncs import (
    CASE_NAMES,
    COMPLEX_PAIR,
    DOUBLE_ROOT,
    K_MAX,
    REAL_DISTINCT,
    ModeParams,
    classify_mode,
    mode_matrix,
    phi_block,
    scalar_phi,
)
from .oracles import (
    ExperimentPreset,
    assemble_dense_A,
    block_oracle_suite,
    dense_expm,
    dense_phi,
    discrete_l2_error,
    load_preset,
    observed_order,
)
from .propagator import (
    BlockPropagator,
    apply_phi,
    apply_undamped_reference,
    build_propagator,
    permutation_positions,
)

__version__ = "0.1.0"
