"""Finite-horizon constrained Markov games: occupancy measures, constrained
correlated equilibria, Slater diagnostics and a fixed-point equilibrium search."""

from .game import (
    COMMON,
    PLAYERWISE,
    ConstrainedMarkovGame,
    GameFormatError,
    GameReport,
    GameValidationError,
    game_to_dict,
    load_game,
    load_policy,
    parse_game,
    save_game,
    uniform_policy,
    validate_game,
    validate_policy,
)
from .dynamics import (
    ValueVector,
    compute_occupancy,
    evaluate,
    feasibility,
    occupancy_to_policy,
    validate_occupancy,
)
from .modifications import (
    CapExceededError,
    MarkovModification,
    NonMarkovModification,
    apply_modification,
    apply_nonmarkov,
    enumerate_det_modifications,
    identity_modification,
    markovianize,
)
from .aux_mdps import (
    AuxiliaryMDP,
    alpha_from_modification,
    aux_occupancy,
    build_mdp1,
    build_mdp2,
    lift_reward,
    modification_from_alpha,
    optimize_aux,
)
from .lp import (
    LinearProgram,
    LPSolution,
    NumericalLPError,
    build_pair_occupancy_lp,
    check_lp_regularity,
    hull_membership,
    mix_occupancies,
    solve_lp,
)
from .equilibrium import (
    EquilibriumCertificate,
    FindResult,
    FixedPointTrace,
    NoFeasibleStartError,
    SlaterReport,
    check_strong_slater_at,
    check_weak_slater_at,
    feasible_occupancy,
    find_cce,
    slater_sampling_harness,
    verify_cce,
)
from .bundled import bundled_path

__version__ = "0.1.0"
