"""The pair-MDP occupancy program behind Psi^i and the Slater margins, against the
enumerated alpha-programs."""

import numpy as np
import pytest

import cmgames as cm
from cmgames.aux_mdps import lift_reward, mdp_policy_from_modification, pair_to_game_occupancy
from cmgames.equilibrium import (
    BOUNDARY_TOL,
    _floored_pair_program,
    check_strong_slater_at,
    feasible_occupancy,
)
from cmgames.lp import build_pair_occupancy_lp, max_min_slack, modification_values, solve_lp
from cmgames.modifications import DEFAULT_ENUM_CAP, count_det_modifications
from oracles import (
    alpha_simplex_program,
    best_feasible_modification,
    best_markov_modification,
    random_game,
    random_markov_mod,
    random_policy,
)

# (|S|, H, action counts): H = 1..3, a three-action player, three players and
# single-action players; every family stays small enough to enumerate.
SHAPES = [
    (2, 1, (2, 2)),
    (2, 2, (2, 2)),
    (1, 3, (2, 2)),
    (2, 1, (3, 2)),
    (1, 2, (3, 2)),
    (2, 2, (2, 2, 2)),
    (2, 1, (2, 1)),
    (1, 2, (1, 3)),
]
SEEDS = range(4)


def _shape_id(shape):
    num_states, horizon, counts = shape
    return f"S{num_states}-H{horizon}-A{'x'.join(map(str, counts))}"


def _policies(game, rng):
    """A Dirichlet policy and Gamma of a simplex vertex (degenerate, with zero rows)."""
    yield random_policy(rng, game)
    vertex = feasible_occupancy(game)
    assert vertex is not None
    yield cm.occupancy_to_policy(game, vertex)


def _check_modification(game, player, policy, best):
    """apply_modification with the returned modification reproduces Psi and meets the constraints."""
    values = cm.evaluate(game, cm.compute_occupancy(
        game, cm.apply_modification(game, policy, best.modification)))
    assert values.reward[player] == pytest.approx(best.psi, abs=1e-9)
    thresholds = [game.threshold(player, j) for j in range(game.num_constraints)]
    assert np.all(values.constraint[player] >= np.array(thresholds) - 1e-9)


@pytest.mark.parametrize("mode", ["common", "playerwise"])
@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_compact_psi_equals_enumerated_psi(shape, mode):
    # 8 shapes x 2 modes x 4 seeds x 2 policies = 128 seeded games.
    num_states, horizon, counts = shape
    optimal = 0
    for seed in SEEDS:
        rng = np.random.default_rng(1000 + seed)
        game = random_game(rng, num_states, horizon, counts, j=2, mode=mode)
        for policy in _policies(game, rng):
            for player in range(game.num_players):
                compact = best_markov_modification(game, player, policy)
                enumerated = best_feasible_modification(game, player, policy)
                assert compact.status == enumerated.status
                if compact.status != "optimal":
                    continue
                optimal += 1
                assert compact.psi == pytest.approx(enumerated.psi, abs=1e-9)
                _check_modification(game, player, policy, compact)
    assert optimal >= len(SEEDS) * len(counts)   # at least every Gamma(vertex) policy


@pytest.mark.parametrize("mode", ["common", "playerwise"])
@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_program_rows_are_lift_reward_bit_for_bit(shape, mode):
    """The objective and each >= row are lift_reward's array without its zero
    row at b, bit for bit, so a backward induction over the pair MDP may take
    its rewards from the program's rows instead of lifting them again."""
    num_states, horizon, counts = shape
    rng = np.random.default_rng(1500 + sum(counts) + 10 * num_states + horizon)
    game = random_game(rng, num_states, horizon, counts, j=3, mode=mode)
    for policy in _policies(game, rng):
        for player in range(game.num_players):
            lp = build_pair_occupancy_lp(game, player, policy)
            signals = [game.rewards[player]] + [game.constraint_table(player, j) for j in range(3)]
            for signal, row in zip(signals, [lp.c, *lp.a_ub]):
                lifted = lift_reward(game, player, policy, signal)
                assert not lifted[:, -1].any()
                assert np.array_equal(lifted[:, :-1].reshape(-1), row)


# (|S|, H, action counts) for the strong-Slater margin: H = 1..3 with two,
# three-action and three players.
MARGIN_SHAPES = [
    (2, 1, (2, 2)), (1, 2, (2, 2)), (1, 3, (2, 2)),
    (1, 1, (3, 2)), (1, 2, (3, 2)),
    (1, 1, (2, 2, 2)), (1, 2, (2, 2, 2)),
]


@pytest.mark.parametrize("mode", ["common", "playerwise"])
@pytest.mark.parametrize("shape", MARGIN_SHAPES, ids=_shape_id)
def test_pair_strong_margin_equals_enumerated_margin(shape, mode):
    """check_strong_slater_at's pair-program margin is the max-min slack over
    weights on the enumerated family, for J = 0..3 at feasible and
    infeasible policies alike."""
    num_states, horizon, counts = shape
    rng = np.random.default_rng(2000 + len(counts) * 10 + horizon)
    for j in range(4):
        game = random_game(rng, num_states, horizon, counts, j=j, mode=mode,
                           threshold_scale=rng.uniform(0.5, 1.5))
        policy = random_policy(rng, game)
        for player in range(game.num_players):
            result = check_strong_slater_at(game, player, policy)
            if j == 0:
                assert result.holds and result.margin == np.inf
                continue
            vals = modification_values(game, player, policy)
            enumerated, _ = max_min_slack(alpha_simplex_program(vals.constraint, vals.thresholds))
            assert abs(result.margin - enumerated) <= 1e-12
            assert result.holds == (enumerated > BOUNDARY_TOL)


def test_verify_beyond_the_enumeration_cap():
    rng = np.random.default_rng(7)
    game = random_game(rng, num_states=3, horizon=3, action_counts=(3, 2))
    assert count_det_modifications(game, 0) > DEFAULT_ENUM_CAP
    policy = random_policy(rng, game)
    cert = cm.verify_cce(game, policy)
    assert cert.psi is not None
    assert np.all(cert.psi >= cert.reward_values - BOUNDARY_TOL)
    for player in range(game.num_players):
        _check_modification(game, player, policy,
                            best_markov_modification(game, player, policy))


def _highs(lp):
    from scipy.optimize import linprog

    res = linprog(-lp.c, A_ub=-lp.a_ub if lp.a_ub.size else None,
                  b_ub=-lp.b_ub if lp.b_ub.size else None,
                  A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    return {0: "optimal", 2: "infeasible"}[res.status], (-res.fun if res.status == 0 else None)


@pytest.mark.parametrize("shape", SHAPES + [(3, 3, (2, 2)), (2, 2, (3, 2)), (3, 3, (3, 2))],
                         ids=_shape_id)
def test_pair_program_matches_highs(shape):
    pytest.importorskip("scipy")
    num_states, horizon, counts = shape
    rng = np.random.default_rng(2000 + len(counts) * 100 + num_states * 10 + horizon)
    for mode in ("common", "playerwise"):
        game = random_game(rng, num_states, horizon, counts, j=2, mode=mode)
        for policy in _policies(game, rng):
            for player in range(game.num_players):
                lp = build_pair_occupancy_lp(game, player, policy)
                sol = solve_lp(lp)
                status, objective = _highs(lp)
                assert sol.status == status
                if status == "optimal":
                    assert sol.objective == pytest.approx(objective, abs=1e-9)


# --- Reading a pair occupancy back as a game occupancy --------------------------

# H = 1..3; the middle player of three; a single-action player on either side.
READBACK_SHAPES = [
    (2, 1, (2, 2)),
    (2, 2, (3, 2)),
    (2, 3, (2, 2)),
    (1, 3, (3, 2)),
    (2, 2, (2, 2, 2)),
    (2, 2, (2, 1)),
    (1, 3, (1, 3)),
]


def _seed(shape, base):
    num_states, horizon, counts = shape
    return base + 100 * len(counts) + 10 * num_states + horizon + sum(counts)


@pytest.mark.parametrize("shape", READBACK_SHAPES, ids=_shape_id)
def test_read_back_of_a_modification_is_its_game_occupancy(shape):
    num_states, horizon, counts = shape
    rng = np.random.default_rng(_seed(shape, 3000))
    for _ in range(3):
        game = random_game(rng, num_states, horizon, counts, j=1)
        policy = random_policy(rng, game)
        for player, ai in enumerate(counts):
            mod = random_markov_mod(rng, game, player)
            mdp = cm.build_mdp2(game, player, policy)
            occ = cm.aux_occupancy(mdp, mdp_policy_from_modification(mdp, game, mod))
            pair = np.stack([o[:-1] for o in occ]).reshape(horizon, num_states, ai, ai)
            want = cm.compute_occupancy(game, cm.apply_modification(game, policy, mod))
            got = pair_to_game_occupancy(game, player, policy, pair)
            assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("mode", ["common", "playerwise"])
@pytest.mark.parametrize("shape", READBACK_SHAPES, ids=_shape_id)
def test_read_back_of_the_floored_optimum_meets_its_values(shape, mode):
    """The step target of find_cce: V^{r^i} is the objective, every floored threshold is met."""
    num_states, horizon, counts = shape
    rng = np.random.default_rng(_seed(shape, 4000))
    for _ in range(2):
        game = random_game(rng, num_states, horizon, counts, j=2, mode=mode)
        for policy in _policies(game, rng):
            constraint = cm.evaluate(game, cm.compute_occupancy(game, policy)).constraint
            for player in range(game.num_players):
                lp = _floored_pair_program(game, player, policy, constraint[player])
                sol = solve_lp(lp)
                assert sol.status == "optimal"   # the floors keep the identity feasible
                values = cm.evaluate(game, pair_to_game_occupancy(game, player, policy, sol.x))
                assert abs(values.reward[player] - sol.objective) <= 1e-9
                assert np.all(values.constraint[player] >= lp.b_ub - 1e-9)
