"""The simplex solver, LP builders, hull membership and regularity probes."""

import numpy as np
import pytest

import cmgames as cm
from cmgames.lp import (
    EPSILON_SWEEP,
    LinearProgram,
    build_pair_occupancy_lp,
    max_min_slack,
    min_weight_feasible,
    modification_values,
    solve_lp,
)
from cmgames.modifications import count_det_modifications
from oracles import (
    alpha_simplex_program,
    best_feasible_modification,
    bfs_lp_oracle,
    build_best_modification_lp,
    min_weight_rows_oracle,
    random_game,
    random_policy,
    thresholds_at_policy,
)


def test_simplex_sanity():
    lp = LinearProgram.build(c=[1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    assert np.abs(sol.x - np.array([1.0, 0.0])).max() <= 1e-12


def test_simplex_infeasible():
    lp = LinearProgram.build(c=[0.0, 0.0], a_ub=[[1.0, 0.0]], b_ub=[2.0],
                             a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert solve_lp(lp).status == "infeasible"


def test_simplex_unbounded():
    lp = LinearProgram.build(c=[1.0, 1.0], a_ub=[[1.0, 0.0]], b_ub=[0.0])
    assert solve_lp(lp).status == "unbounded"


def _singular(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


def test_simplex_singular_basis_is_numerical(monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", _singular)
    lp = LinearProgram.build(c=[1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = solve_lp(lp)
    assert sol.status == "numerical" and sol.x is None and sol.objective is None


def test_simplex_no_constraints():
    assert solve_lp(LinearProgram.build(c=[-1.0, -2.0])).objective == 0.0
    assert solve_lp(LinearProgram.build(c=[1.0])).status == "unbounded"


def test_simplex_degenerate_deterministic():
    lp = LinearProgram.build(c=[1.0, 1.0, 0.0],
                             a_ub=[[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
                             b_ub=[0.5, 0.5],
                             a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    s1 = solve_lp(lp)
    s2 = solve_lp(lp)
    assert s1.status == "optimal"
    assert np.array_equal(s1.x, s2.x)


def _random_lp(rng):
    n = int(rng.integers(2, 7))
    m_ub = int(rng.integers(1, 5))
    m_eq = int(rng.integers(0, 2))
    c = rng.uniform(-1, 1, size=n)
    a_ub = rng.uniform(-1, 1, size=(m_ub, n))
    b_ub = rng.uniform(-1, 0.2, size=m_ub)
    a_eq = None
    b_eq = None
    if m_eq:
        a_eq = rng.uniform(0.2, 1, size=(m_eq, n))
        b_eq = rng.uniform(0.5, 1.5, size=m_eq)
    # a box row keeps every instance bounded
    a_ub = np.vstack([a_ub, -np.ones(n)])
    b_ub = np.concatenate([b_ub, [-float(rng.uniform(1.0, 3.0))]])
    return LinearProgram.build(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


@pytest.mark.parametrize("seed", range(40))
def test_simplex_matches_bfs_enumeration(seed):
    rng = np.random.default_rng(1000 + seed)
    lp = _random_lp(rng)
    sol = solve_lp(lp)
    status, best = bfs_lp_oracle(lp)
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(best, abs=1e-9)
        assert (lp.a_ub @ sol.x - lp.b_ub).min() >= -1e-9
        if lp.a_eq.size:
            assert np.abs(lp.a_eq @ sol.x - lp.b_eq).max() <= 1e-9
        assert sol.x.min() >= -1e-9


def test_example2_lp_build():
    game = cm.load_game(cm.bundled_path("example2.game"))
    pol = cm.uniform_policy(game)
    lp = build_best_modification_lp(game, 0, pol)
    assert lp.c.shape == (4,)
    assert lp.a_ub.shape == (4, 4)
    # canonical order [const-1, identity, swap, const-2]
    assert np.abs(lp.c - np.array([0.5, 0.25, 0.25, 0.0])).max() <= 1e-12
    assert np.abs(lp.b_ub - 0.25).max() == 0.0


def test_identity_only_action_set():
    rng = np.random.default_rng(2)
    game = random_game(rng, num_states=2, horizon=2, action_counts=(1, 2), j=1)
    pol = random_policy(rng, game)
    best = best_feasible_modification(game, 0, pol)
    v = cm.evaluate(game, cm.compute_occupancy(game, pol)).reward[0]
    assert best.status == "optimal"
    assert best.psi == pytest.approx(v, abs=1e-12)
    assert best.alpha.shape == (1,)


def test_example1_psi2():
    game = cm.load_game(cm.bundled_path("example1.game"))
    pol = cm.load_policy(cm.bundled_path("example1_mixed.policy"), game)
    best = best_feasible_modification(game, 1, pol)
    assert best.status == "optimal"
    assert best.psi == pytest.approx(5 / 6, abs=1e-12)
    assert best.alpha.argmax() == 3   # const-2 in canonical order


def test_unconstrained_psi_is_max():
    rng = np.random.default_rng(3)
    game = random_game(rng, num_states=2, horizon=2, threshold_scale=0.0)
    pol = random_policy(rng, game)
    vals = modification_values(game, 0, pol)
    best = best_feasible_modification(game, 0, pol)
    assert best.psi == pytest.approx(float(vals.reward.max()), abs=1e-9)


def test_psi_bounds():
    rng = np.random.default_rng(4)
    for seed in range(5):
        game = random_game(np.random.default_rng(seed), num_states=2, horizon=2,
                           threshold_scale=0.7)
        pol = random_policy(rng, game)
        occ = cm.compute_occupancy(game, pol)
        if cm.feasibility(game, pol).feasible:
            for i in range(2):
                best = best_feasible_modification(game, i, pol)
                v = cm.evaluate(game, occ).reward[i]
                assert best.status == "optimal"
                assert best.psi >= v - 1e-9          # identity is feasible
                assert best.psi <= game.horizon + 1e-9


def test_playerwise_infeasible_status():
    game = cm.load_game(cm.bundled_path("example1.game"))
    pol = np.zeros((1, 1, 4))
    pol[0, 0, 3] = 1.0   # infeasible for both players; no feasible modification exists
    best = best_feasible_modification(game, 0, pol)
    assert best.status == "infeasible"
    assert best.psi is None


# ---------------------------------------------------------------------------
# Hull membership and mixing
# ---------------------------------------------------------------------------

def test_hull_vertex_case():
    rng = np.random.default_rng(5)
    game = random_game(rng, num_states=2, horizon=2)
    pol = random_policy(rng, game)
    vals = modification_values(game, 0, pol)
    res = cm.hull_membership(vals.occupancies[7], list(vals.occupancies))
    assert res.member and res.residual <= 1e-12
    assert res.alpha[7] >= 0.0


def test_hull_random_mixture_recovered():
    rng = np.random.default_rng(6)
    game = random_game(rng, num_states=2, horizon=2)
    pol = random_policy(rng, game)
    vals = modification_values(game, 0, pol)
    alpha = rng.dirichlet(np.ones(len(vals.mods)))
    point = cm.mix_occupancies(alpha, vals.occupancies)
    res = cm.hull_membership(point, list(vals.occupancies))
    assert res.member
    rebuilt = cm.mix_occupancies(res.alpha, vals.occupancies)
    assert np.abs(rebuilt - point).max() <= 1e-7


def test_hull_outside_point():
    rng = np.random.default_rng(7)
    game = random_game(rng, num_states=2, horizon=2)
    pol = random_policy(rng, game)
    pol[:, :, :] = np.array([0.05, 0.05, 0.05, 0.85])   # bounded away from action 0
    vals = modification_values(game, 0, pol)
    outside = np.zeros((game.horizon, game.num_states, 4))
    outside[:, 0, 0] = 1.0   # a simplex vertex no modification of pol can reach
    res = cm.hull_membership(outside, list(vals.occupancies))
    assert not res.member


def test_mix_occupancies_validates():
    rng = np.random.default_rng(8)
    game = random_game(rng, num_states=2, horizon=2)
    pol = random_policy(rng, game)
    vals = modification_values(game, 0, pol)
    one_hot = np.zeros(len(vals.mods))
    one_hot[3] = 1.0
    assert np.array_equal(cm.mix_occupancies(one_hot, vals.occupancies),
                          vals.occupancies[3])
    with pytest.raises(ValueError, match="probability"):
        cm.mix_occupancies(np.full(len(vals.mods), 0.5), vals.occupancies)


def test_optimal_alpha_mixture_stays_feasible():
    """Mixtures weighted by an optimal solution satisfy the constraint rows."""
    rng = np.random.default_rng(12)
    game = random_game(rng, num_states=2, horizon=2, threshold_scale=0.8)
    pol = cm.occupancy_to_policy(game, cm.feasible_occupancy(game))
    for i in range(2):
        best = best_feasible_modification(game, i, pol)
        assert best.status == "optimal"
        vals = modification_values(game, i, pol)
        mixed = cm.mix_occupancies(best.alpha, vals.occupancies)
        cm.validate_occupancy(game, mixed)
        slack = cm.evaluate(game, mixed).constraint[i] - vals.thresholds
        assert slack.min() >= -1e-9


def test_example2_omega_mixture_is_uniform_occupancy():
    game = cm.load_game(cm.bundled_path("example2.game"))
    pol = cm.uniform_policy(game)
    vals = modification_values(game, 0, pol)
    best = best_feasible_modification(game, 0, pol)
    mixed = cm.mix_occupancies(best.alpha, vals.occupancies)
    assert np.abs(mixed - 0.25).max() <= 1e-9   # the unique feasible occupancy
    cons = vals.constraint @ np.full(4, 0.25)
    assert np.abs(cons - 0.25).max() <= 1e-12   # uniform alpha hits every threshold


# ---------------------------------------------------------------------------
# Regularity probes
# ---------------------------------------------------------------------------

def test_max_min_slack_epigraph():
    constraint = np.array([[1.0, 0.0], [0.0, 1.0]])
    thresholds = np.array([0.2, 0.2])
    margin, alpha = max_min_slack(alpha_simplex_program(constraint, thresholds))
    assert margin == pytest.approx(0.3, abs=1e-9)   # alpha = (1/2, 1/2)
    assert np.abs(alpha - 0.5).max() <= 1e-9


def _min_weight_cases():
    """Seeded (game, player, policy) with K <= 64, both modes and J = 0..3.

    Each threshold is the policy's own constraint value times 1 (on the
    boundary), 0.9 (inside) or 1.1 (outside the feasible set); policies are
    Dirichlet, and uniform in every fifth case.
    """
    rng = np.random.default_rng(77)
    shapes = [(1, 1, (2, 2)), (2, 1, (2, 2)), (1, 2, (2, 2)), (1, 1, (3, 2)),
              (2, 1, (2, 2, 2)), (1, 3, (2, 2)), (3, 1, (2, 2))]
    for trial in range(56):
        num_states, horizon, counts = shapes[trial % len(shapes)]
        mode = ("common", "playerwise")[trial // len(shapes) % 2]
        game = random_game(rng, num_states, horizon, counts, j=trial % 4, mode=mode)
        policy = cm.uniform_policy(game) if trial % 5 == 0 else random_policy(rng, game)
        game = thresholds_at_policy(rng, game, policy, [1.0, 1.0, 0.9, 1.1])
        yield game, trial % game.num_players, policy


def _assert_min_weight_matches_rows_oracle(epsilons):
    """min_weight_feasible's maximum against the J + K + 1-row program over
    the enumerated family: feasible exactly at the epsilons up to the maximum."""
    outcomes = set()
    for game, player, policy in _min_weight_cases():
        program = build_pair_occupancy_lp(game, player, policy)
        eps_max = min_weight_feasible(game, player, policy, program)
        vals = modification_values(game, player, policy)
        k = len(vals.mods)
        for epsilon in epsilons(k):
            if eps_max is not None and abs(epsilon - eps_max) <= 1e-9:
                continue
            feasible = eps_max is not None and epsilon <= eps_max
            reference = min_weight_rows_oracle(vals.constraint, vals.thresholds, epsilon)
            assert (reference is not None) == feasible, (epsilon, eps_max)
            outcomes.add(feasible)
        if eps_max is None:
            assert min_weight_rows_oracle(vals.constraint, vals.thresholds, 0.0) is None
        else:
            assert 0.0 <= eps_max <= (1.0 + 1e-12) / k
    assert outcomes == {False, True}


def test_min_weight_feasible_sweep():
    _assert_min_weight_matches_rows_oracle(lambda k: EPSILON_SWEEP)


def test_min_weight_feasible_matches_row_per_weight_program():
    _assert_min_weight_matches_rows_oracle(lambda k: (0.5 / k, 1.0 / k, 2.0 / k))


def test_min_weight_program_has_j_plus_one_rows(monkeypatch):
    game = cm.load_game(cm.bundled_path("toy_h2.game"))
    k = count_det_modifications(game, 0)
    shapes = []

    def recording(lp):
        shapes.append((lp.a_ub.shape[0] + lp.a_eq.shape[0], lp.c.shape[0]))
        return solve_lp(lp)

    monkeypatch.setattr(cm.lp, "solve_lp", recording)
    rep = cm.check_lp_regularity(game, 0, cm.uniform_policy(game))
    assert rep.positive_weight_feasible
    assert shapes
    cells = game.horizon * game.num_states * game.action_counts[0]
    assert all(rows <= cells + game.num_constraints + 1 and k not in (rows, cols)
               for rows, cols in shapes)


def test_hull_and_min_weight_report_numerical_trouble(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    game = cm.load_game(cm.bundled_path("example2.game"))
    policy = cm.uniform_policy(game)
    program = build_pair_occupancy_lp(game, 0, policy)
    monkeypatch.setattr(np.linalg, "solve", singular)
    vertices = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(cm.NumericalLPError):
        cm.hull_membership(np.array([0.5, 0.5]), vertices)
    with pytest.raises(cm.NumericalLPError):
        min_weight_feasible(game, 0, policy, program)


def test_regularity_example2():
    game = cm.load_game(cm.bundled_path("example2.game"))
    rep = cm.check_lp_regularity(game, 0, cm.uniform_policy(game))
    assert not rep.strictly_feasible
    assert rep.max_min_slack == pytest.approx(0.0, abs=1e-9)
    assert rep.constant_rows == ()
    assert rep.positive_weight_feasible and rep.min_weight == 1e-3


def test_regularity_unconstrained_strict():
    rng = np.random.default_rng(9)
    game = random_game(rng, num_states=2, horizon=2, threshold_scale=0.0)
    pol = random_policy(rng, game)
    rep = cm.check_lp_regularity(game, 0, pol)
    assert rep.strictly_feasible


def test_regularity_no_constraints():
    rng = np.random.default_rng(4)
    game = random_game(rng, num_states=2, horizon=1, j=0)
    rep = cm.check_lp_regularity(game, 0, random_policy(rng, game))
    assert rep.strictly_feasible and rep.max_min_slack == np.inf
    assert rep.constant_rows == ()
    assert rep.positive_weight_feasible and rep.min_weight == 1e-3


def test_regularity_constant_row_flagged():
    game = cm.load_game(cm.bundled_path("example2.game"))
    flat = np.full((1, 1, 1, 4), 0.5)
    doctored = cm.ConstrainedMarkovGame(
        num_players=2, horizon=1, states=game.states, actions=game.actions,
        rewards=game.rewards,
        constraints=np.concatenate([game.constraints, flat]),
        thresholds=np.concatenate([game.thresholds, [0.25]]),
        kernel=game.kernel, rho=game.rho, constraint_mode="common")
    rep = cm.check_lp_regularity(doctored, 0, cm.uniform_policy(doctored))
    assert rep.constant_rows == (4,)   # the constant-in-a table is immune to modification
