"""Auxiliary MDP constructions, lifted rewards and backward induction."""

import numpy as np
import pytest

import cmgames as cm
from cmgames.aux_mdps import mdp_policy_from_modification
from cmgames.lp import modification_values
from oracles import (
    lifted_value,
    modified_trajectory_occupancy,
    random_game,
    random_markov_mod,
    random_nonmarkov_mod,
    random_policy,
)


@pytest.fixture(scope="module")
def toy():
    return cm.load_game(cm.bundled_path("toy_h2.game"))


def kernel_rows_ok(mdp, tol=1e-9):
    return all(np.abs(k.sum(axis=-1) - 1.0).max() <= tol for k in mdp.kernels)


def test_mdp1_rows_stochastic(toy):
    rng = np.random.default_rng(0)
    for _ in range(3):
        pol = random_policy(rng, toy)
        for player in range(2):
            assert kernel_rows_ok(cm.build_mdp1(toy, player, pol))


def test_mdp2_rows_stochastic(toy):
    rng = np.random.default_rng(1)
    for _ in range(3):
        pol = random_policy(rng, toy)
        for player in range(2):
            assert kernel_rows_ok(cm.build_mdp2(toy, player, pol))


def test_mdp1_absorbing_mass_formula(toy):
    """Spot-check kernel entries against an independent per-cell re-evaluation."""
    rng = np.random.default_rng(2)
    pol = random_policy(rng, toy)
    player = 0
    mdp = cm.build_mdp1(toy, player, pol)
    counts = toy.action_counts
    ai = counts[player]
    k0 = mdp.kernels[0]
    b_next = mdp.num_states[1]
    for s in range(toy.num_states):
        for rec in range(ai):
            x = s * ai + rec
            # absorbing mass = 1 - sum over others of pi((rec, a_-i)|s)
            stay = sum(pol[0, s, int(np.ravel_multi_index((rec, o), counts))]
                       for o in range(counts[1]))
            for act in range(ai):
                assert k0[x, act, b_next] == pytest.approx(1.0 - stay, abs=1e-12)
            # moving mass: (1/ai) * P(s'|s,(act,o)) * pi((rec,o)|s) at the
            # prefix recording the played joint action
            for act in range(ai):
                for o in range(counts[1]):
                    played = int(np.ravel_multi_index((act, o), counts))
                    pi_w = pol[0, s, int(np.ravel_multi_index((rec, o), counts))]
                    h_next = s * toy.num_joint_actions + played
                    for s2 in range(toy.num_states):
                        for rec2 in range(ai):
                            y = (h_next * toy.num_states + s2) * ai + rec2
                            want = toy.kernel[0, s, played, s2] * pi_w / ai
                            assert k0[x, act, y] == pytest.approx(want, abs=1e-12)


def test_mdp1_zero_mass_recommendation(toy):
    pol = cm.uniform_policy(toy)
    pol[0, 0] = np.array([0.0, 0.0, 0.5, 0.5])   # player 0 never recommended action 0 at s=0
    mdp = cm.build_mdp1(toy, 0, pol)
    x = 0 * 2 + 0   # state (s=0, rec=0)
    b_next = mdp.num_states[1]
    assert np.all(mdp.kernels[0][x, :, b_next] == 1.0)


def test_mdp2_matches_marginalized_mdp1(toy):
    """MDP(2) kernel equals MDP(1)'s with histories folded out (t=0)."""
    rng = np.random.default_rng(3)
    # the middle player of three and unequal action counts have the least
    # regular joint-action strides
    games = [toy] + [random_game(rng, num_states=2, horizon=2, action_counts=counts)
                     for counts in ((2, 2, 2), (3, 2))]
    for game in games:
        pol = random_policy(rng, game)
        for player in range(game.num_players):
            ai = game.action_counts[player]
            m1 = cm.build_mdp1(game, player, pol)
            m2 = cm.build_mdp2(game, player, pol)
            n = game.num_states * ai
            k1 = m1.kernels[0][:n, :, :-1].reshape(n, ai, -1, n).sum(axis=2)
            k2 = m2.kernels[0][:n, :, :n]
            assert np.abs(k1 - k2).max() <= 1e-12
            assert np.abs(m1.kernels[0][:n, :, -1] - m2.kernels[0][:n, :, -1]).max() <= 1e-12


def test_mdp2_matches_formula_re_evaluation():
    """Kernel entries against a literal re-implementation of the sum formula."""
    rng = np.random.default_rng(10)
    game = random_game(rng, num_states=2, horizon=2, action_counts=(2, 3))
    pol = random_policy(rng, game)
    counts = game.action_counts
    for player in range(2):
        ai = counts[player]
        n = game.num_states * ai
        mdp = cm.build_mdp2(game, player, pol)
        k = mdp.kernels[0]
        for s in range(game.num_states):
            for rec in range(ai):
                x = s * ai + rec
                for act in range(ai):
                    stay = 0.0
                    for s2 in range(game.num_states):
                        total = 0.0
                        for other in range(counts[1 - player]):
                            pair_rec = (rec, other) if player == 0 else (other, rec)
                            pair_act = (act, other) if player == 0 else (other, act)
                            j_rec = int(np.ravel_multi_index(pair_rec, counts))
                            j_act = int(np.ravel_multi_index(pair_act, counts))
                            total += game.kernel[0, s, j_act, s2] * pol[0, s, j_rec]
                        total /= ai
                        for rec2 in range(ai):
                            assert k[x, act, s2 * ai + rec2] == pytest.approx(total, abs=1e-12)
                    for other in range(counts[1 - player]):
                        pair_rec = (rec, other) if player == 0 else (other, rec)
                        stay += pol[0, s, int(np.ravel_multi_index(pair_rec, counts))]
                    assert k[x, act, n] == pytest.approx(1.0 - stay, abs=1e-12)


def test_mdp2_deterministic_inputs_quantized():
    rng = np.random.default_rng(4)
    game = random_game(rng, num_states=2, horizon=2)
    kernel = np.zeros_like(game.kernel)
    kernel[..., 0] = 1.0
    det_pol = np.zeros((2, 2, 4))
    det_pol[..., 2] = 1.0
    game = cm.ConstrainedMarkovGame(
        num_players=2, horizon=2, states=game.states, actions=game.actions,
        rewards=game.rewards, constraints=game.constraints, thresholds=game.thresholds,
        kernel=kernel, rho=np.array([1.0, 0.0]), constraint_mode=game.constraint_mode)
    mdp = cm.build_mdp2(game, 0, det_pol)
    ai = 2
    vals = np.unique(np.round(mdp.kernels[0] * ai, 12))
    assert set(vals.tolist()) <= {0.0, 1.0, ai * 1.0}   # entries in {0, k/ai}


def test_aux_occupancy_mass_and_absorbing(toy):
    rng = np.random.default_rng(5)
    pol = random_policy(rng, toy)
    mdp = cm.build_mdp1(toy, 0, pol)
    mod = random_nonmarkov_mod(rng, toy, 0)
    occ = cm.aux_occupancy(mdp, mdp_policy_from_modification(mdp, toy, mod))
    b_mass = []
    for t, table in enumerate(occ):
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        b_mass.append(table[-1].sum())
    assert all(b_mass[t + 1] >= b_mass[t] - 1e-12 for t in range(len(b_mass) - 1))


def test_history_marginal_scaling_identity(toy):
    """|A_i|^h-scaled history-MDP marginals reproduce the modified occupancy."""
    rng = np.random.default_rng(6)
    counts = toy.action_counts
    for player in range(2):
        pol = random_policy(rng, toy)
        mod = random_nonmarkov_mod(rng, toy, player)
        d_mod = cm.apply_nonmarkov(toy, pol, mod)
        mdp = cm.build_mdp1(toy, player, pol)
        occ = cm.aux_occupancy(mdp, mdp_policy_from_modification(mdp, toy, mod))
        ai = counts[player]
        for h in range(toy.horizon):
            cells = occ[h][:-1].reshape(-1, toy.num_states, ai, ai).sum(axis=0)
            for s in range(toy.num_states):
                for a in range(toy.num_joint_actions):
                    digits = list(np.unravel_index(a, counts))
                    played = digits[player]
                    total = 0.0
                    for rec in range(ai):
                        digits[player] = rec
                        joint = int(np.ravel_multi_index(digits, counts))
                        total += cells[s, rec, played] * pol[h, s, joint]
                    total *= float(ai) ** (h + 1)
                    assert total == pytest.approx(d_mod[h, s, a], abs=1e-9)


def test_collapsed_modification_marginal_equality(toy):
    """History-MDP (s, rec, played) marginals agree for phi and its collapse."""
    rng = np.random.default_rng(7)
    pol = random_policy(rng, toy)
    mod = random_nonmarkov_mod(rng, toy, 1)
    bar = cm.markovianize(toy, pol, mod)
    mdp = cm.build_mdp1(toy, 1, pol)
    occ_phi = cm.aux_occupancy(mdp, mdp_policy_from_modification(mdp, toy, mod))
    occ_bar = cm.aux_occupancy(mdp, mdp_policy_from_modification(mdp, toy, bar))
    ai = 2
    for t in range(toy.horizon):
        m_phi = occ_phi[t][:-1].reshape(-1, toy.num_states, ai, ai).sum(axis=0)
        m_bar = occ_bar[t][:-1].reshape(-1, toy.num_states, ai, ai).sum(axis=0)
        assert np.abs(m_phi - m_bar).max() <= 1e-9


# ---------------------------------------------------------------------------
# Lifted rewards and backward induction
# ---------------------------------------------------------------------------

def test_lift_zero_signal(toy):
    pol = cm.uniform_policy(toy)
    lifted = cm.lift_reward(toy, 0, pol, np.zeros_like(toy.rewards[0]))
    assert all(np.all(t == 0.0) for t in lifted)
    value, _ = cm.optimize_aux(cm.build_mdp2(toy, 0, pol), lifted, "max")
    assert value == 0.0


@pytest.mark.parametrize("seed, action_counts, player", [
    pytest.param(0, None, 0, id="0"),
    pytest.param(1, None, 1, id="1"),
    pytest.param(2, None, 0, id="2"),
    pytest.param(3, (2, 2, 2), 1, id="2x2x2-player1"),
    pytest.param(4, (3, 2), 0, id="3x2-player0"),
    pytest.param(5, (3, 2), 1, id="3x2-player1"),
])
def test_lifted_value_identity(toy, seed, action_counts, player):
    """V^{lifted}(phi) equals the signal value of the composed policy."""
    rng = np.random.default_rng(seed)
    game = toy if action_counts is None else random_game(
        rng, num_states=2, horizon=2, action_counts=action_counts)
    pol = random_policy(rng, game)
    mdp = cm.build_mdp2(game, player, pol)
    for signal in (game.rewards[player], game.constraint_table(player, 0)):
        lifted = cm.lift_reward(game, player, pol, signal)
        for _ in range(3):
            phi = random_markov_mod(rng, game, player)
            occ = cm.aux_occupancy(mdp, mdp_policy_from_modification(mdp, game, phi))
            lhs = lifted_value(mdp, lifted, occ)
            composed = cm.apply_modification(game, pol, phi)
            rhs = float(np.sum(cm.compute_occupancy(game, composed) * signal))
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_lifted_value_identity_all_det_example2():
    game = cm.load_game(cm.bundled_path("example2.game"))
    pol = cm.uniform_policy(game)
    mdp = cm.build_mdp2(game, 0, pol)
    signal = game.constraint_table(0, 0)
    lifted = cm.lift_reward(game, 0, pol, signal)
    mods, _ = cm.enumerate_det_modifications(game, 0)
    for mod in mods:
        occ = cm.aux_occupancy(mdp, mdp_policy_from_modification(mdp, game, mod))
        lhs = lifted_value(mdp, lifted, occ)
        rhs = float(np.sum(
            cm.compute_occupancy(game, cm.apply_modification(game, pol, mod)) * signal))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_optimize_aux_example2_max_and_min():
    game = cm.load_game(cm.bundled_path("example2.game"))
    pol = cm.uniform_policy(game)
    mdp = cm.build_mdp2(game, 0, pol)
    value, argmod = cm.optimize_aux(mdp, cm.lift_reward(game, 0, pol, game.rewards[0]), "max")
    assert value == pytest.approx(0.5, abs=1e-12)
    assert tuple(argmod.tables[0, 0].argmax(axis=1)) == (0, 0)   # always play first action
    vmin, argmin_ = cm.optimize_aux(
        mdp, cm.lift_reward(game, 0, pol, game.constraint_table(0, 0)), "min")
    assert vmin == pytest.approx(0.0, abs=1e-12)
    assert tuple(argmin_.tables[0, 0].argmax(axis=1)) == (1, 1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_backward_induction_matches_exhaustive(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, num_states=2, horizon=2)
    pol = random_policy(rng, game)
    player = seed % 2
    vals = modification_values(game, player, pol)
    mdp = cm.build_mdp2(game, player, pol)
    lifted = cm.lift_reward(game, player, pol, game.rewards[player])
    vmax, argmod = cm.optimize_aux(mdp, lifted, "max")
    assert vmax == pytest.approx(float(vals.reward.max()), abs=1e-9)
    achieved = float(np.sum(
        cm.compute_occupancy(game, cm.apply_modification(game, pol, argmod))
        * game.rewards[player]))
    assert achieved == pytest.approx(vmax, abs=1e-9)
    vmin, _ = cm.optimize_aux(mdp, lifted, "min")
    assert vmin == pytest.approx(float(vals.reward.min()), abs=1e-9)


def test_optimize_aux_tie_break_lexicographic(toy):
    pol = cm.uniform_policy(toy)
    mdp = cm.build_mdp2(toy, 0, pol)
    lifted = cm.lift_reward(toy, 0, pol, np.zeros_like(toy.rewards[0]))
    _, argmod = cm.optimize_aux(mdp, lifted, "max")
    assert np.all(argmod.tables[..., 0] == 1.0)   # all-zero reward: pick action 0 everywhere


def test_asymmetric_action_counts_end_to_end():
    """Nothing in the pipeline may assume equal per-player action counts."""
    rng = np.random.default_rng(42)
    game = random_game(rng, num_states=2, horizon=2, action_counts=(2, 3), j=2)
    pol = random_policy(rng, game)
    for player in range(2):
        mdp1 = cm.build_mdp1(game, player, pol)
        mdp2 = cm.build_mdp2(game, player, pol)
        for kern in list(mdp1.kernels) + list(mdp2.kernels):
            assert np.abs(kern.sum(axis=-1) - 1.0).max() <= 1e-12
        nm = random_nonmarkov_mod(rng, game, player)
        occ_nm = cm.apply_nonmarkov(game, pol, nm)
        assert np.abs(occ_nm - modified_trajectory_occupancy(game, pol, nm)).max() <= 1e-12
        bar = cm.markovianize(game, pol, nm)
        occ_bar = cm.compute_occupancy(game, cm.apply_modification(game, pol, bar))
        assert np.abs(occ_nm - occ_bar).max() <= 1e-9
        lifted = cm.lift_reward(game, player, pol, game.rewards[player])
        occ = cm.aux_occupancy(mdp2, mdp_policy_from_modification(mdp2, game, bar))
        lhs = lifted_value(mdp2, lifted, occ)
        rhs = float(np.sum(occ_bar * game.rewards[player]))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_modification_from_alpha_realizes_mixture(toy):
    rng = np.random.default_rng(9)
    for player in range(2):
        pol = random_policy(rng, toy)
        vals = modification_values(toy, player, pol)
        alpha = rng.dirichlet(np.ones(len(vals.mods)))
        mixed = cm.mix_occupancies(alpha, vals.occupancies)
        phi = cm.modification_from_alpha(toy, player, pol, alpha, vals.mods)
        occ = cm.compute_occupancy(toy, cm.apply_modification(toy, pol, phi))
        assert np.abs(occ - mixed).max() <= 1e-9


def _modified_occupancy(game, pol, mod):
    return cm.compute_occupancy(game, cm.apply_modification(game, pol, mod))


@pytest.mark.parametrize("seed,states,horizon,action_counts,player", [
    (1, 2, 1, (2, 2), 0),
    (2, 2, 2, (2, 2), 1),
    (3, 1, 3, (2, 2), 0),
    (4, 1, 1, (3, 2), 0),
    (5, 2, 2, (3, 2), 1),
    (6, 2, 1, (2, 2, 2), 2),
    (7, 2, 2, (1, 2), 0),     # single-action player: K = 1
    (8, 2, 2, (1, 2), 1),
])
def test_alpha_from_modification_is_a_hull_witness(seed, states, horizon, action_counts,
                                                   player):
    rng = np.random.default_rng(seed)
    game = random_game(rng, num_states=states, horizon=horizon, action_counts=action_counts)
    pol = random_policy(rng, game)
    vals = modification_values(game, player, pol)
    phi = random_markov_mod(rng, game, player)
    d_phi = _modified_occupancy(game, pol, phi)
    alpha = cm.alpha_from_modification(phi, vals.mods)
    assert alpha.min() >= 0.0 and abs(alpha.sum() - 1.0) <= 1e-12
    assert np.abs(cm.mix_occupancies(alpha, vals.occupancies) - d_phi).max() <= 1e-12
    assert cm.hull_membership(d_phi, list(vals.occupancies)).member
    # Round trip through the inverse read-back.
    back = cm.modification_from_alpha(game, player, pol, alpha, vals.mods)
    assert np.abs(_modified_occupancy(game, pol, back) - d_phi).max() <= 1e-12


def test_alpha_from_modification_rejects_outside_point():
    # phi's occupancy under another policy is outside the hull of pol's
    # deterministic modifications: the witness misses it, and so does the oracle.
    rng = np.random.default_rng(11)
    game = random_game(rng, num_states=2, horizon=2)
    pol, other = random_policy(rng, game), random_policy(rng, game)
    vals = modification_values(game, 0, pol)
    phi = random_markov_mod(rng, game, 0)
    outside = _modified_occupancy(game, other, phi)
    alpha = cm.alpha_from_modification(phi, vals.mods)
    assert np.abs(cm.mix_occupancies(alpha, vals.occupancies) - outside).max() > 1e-7
    assert not cm.hull_membership(outside, list(vals.occupancies)).member
