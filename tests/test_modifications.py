"""Modification composition, enumeration, non-Markov processing, markovianization."""

import numpy as np
import pytest

import cmgames as cm
from cmgames.aux_mdps import mdp_policy_from_modification
from cmgames.modifications import CapExceededError, count_det_modifications
from oracles import (
    composed_policy_oracle,
    modified_trajectory_occupancy,
    nonmarkov_from_markov,
    random_game,
    random_markov_mod,
    random_nonmarkov_mod,
    random_policy,
)


@pytest.fixture(scope="module")
def example1():
    return cm.load_game(cm.bundled_path("example1.game"))


@pytest.fixture(scope="module")
def toy():
    return cm.load_game(cm.bundled_path("toy_h2.game"))


def test_identity_is_identity(toy):
    rng = np.random.default_rng(0)
    pol = random_policy(rng, toy)
    for player in range(2):
        out = cm.apply_modification(toy, pol, cm.identity_modification(toy, player))
        assert np.array_equal(out, pol)


def test_example1_const2(example1):
    pol = np.array([[[0.5, 1 / 3, 0.0, 1 / 6]]])
    tab = np.zeros((1, 1, 2, 2))
    tab[..., 1] = 1.0
    out = cm.apply_modification(example1, pol, cm.MarkovModification(player=1, tables=tab))
    assert np.abs(out[0, 0] - np.array([0.0, 5 / 6, 0.0, 1 / 6])).max() <= 1e-15


@pytest.mark.parametrize("player", [0, 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_composition_matches_double_sum(player, seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, num_states=2, horizon=2, action_counts=(2, 3))
    pol = random_policy(rng, game)
    mod = random_markov_mod(rng, game, player)
    got = cm.apply_modification(game, pol, mod)
    want = composed_policy_oracle(game, pol, mod)
    assert np.abs(got - want).max() <= 1e-12
    cm.validate_policy(game, got)


def test_composition_affine_in_phi(toy):
    rng = np.random.default_rng(3)
    pol = random_policy(rng, toy)
    m1 = random_markov_mod(rng, toy, 0)
    m2 = random_markov_mod(rng, toy, 0)
    lam = 0.4
    mixed = cm.MarkovModification(player=0, tables=lam * m1.tables + (1 - lam) * m2.tables)
    got = cm.apply_modification(toy, pol, mixed)
    want = (lam * cm.apply_modification(toy, pol, m1)
            + (1 - lam) * cm.apply_modification(toy, pol, m2))
    assert np.abs(got - want).max() <= 1e-12


def test_modification_rows_validated(toy):
    tab = np.full((2, 2, 2, 2), 0.6)
    with pytest.raises(ValueError, match="sum"):
        cm.apply_modification(toy, cm.uniform_policy(toy),
                              cm.MarkovModification(player=0, tables=tab))


# ---------------------------------------------------------------------------
# Deterministic enumeration
# ---------------------------------------------------------------------------

def test_example2_four_modifications():
    game = cm.load_game(cm.bundled_path("example2.game"))
    mods, identity_index = cm.enumerate_det_modifications(game, 0)
    assert len(mods) == 4
    targets = [tuple(m.tables[0, 0].argmax(axis=1)) for m in mods]
    # canonical order: const-first, identity, swap, const-second
    assert targets == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert identity_index == 1
    assert all(m.is_deterministic for m in mods)


def test_singleton_action_set():
    rng = np.random.default_rng(8)
    # H*|S| = 72 cells is past numpy's 64-axis limit, so digits may not be
    # computed by unravelling over one axis per cell
    for num_states, horizon in ((2, 2), (9, 8)):
        game = random_game(rng, num_states=num_states, horizon=horizon, action_counts=(1, 3))
        mods, identity_index = cm.enumerate_det_modifications(game, 0)
        assert len(mods) == 1 and identity_index == 0
        assert np.array_equal(mods[0].tables, cm.identity_modification(game, 0).tables)


def test_enumeration_count_2x2x2():
    rng = np.random.default_rng(9)
    game = random_game(rng, num_states=2, horizon=2, action_counts=(2, 2))
    mods, identity_index = cm.enumerate_det_modifications(game, 1)
    assert len(mods) == 2 ** 8 == 256
    assert len({m.tables.tobytes() for m in mods}) == 256   # all distinct
    ident = cm.identity_modification(game, 1)
    assert np.array_equal(mods[identity_index].tables, ident.tables)
    # family size and identity index for every player of (2,2), (3,2), (2,2,2)
    for counts in ((2, 2), (3, 2), (2, 2, 2)):
        game = random_game(rng, num_states=2, horizon=1, action_counts=counts)
        for player in range(game.num_players):
            mods, identity_index = cm.enumerate_det_modifications(game, player)
            assert len(mods) == count_det_modifications(game, player)
            ident = cm.identity_modification(game, player)
            assert np.array_equal(mods[identity_index].tables, ident.tables)


def test_enumeration_cap():
    rng = np.random.default_rng(10)
    game = random_game(rng, num_states=2, horizon=2, action_counts=(2, 2))
    with pytest.raises(CapExceededError):
        cm.enumerate_det_modifications(game, 0, cap=100)


# ---------------------------------------------------------------------------
# Non-Markov modifications
# ---------------------------------------------------------------------------

def test_nonmarkov_ignoring_history_equals_markov(toy):
    rng = np.random.default_rng(11)
    pol = random_policy(rng, toy)
    phi = random_markov_mod(rng, toy, 1)
    lifted = nonmarkov_from_markov(toy, phi)
    occ_nm = cm.apply_nonmarkov(toy, pol, lifted)
    occ_m = cm.compute_occupancy(toy, cm.apply_modification(toy, pol, phi))
    assert np.abs(occ_nm - occ_m).max() <= 1e-12


def test_nonmarkov_identity(toy):
    rng = np.random.default_rng(12)
    pol = random_policy(rng, toy)
    lifted = nonmarkov_from_markov(toy, cm.identity_modification(toy, 0))
    occ = cm.apply_nonmarkov(toy, pol, lifted)
    assert np.abs(occ - cm.compute_occupancy(toy, pol)).max() <= 1e-15


def test_nonmarkov_history_dependence_hand_enumerated():
    # H=2 game; at t=2 play action 1 iff the first joint action was (1, 1).
    rng = np.random.default_rng(13)
    game = random_game(rng, num_states=2, horizon=2)
    pol = random_policy(rng, game)
    sa = game.num_states * game.num_joint_actions
    ai = 2
    t2 = np.zeros((sa, game.num_states, ai, ai))
    for h in range(sa):
        first_joint = h % game.num_joint_actions
        target = 0 if first_joint == 0 else 1
        t2[h, :, :, target] = 1.0
    t1 = np.zeros((1, game.num_states, ai, ai))
    t1[..., np.arange(ai), np.arange(ai)] = 1.0   # identity at t=1
    mod = cm.NonMarkovModification(player=0, tables=(t1, t2))
    got = cm.apply_nonmarkov(game, pol, mod)
    want = modified_trajectory_occupancy(game, pol, mod)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_nonmarkov_matches_trajectory_oracle(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, num_states=2, horizon=2)
    pol = random_policy(rng, game)
    mod = random_nonmarkov_mod(rng, game, seed % 2)
    got = cm.apply_nonmarkov(game, pol, mod)
    want = modified_trajectory_occupancy(game, pol, mod)
    assert np.abs(got - want).max() <= 1e-12


def test_nonmarkov_history_cap(toy):
    rng = np.random.default_rng(14)
    mod = random_nonmarkov_mod(rng, toy, 0)
    with pytest.raises(CapExceededError):
        cm.apply_nonmarkov(toy, cm.uniform_policy(toy), mod, history_cap=4)


# ---------------------------------------------------------------------------
# Markovianization
# ---------------------------------------------------------------------------

def test_markovianize_fixed_point(toy):
    rng = np.random.default_rng(15)
    pol = random_policy(rng, toy)
    phi = random_markov_mod(rng, toy, 0)
    bar = cm.markovianize(toy, pol, nonmarkov_from_markov(toy, phi))
    occ_phi = cm.compute_occupancy(toy, cm.apply_modification(toy, pol, phi))
    occ_bar = cm.compute_occupancy(toy, cm.apply_modification(toy, pol, bar))
    assert np.abs(occ_phi - occ_bar).max() <= 1e-12
    # equal on reachable cells
    mdp = cm.build_mdp1(toy, 0, pol)
    occ1 = cm.aux_occupancy(mdp, mdp_policy_from_modification(
        mdp, toy, nonmarkov_from_markov(toy, phi)))
    for t in range(toy.horizon):
        reach = occ1[t][:-1].reshape(-1, toy.num_states, 2, 2).sum(axis=(0, 3))
        mask = reach > 1e-12
        assert np.abs((bar.tables[t] - phi.tables[t])[mask]).max() <= 1e-9


@pytest.mark.parametrize("seed, action_counts, player", [
    pytest.param(0, (2, 2), 1, id="0"),
    pytest.param(1, (2, 2), 1, id="1"),
    pytest.param(2, (2, 2), 1, id="2"),
    pytest.param(3, (2, 2, 2), 1, id="2x2x2-player1"),
    pytest.param(4, (3, 2), 0, id="3x2-player0"),
    pytest.param(5, (3, 2), 1, id="3x2-player1"),
])
def test_markovianize_preserves_occupancy(seed, action_counts, player):
    rng = np.random.default_rng(seed)
    game = random_game(rng, num_states=2, horizon=2, action_counts=action_counts)
    pol = random_policy(rng, game)
    mod = random_nonmarkov_mod(rng, game, player)
    occ_nm = cm.apply_nonmarkov(game, pol, mod)
    assert np.abs(occ_nm - modified_trajectory_occupancy(game, pol, mod)).max() <= 1e-12
    bar = cm.markovianize(game, pol, mod)
    occ_bar = cm.compute_occupancy(game, cm.apply_modification(game, pol, bar))
    assert np.abs(occ_nm - occ_bar).max() <= 1e-9


def test_markovianize_unreachable_cell_uniform():
    rng = np.random.default_rng(16)
    base = random_game(rng, num_states=2, horizon=2)
    kernel = np.zeros_like(base.kernel)
    kernel[..., 0] = 1.0   # state 1 is never reached
    game = cm.ConstrainedMarkovGame(
        num_players=2, horizon=2, states=base.states, actions=base.actions,
        rewards=base.rewards, constraints=base.constraints, thresholds=base.thresholds,
        kernel=kernel, rho=np.array([1.0, 0.0]), constraint_mode=base.constraint_mode)
    pol = random_policy(rng, game)
    mod = random_nonmarkov_mod(rng, game, 0)
    bar = cm.markovianize(game, pol, mod)
    # unreachable state rows fall to the canonical uniform branch, reachable ones do not
    assert np.all(bar.tables[:, 1] == 0.5)
    assert not np.all(bar.tables[:, 0] == 0.5)


def test_nonmarkov_horizon3_matches_oracle():
    rng = np.random.default_rng(18)
    game = random_game(rng, num_states=2, horizon=3)
    pol = random_policy(rng, game)
    mod = random_nonmarkov_mod(rng, game, 1)
    got = cm.apply_nonmarkov(game, pol, mod)
    assert np.abs(got - modified_trajectory_occupancy(game, pol, mod)).max() <= 1e-12
    bar = cm.markovianize(game, pol, mod)
    occ_bar = cm.compute_occupancy(game, cm.apply_modification(game, pol, bar))
    assert np.abs(got - occ_bar).max() <= 1e-9


def test_nonmarkov_occupancy_in_det_hull():
    from cmgames.lp import modification_values

    rng = np.random.default_rng(17)
    game = random_game(rng, num_states=2, horizon=2)
    pol = random_policy(rng, game)
    vals = modification_values(game, 0, pol)
    for _ in range(3):
        mod = random_nonmarkov_mod(rng, game, 0)
        occ = cm.apply_nonmarkov(game, pol, mod)
        res = cm.hull_membership(occ, list(vals.occupancies))
        assert res.member and res.residual <= 1e-7
