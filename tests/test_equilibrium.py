"""Equilibrium certificates, Slater diagnostics and the fixed-point search."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import cmgames as cm
from cmgames import equilibrium as eqmod
from cmgames.equilibrium import NoFeasibleStartError
from cmgames.game import COMMON
from cmgames.lp import modification_values
from cmgames.modifications import DEFAULT_ENUM_CAP, count_det_modifications
from oracles import random_game, random_markov_mod, random_policy, weak_slater_harness_oracle


@pytest.fixture(scope="module")
def example1():
    return cm.load_game(cm.bundled_path("example1.game"))


@pytest.fixture(scope="module")
def example2():
    return cm.load_game(cm.bundled_path("example2.game"))


@pytest.fixture(scope="module")
def toy():
    return cm.load_game(cm.bundled_path("toy_h2.game"))


def test_verify_example2_uniform(example2):
    cert = cm.verify_cce(example2, cm.uniform_policy(example2), tol=1e-9)
    assert cert.verdict == "constrained_CE"
    assert cert.gaps.max() <= 1e-9
    assert np.abs(cert.slacks).max() <= 1e-12


def test_verify_example1_mixed(example1):
    pol = cm.load_policy(cm.bundled_path("example1_mixed.policy"), example1)
    cert = cm.verify_cce(example1, pol)
    assert cert.verdict == "not_CE"
    assert cert.gaps[1] == pytest.approx(0.5, abs=1e-9)


def test_verify_infeasible_policy(example1):
    pol = np.zeros((1, 1, 4))
    pol[0, 0, 3] = 1.0
    cert = cm.verify_cce(example1, pol)
    assert cert.verdict == "infeasible_policy"
    assert cert.gaps is None
    assert cert.slacks.min() < 0


def test_numerical_lp_status_raises(example2, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    uniform = cm.uniform_policy(example2)
    with pytest.raises(cm.NumericalLPError):
        cm.verify_cce(example2, uniform)
    with pytest.raises(cm.NumericalLPError):
        cm.find_cce(example2, initial=uniform)
    with pytest.raises(cm.NumericalLPError):
        cm.feasible_occupancy(example2)


def test_verify_policy_feasible_within_tol(example2):
    """Slacks of +-2e-7 pass a 1e-6 check; the pair program's thresholds are
    floored at the policy's own values, so the identity modification stays
    feasible and the certificate is issued instead of a crash."""
    policy = cm.uniform_policy(example2)
    policy[0, 0, 0] -= 2e-7
    policy[0, 0, 1] += 2e-7
    assert cm.feasibility(example2, policy).slacks.min() == pytest.approx(-2e-7, rel=1e-6)
    cert = cm.verify_cce(example2, policy, tol=1e-6)
    assert cert.verdict == "constrained_CE"
    assert np.abs(cert.gaps).max() <= 1e-12
    # A strictly feasible policy keeps the exact thresholds: its Psi is unchanged.
    assert cm.verify_cce(example2, cm.uniform_policy(example2)).psi.tolist() == [0.25, 0.25]


def test_verify_dominates_sampled_feasible_modifications(toy):
    """The LP gap is an upper bound on every feasible stochastic deviation's gain."""
    rng = np.random.default_rng(0)
    pol = cm.occupancy_to_policy(toy, cm.feasible_occupancy(toy))
    cert = cm.verify_cce(toy, pol, tol=1e-9)
    assert cert.verdict != "infeasible_policy"
    for i in range(2):
        for _ in range(10):
            phi = random_markov_mod(rng, toy, i)
            occ = cm.compute_occupancy(toy, cm.apply_modification(toy, pol, phi))
            slacks = cm.evaluate(toy, occ).constraint[i] - toy.thresholds
            if slacks.min() < -1e-9:
                continue   # infeasible deviations do not bound Psi
            value = float(np.sum(occ * toy.rewards[i]))
            assert cert.psi[i] >= value - 1e-9


def test_verify_dominates_history_dependent_modifications(toy):
    """Psi also bounds feasible history-dependent deviations (class equivalence)."""
    from oracles import random_nonmarkov_mod

    rng = np.random.default_rng(1)
    pol = cm.occupancy_to_policy(toy, cm.feasible_occupancy(toy))
    cert = cm.verify_cce(toy, pol, tol=1e-9)
    checked = 0
    for i in range(2):
        for _ in range(15):
            nm = random_nonmarkov_mod(rng, toy, i)
            occ = cm.apply_nonmarkov(toy, pol, nm)
            slacks = cm.evaluate(toy, occ).constraint[i] - toy.thresholds
            if slacks.min() < -1e-9:
                continue
            value = float(np.sum(occ * toy.rewards[i]))
            assert cert.psi[i] >= value - 1e-9
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# Slater conditions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed,counts,mode", [
    (0, (2, 2), "common"), (1, (2, 2), "playerwise"),
    (2, (3, 2), "common"), (3, (2, 2, 2), "playerwise")])
def test_verify_unconstrained_psi_is_best_deviation(seed, counts, mode):
    # With J = 0, Psi^i is the unconstrained best deviation, which backward
    # induction on the pair MDP finds without a linear program.
    rng = np.random.default_rng(seed)
    game = random_game(rng, num_states=2, horizon=2, action_counts=counts, j=0, mode=mode)
    pol = random_policy(rng, game)
    cert = cm.verify_cce(game, pol)
    assert cert.slacks.shape == (len(counts), 0)
    for i in range(len(counts)):
        lifted = cm.lift_reward(game, i, pol, game.rewards[i])
        best, _ = cm.optimize_aux(cm.build_mdp2(game, i, pol), lifted, "max")
        assert abs(cert.psi[i] - best) <= 1e-9


def test_strong_slater_example1(example1):
    pol = np.zeros((1, 1, 4))
    pol[0, 0, 3] = 1.0
    for i in range(2):
        res = cm.check_strong_slater_at(example1, i, pol)
        assert not res.holds
        assert res.margin < 0


def test_strong_slater_example2(example2):
    for i in range(2):
        res = cm.check_strong_slater_at(example2, i, cm.uniform_policy(example2))
        assert not res.holds
        assert res.margin == pytest.approx(0.0, abs=1e-9)


def test_strong_slater_trivial_thresholds(example2):
    doc = cm.game_to_dict(example2)
    doc["thresholds"] = [-1.0] * 4
    game = cm.parse_game(doc)
    res = cm.check_strong_slater_at(game, 0, cm.uniform_policy(game))
    assert res.holds
    assert res.margin >= 1.0 - 1e-9
    # identity weights are a valid strict witness
    vals = modification_values(game, 0, cm.uniform_policy(game))
    ident = np.zeros(len(vals.mods))
    ident[cm.enumerate_det_modifications(game, 0)[1]] = 1.0
    assert (vals.constraint @ ident - vals.thresholds).min() >= 1.0 - 1e-12


def test_weak_slater_example2(example2):
    res = cm.check_weak_slater_at(example2, 0, cm.uniform_policy(example2))
    assert res.applicable
    assert res.condition1 is False
    assert res.condition2a is True
    assert max(abs(v) for v in res.minima) <= 1e-9
    assert res.condition2b is True and res.min_weight == 1e-3
    assert res.satisfied and res.branch == "condition2"


def test_weak_slater_interior_not_applicable(toy):
    pol = cm.uniform_policy(toy)   # slacks are 0.1 and 0.3, strictly interior
    res = cm.check_weak_slater_at(toy, 0, pol)
    assert not res.applicable
    assert res.satisfied is None


def test_weak_slater_zero_thresholds_interior():
    rng = np.random.default_rng(1)
    game = random_game(rng, num_states=2, horizon=2, threshold_scale=0.0)
    res = cm.check_weak_slater_at(game, 0, random_policy(rng, game))
    assert not res.applicable


def test_weak_slater_playerwise_rejected(example1):
    with pytest.raises(ValueError, match="common"):
        cm.check_weak_slater_at(example1, 0, cm.uniform_policy(example1))


def test_weak_slater_infeasible_rejected(example2):
    pol = np.zeros((1, 1, 4))
    pol[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="infeasible"):
        cm.check_weak_slater_at(example2, 0, pol)


def test_sampling_strong_example1_finds_failures(example1):
    rep = cm.slater_sampling_harness(example1, "strong", 100, seed=0)
    assert rep.tested == 100
    assert len(rep.failures) >= 1
    f = rep.failures[0]
    assert not cm.check_strong_slater_at(example1, f.player, f.policy).holds


def test_sampling_strong_clean_when_trivial(example2):
    doc = cm.game_to_dict(example2)
    doc["thresholds"] = [-1.0] * 4
    game = cm.parse_game(doc)
    rep = cm.slater_sampling_harness(game, "strong", 50, seed=3)
    assert rep.clean


def test_sampling_weak_example2(example2):
    rep = cm.slater_sampling_harness(example2, "weak", 25, seed=0)
    assert rep.clean
    assert rep.tested >= 1
    assert not rep.feasible_set_empty
    # every boundary sample lands on the unique feasible policy and passes
    # through the second condition
    for sample in rep.samples:
        assert np.abs(sample.policy - 0.25).max() <= 1e-9
        for res in sample.player_results:
            assert res["satisfied"] and res["branch"] == "condition2"


def test_sampling_weak_empty_feasible(example2):
    doc = cm.game_to_dict(example2)
    doc["thresholds"] = [0.9] * 4
    game = cm.parse_game(doc)
    rep = cm.slater_sampling_harness(game, "weak", 5, seed=0)
    assert rep.feasible_set_empty and rep.tested == 0


def _interior_anchor_game():
    """A common game whose anchor lies strictly inside the feasible set: the
    thresholds are 0.95 times the constraint values of a first game's anchor,
    so weak samples bisect to distinct boundary policies (or to none)."""
    game = random_game(np.random.default_rng(9), num_states=2, horizon=2, threshold_scale=0.3)
    anchor = cm.occupancy_to_policy(game, cm.feasible_occupancy(game))
    values = cm.evaluate(game, cm.compute_occupancy(game, anchor)).constraint[0]
    return dataclasses.replace(game, thresholds=0.95 * values)


@pytest.mark.parametrize("name, num_samples, seed, distinct", [
    ("toy_h2.game", 20, 0, 1),        # the anchor is on the boundary; players fail
    ("example2.game", 20, 5, 1),      # the unique feasible policy
    (None, 10, 0, 5),                 # interior anchor; 5 of 10 samples not applicable
])
def test_weak_harness_equals_per_sample_oracle(name, num_samples, seed, distinct):
    game = _interior_anchor_game() if name is None else cm.load_game(cm.bundled_path(name))
    rep = cm.slater_sampling_harness(game, "weak", num_samples, seed)
    assert len({s.policy.tobytes() for s in rep.samples}) == distinct
    assert rep.as_dict() == weak_slater_harness_oracle(game, num_samples, seed).as_dict()
    if name == "toy_h2.game":
        assert rep.tested == num_samples and len(rep.failures) >= num_samples


@pytest.mark.parametrize("name", ["toy_h2.game", "example2.game", None])
def test_weak_harness_checks_each_boundary_policy_once(name, monkeypatch):
    game = _interior_anchor_game() if name is None else cm.load_game(cm.bundled_path(name))
    calls = []
    real = eqmod.check_weak_slater_at

    def counting(game, player, policy):
        calls.append((policy.tobytes(), player))
        return real(game, player, policy)

    monkeypatch.setattr(eqmod, "check_weak_slater_at", counting)
    rep = cm.slater_sampling_harness(game, "weak", 20, seed=1)
    assert rep.tested >= 2
    assert sorted(calls) == sorted({(s.policy.tobytes(), i) for s in rep.samples
                                    for i in range(game.num_players)})


def test_sampling_deterministic(example1):
    r1 = cm.slater_sampling_harness(example1, "strong", 30, seed=7)
    r2 = cm.slater_sampling_harness(example1, "strong", 30, seed=7)
    assert [(f.sample, f.player) for f in r1.failures] == \
        [(f.sample, f.player) for f in r2.failures]


# ---------------------------------------------------------------------------
# Feasible starting points and the fixed-point search
# ---------------------------------------------------------------------------

def test_feasible_occupancy_toy(toy):
    occ = cm.feasible_occupancy(toy)
    assert occ is not None
    cm.validate_occupancy(toy, occ)
    values = cm.evaluate(toy, occ)
    assert (values.constraint[0] - toy.thresholds).min() >= -1e-9


def test_feasible_occupancy_empty(example2):
    doc = cm.game_to_dict(example2)
    doc["thresholds"] = [0.3, 0.3, 0.3, 0.3]   # sums above 1, impossible
    game = cm.parse_game(doc)
    assert cm.feasible_occupancy(game) is None
    with pytest.raises(NoFeasibleStartError):
        cm.find_cce(game)


def test_find_example2_zero_iterations(example2):
    result = cm.find_cce(example2)
    assert result.trace.converged
    assert result.trace.iterations == 0
    assert result.certificate.verdict == "constrained_CE"
    assert np.abs(result.policy - 0.25).max() <= 1e-9


def test_find_requires_common_mode(example1):
    with pytest.raises(ValueError, match="common"):
        cm.find_cce(example1)


def test_find_rejects_infeasible_initial(example2):
    pol = np.zeros((1, 1, 4))
    pol[0, 0, 0] = 1.0
    with pytest.raises(NoFeasibleStartError):
        cm.find_cce(example2, initial=pol)


def test_find_single_player_unconstrained_reaches_optimum():
    rng = np.random.default_rng(5)
    a = 4
    rewards = rng.uniform(0, 1, size=(1, 1, 1, a))
    game = cm.ConstrainedMarkovGame(
        num_players=1, horizon=1, states=("s",), actions=(tuple("1234"),),
        rewards=rewards, constraints=np.zeros((1, 1, 1, a)),
        thresholds=np.array([0.0]), kernel=np.zeros((0, 1, a, 1)),
        rho=np.array([1.0]), constraint_mode=COMMON)
    result = cm.find_cce(game, max_iters=6000, tol=1e-3)
    assert result.trace.converged
    best = float(rewards.max())
    got = float(np.sum(result.occupancy * rewards[0]))
    assert got >= best - 1e-3


def test_find_trace_invariants(toy):
    # The search is deterministic, so each run's occupancy is exactly the
    # iterate after that many steps.
    for max_iters in (0, 1, 7, 40):
        result = cm.find_cce(toy, max_iters=max_iters, tol=1e-6)
        cm.validate_occupancy(toy, result.occupancy)
        # the returned policy, and so the certificate, belong to that occupancy
        assert np.array_equal(result.policy, cm.occupancy_to_policy(toy, result.occupancy))
        assert result.trace.iterations == max_iters
    assert not result.trace.converged   # this instance stalls; the verdict rules
    for step in result.trace.steps:
        assert 0.0 <= step.step_size <= 0.5
        assert step.min_slack >= -1e-7
    assert result.certificate.verdict in ("constrained_CE", "not_CE")


def test_find_round_robin_rule(toy):
    result = cm.find_cce(toy, max_iters=6, tol=1e-6, player_rule="round-robin")
    players = [s.chosen_player for s in result.trace.steps]
    assert players == [0, 1, 0, 1, 0, 1]


def test_find_converged_implies_verified():
    rng = np.random.default_rng(11)
    a = 4
    for seed in range(8):
        g_rng = np.random.default_rng(seed)
        rewards = g_rng.uniform(0, 1, size=(2, 1, 1, a))
        anchor = g_rng.dirichlet(np.ones(a))
        beta = 0.25
        cons = ((1 - beta) * np.eye(a) + beta * g_rng.uniform(0, 1, (a, a))).reshape(a, 1, 1, a)
        game = cm.ConstrainedMarkovGame(
            num_players=2, horizon=1, states=("s",), actions=(("1", "2"), ("1", "2")),
            rewards=rewards, constraints=cons,
            thresholds=cons.reshape(a, -1) @ anchor,
            kernel=np.zeros((0, 1, a, 1)), rho=np.array([1.0]),
            constraint_mode=COMMON)
        result = cm.find_cce(game, max_iters=200, tol=1e-6)
        if result.trace.converged:
            cert = cm.verify_cce(game, result.policy, tol=1e-6)
            assert cert.verdict == "constrained_CE"


def test_find_on_loose_h2_game_runs_its_budget():
    # A loose H = 2 game on which the search, when every best-modification
    # program still ran phase 1, hit a singular phase-2 basis mid-search.
    # Starting those programs at the identity takes another phase-2 path.
    game = cm.load_game(Path(__file__).parent / "data" / "find_singular_basis.game")
    result = cm.find_cce(game, max_iters=20, tol=1e-6)
    assert not result.trace.converged and len(result.trace.steps) == 20
    recheck = cm.verify_cce(game, result.policy, tol=1e-6)
    assert result.certificate.verdict == recheck.verdict == "not_CE"
    assert np.abs(result.certificate.gaps - recheck.gaps).max() <= 1e-12


def test_find_certifies_last_iterate_of_pivot_limit_game():
    # The warm-started search ends this H = 1 game at a policy where player
    # 1's pair program is degenerate.  Phase 1 reached a near-singular basis
    # whose roundoff priced a basic column negative; re-entering it left the
    # basis unchanged until the pivot limit (exit 6).  The simplex now prices
    # nonbasic columns only.
    linprog = pytest.importorskip("scipy.optimize").linprog
    game = cm.load_game(Path(__file__).parent / "data" / "find_pivot_limit.game")
    result = cm.find_cce(game, max_iters=20, tol=1e-6)
    cert = result.certificate
    assert cert.verdict == "not_CE"
    values = cm.evaluate(game, cm.compute_occupancy(game, result.policy))
    for i in range(game.num_players):
        lp = cm.build_pair_occupancy_lp(game, i, result.policy)
        ref = linprog(-lp.c, A_ub=-lp.a_ub, b_ub=-np.minimum(lp.b_ub, values.constraint[i]),
                      A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=(0, None), method="highs")
        assert ref.status == 0 and cert.psi[i] == pytest.approx(-ref.fun, abs=1e-9)


def test_find_runs_past_the_enumeration_cap():
    # K^0 = 3^18: find solves pair programs and enumerates nothing.
    game = random_game(np.random.default_rng(12), num_states=3, horizon=2, action_counts=(3, 2))
    assert count_det_modifications(game, 0) > DEFAULT_ENUM_CAP
    result = cm.find_cce(game, max_iters=20, tol=1e-6)
    assert result.certificate.verdict in ("constrained_CE", "not_CE")
    assert result.certificate.verdict == cm.verify_cce(game, result.policy, tol=1e-6).verdict


def _certified_find_games():
    """Seeded H = 1..2 games and the three tests/data fixtures, common mode."""
    for seed in range(8):
        rng = np.random.default_rng(7600 + seed)
        yield random_game(rng, num_states=2, horizon=1 + seed % 2, action_counts=(2, 2),
                          j=1 + seed % 3, threshold_scale=0.9)
    for path in sorted((Path(__file__).parent / "data").glob("*.game")):
        game = cm.load_game(path)
        if game.constraint_mode != COMMON:
            # find needs common constraints: share player 1's rows.
            game = dataclasses.replace(game, constraints=game.constraints[0],
                                       thresholds=game.thresholds[0], constraint_mode=COMMON)
        yield game


def test_find_certificate_matches_cold_verify():
    """find's certificate comes from its warm-started programs, of the
    converged round or of one more round when the budget runs out; a cold
    verify_cce of the returned policy must agree with it."""
    ends = {"converged": 0, "budget": 0}
    for game in _certified_find_games():
        for rule in ("max-gap", "round-robin"):
            for max_iters in (0, 1, 20):
                for tol in (1e-6, 3e-2):
                    result = cm.find_cce(game, max_iters=max_iters, tol=tol, player_rule=rule)
                    cert, cold = result.certificate, cm.verify_cce(game, result.policy, tol=tol)
                    assert cert.verdict == cold.verdict and cert.tol == cold.tol
                    assert np.array_equal(cert.slacks, cold.slacks)
                    assert np.array_equal(cert.reward_values, cold.reward_values)
                    assert np.abs(cert.psi - cold.psi).max() <= 1e-12
                    assert np.abs(cert.gaps - cold.gaps).max() <= 1e-12
                    if result.trace.steps:
                        ends["converged" if result.trace.converged else "budget"] += 1
    assert ends["converged"] >= 2 and ends["budget"] >= 70
