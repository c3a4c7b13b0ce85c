"""Independent oracles and random-instance generators for the test suite.

Everything here recomputes quantities by brute force (explicit trajectory
sums, literal formula loops, basic-feasible-solution enumeration) so the
library's propagation/LP code paths are checked against arithmetic that
shares nothing with them.  The last section holds helpers that only the
tests use; they call into the library and are not oracles themselves.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from cmgames.dynamics import compute_occupancy, evaluate, normalize_or_uniform
from cmgames.game import COMMON, ConstrainedMarkovGame
from cmgames.lp import (
    OPTIMAL,
    LinearProgram,
    build_pair_occupancy_lp,
    modification_values,
    solve_lp,
)
from cmgames.modifications import (
    MarkovModification,
    NonMarkovModification,
    enumerate_det_modifications,
)


def all_paths(game):
    """Every (s_1, a_1, ..., s_H, a_H) trajectory as a tuple of (s, a) pairs."""
    sa = list(itertools.product(range(game.num_states), range(game.num_joint_actions)))
    return itertools.product(sa, repeat=game.horizon)


def path_probability(game, policy, path) -> float:
    s0, a0 = path[0]
    w = game.rho[s0] * policy[0, s0, a0]
    for t in range(1, len(path)):
        s_prev, a_prev = path[t - 1]
        s, a = path[t]
        w *= game.kernel[t - 1, s_prev, a_prev, s] * policy[t, s, a]
    return float(w)


def trajectory_occupancy(game, policy) -> np.ndarray:
    """Occupancy by summing explicit path probabilities (no forward recursion)."""
    occ = np.zeros((game.horizon, game.num_states, game.num_joint_actions))
    for path in all_paths(game):
        w = path_probability(game, policy, path)
        if w == 0.0:
            continue
        for t, (s, a) in enumerate(path):
            occ[t, s, a] += w
    return occ


def composed_policy_oracle(game, policy, mod) -> np.ndarray:
    """The modification composition as a literal double sum per cell."""
    i = mod.player
    counts = game.action_counts
    out = np.zeros_like(policy)
    for t in range(game.horizon):
        for s in range(game.num_states):
            for a in range(game.num_joint_actions):
                digits = list(np.unravel_index(a, counts))
                played = digits[i]
                total = 0.0
                for rec in range(counts[i]):
                    digits[i] = rec
                    joint = int(np.ravel_multi_index(digits, counts))
                    total += mod.tables[t, s, rec, played] * policy[t, s, joint]
                out[t, s, a] = total
    return out


def modified_trajectory_occupancy(game, policy, nm_mod) -> np.ndarray:
    """Occupancy of the non-Markov-modified process by explicit path recursion.

    The action probability at step t conditions on the realized history of
    states and played joint actions, matching the composition formula; every
    partial path contributes its weight to the occupancy of its last step.
    """
    i = nm_mod.player
    counts = game.action_counts
    sa = game.num_states * game.num_joint_actions
    occ = np.zeros((game.horizon, game.num_states, game.num_joint_actions))

    def composed(t, hist_idx, s, a):
        digits = list(np.unravel_index(a, counts))
        played = digits[i]
        total = 0.0
        for rec in range(counts[i]):
            digits[i] = rec
            joint = int(np.ravel_multi_index(digits, counts))
            total += nm_mod.tables[t][hist_idx, s, rec, played] * policy[t, s, joint]
        return total

    def walk(t, hist_idx, s, prob):
        if prob == 0.0:
            return
        for a in range(game.num_joint_actions):
            w = prob * composed(t, hist_idx, s, a)
            occ[t, s, a] += w
            if t + 1 < game.horizon and w > 0.0:
                nxt_hist = hist_idx * sa + s * game.num_joint_actions + a
                for s2 in range(game.num_states):
                    walk(t + 1, nxt_hist, s2, w * game.kernel[t, s, a, s2])

    for s in range(game.num_states):
        walk(0, 0, s, float(game.rho[s]))
    return occ


# ---------------------------------------------------------------------------
# Basic-feasible-solution enumeration for linear programs
# ---------------------------------------------------------------------------

def bfs_lp_oracle(lp) -> tuple[str, float | None]:
    """Enumerate all basic solutions of the standard equality form.

    Returns ("optimal", best objective) over feasible bases, or
    ("infeasible", None).  The caller must only use it on bounded programs.
    """
    n = lp.c.shape[0]
    m_ub, m_eq = lp.a_ub.shape[0], lp.a_eq.shape[0]
    rows = m_ub + m_eq
    cols = n + m_ub
    a = np.zeros((rows, cols))
    a[:m_ub, :n] = lp.a_ub
    a[:m_ub, n:] = -np.eye(m_ub)
    a[m_ub:, :n] = lp.a_eq
    b = np.concatenate([lp.b_ub, lp.b_eq])
    c_ext = np.concatenate([lp.c, np.zeros(m_ub)])

    if rows == 0:
        return "optimal", 0.0

    best = None
    for cols_pick in itertools.combinations(range(cols), rows):
        basis = a[:, cols_pick]
        try:
            x_b = np.linalg.solve(basis, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x_b)):
            continue
        if np.abs(basis @ x_b - b).max() > 1e-7:
            continue
        if x_b.min() < -1e-9:
            continue
        val = float(c_ext[list(cols_pick)] @ x_b)
        if best is None or val > best:
            best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def alpha_simplex_program(constraint, thresholds) -> LinearProgram:
    """The weights on the enumerated family as a program: C alpha >= c, sum alpha = 1.

    Its objective is zero; lp.max_min_slack ignores it.
    """
    k = constraint.shape[1]
    return LinearProgram.build(c=np.zeros(k), a_ub=constraint, b_ub=thresholds,
                               a_eq=np.ones((1, k)), b_eq=[1.0])


def min_weight_rows_oracle(constraint, thresholds, epsilon):
    """The min-weight program with one row alpha_k >= epsilon per weight.

    J + K + 1 rows: the form lp.min_weight_feasible had before it shifted
    the lower bounds into the right-hand side.  Returns alpha, or None when
    the program is infeasible.
    """
    from cmgames.lp import INFEASIBLE, LinearProgram, require_optimal, solve_lp

    k = constraint.shape[1]
    sol = solve_lp(LinearProgram.build(
        c=np.zeros(k),
        a_ub=np.vstack([constraint, np.eye(k)]),
        b_ub=np.concatenate([thresholds, np.full(k, epsilon)]),
        a_eq=np.ones((1, k)), b_eq=[1.0]))
    if sol.status == INFEASIBLE:
        return None
    require_optimal(sol.status, "reference min-weight program")
    return sol.x


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def random_game(rng, num_states=2, horizon=2, action_counts=(2, 2), j=2,
                mode=COMMON, threshold_scale=0.5) -> ConstrainedMarkovGame:
    """A random dense game; thresholds are scaled values at the uniform policy,
    so the uniform policy is feasible whenever threshold_scale <= 1."""
    n = len(action_counts)
    a = int(np.prod(action_counts))
    rewards = rng.uniform(0.0, 1.0, size=(n, horizon, num_states, a))
    kernel = rng.dirichlet(np.ones(num_states),
                           size=(horizon - 1, num_states, a))
    rho = rng.dirichlet(np.ones(num_states))
    uniform_occ = np.empty((horizon, num_states, a))
    marg = rho
    for t in range(horizon):
        uniform_occ[t] = marg[:, None] / a
        if t + 1 < horizon:
            marg = np.einsum("sa,say->y", uniform_occ[t], kernel[t])
    if mode == COMMON:
        cons = rng.uniform(0.0, 1.0, size=(j, horizon, num_states, a))
        thresholds = threshold_scale * (cons.reshape(j, uniform_occ.size) @ uniform_occ.reshape(-1))
    else:
        cons = rng.uniform(0.0, 1.0, size=(n, j, horizon, num_states, a))
        thresholds = threshold_scale * (
            cons.reshape(n * j, uniform_occ.size) @ uniform_occ.reshape(-1)).reshape(n, j)
    names = tuple(f"s{k}" for k in range(num_states))
    actions = tuple(tuple(str(x + 1) for x in range(cnt)) for cnt in action_counts)
    return ConstrainedMarkovGame(
        num_players=n, horizon=horizon, states=names, actions=actions,
        rewards=rewards, constraints=cons, thresholds=thresholds,
        kernel=kernel, rho=rho, constraint_mode=mode)


def random_policy(rng, game) -> np.ndarray:
    a = game.num_joint_actions
    return rng.dirichlet(np.ones(a), size=(game.horizon, game.num_states)).reshape(
        game.horizon, game.num_states, a)


def thresholds_at_policy(rng, game, policy, factors):
    """``game`` with each threshold at ``policy``'s own constraint value times a
    factor drawn from ``factors``: 1 puts the policy on that row's boundary,
    less than 1 inside the feasible set and more than 1 outside it."""
    values = evaluate(game, compute_occupancy(game, policy)).constraint
    values = values[0] if game.constraint_mode == COMMON else values
    return dataclasses.replace(game, thresholds=rng.choice(factors, size=values.shape) * values)


def random_markov_mod(rng, game, player):
    from cmgames.modifications import MarkovModification

    ai = game.action_counts[player]
    tables = rng.dirichlet(np.ones(ai), size=(game.horizon, game.num_states, ai))
    return MarkovModification(player=player, tables=tables)


def random_nonmarkov_mod(rng, game, player):
    from cmgames.modifications import NonMarkovModification

    ai = game.action_counts[player]
    sa = game.num_states * game.num_joint_actions
    tables = tuple(
        rng.dirichlet(np.ones(ai), size=(sa ** t, game.num_states, ai))
        for t in range(game.horizon))
    return NonMarkovModification(player=player, tables=tables)


# ---------------------------------------------------------------------------
# Helpers that only the tests use
# ---------------------------------------------------------------------------

def nonmarkov_from_markov(game, mod):
    """Lift a Markov modification to the history-keyed representation."""
    sa = game.num_states * game.num_joint_actions
    tables = tuple(
        np.broadcast_to(mod.tables[t], (sa ** t,) + mod.tables[t].shape).copy()
        for t in range(game.horizon))
    return NonMarkovModification(player=mod.player, tables=tables)


def lifted_value(mdp, lifted, occupancies) -> float:
    """Lifted reward summed against per-step auxiliary-MDP occupancies."""
    return float(sum(np.sum(occ * tab) for occ, tab in zip(occupancies, lifted)))


@dataclass(frozen=True)
class BestMarkovModification:
    status: str
    psi: float | None
    modification: MarkovModification | None


def best_markov_modification(game, player, policy) -> BestMarkovModification:
    """Psi^i(pi) from the pair-MDP occupancy program, with a modification attaining it.

    Stochastic Markov modifications are exactly the pair MDP's policies, and
    their pair occupancies form the polytope of the program, the convex hull
    of the deterministic modifications' occupancies; so the optimum equals
    the alpha-program's (best_feasible_modification) without enumerating
    K^i modifications.
    The modification is read back from x per (t, s, r) cell, uniform where
    the cell is unreachable, so apply_modification can check Psi^i and the
    constraints independently.
    """
    sol = solve_lp(build_pair_occupancy_lp(game, player, policy))
    if sol.status != OPTIMAL:
        return BestMarkovModification(status=sol.status, psi=None, modification=None)
    ai = game.action_counts[player]
    cells = sol.x.reshape(game.horizon, game.num_states, ai, ai)
    return BestMarkovModification(
        status=OPTIMAL, psi=sol.objective,
        modification=MarkovModification(player=player, tables=normalize_or_uniform(cells)))


def build_best_modification_lp(game, player, policy) -> LinearProgram:
    """The alpha-program: max sum_k alpha_k V^{r^i}(phi(k) o pi) over i-feasible alpha.

    One weight per enumerated deterministic modification, K^i variables.
    It starts at the identity modification's vertex, alpha = e_identity,
    with the surplus column of every constraint row basic: at an i-feasible
    policy that basis is feasible and the solver skips phase 1.
    """
    vals = modification_values(game, player, policy)
    _, identity = enumerate_det_modifications(game, player)
    k, j = len(vals.mods), vals.constraint.shape[0]
    return LinearProgram.build(
        c=vals.reward,
        a_ub=vals.constraint, b_ub=vals.thresholds,
        a_eq=np.ones((1, k)), b_eq=[1.0],
        start=(identity,) + tuple(range(k, k + j)))


@dataclass(frozen=True)
class BestModification:
    status: str
    psi: float | None
    alpha: np.ndarray | None


def best_feasible_modification(game, player, policy) -> BestModification:
    """Psi^i(pi) from the alpha-program, with its optimal weight vector (the Bland-rule vertex).

    Infeasible in playerwise mode when the policy itself is not i-feasible;
    at a feasible policy the identity weight vector is always feasible.
    """
    sol = solve_lp(build_best_modification_lp(game, player, policy))
    if sol.status != OPTIMAL:
        return BestModification(status=sol.status, psi=None, alpha=None)
    return BestModification(status=OPTIMAL, psi=sol.objective, alpha=sol.x)


def weak_slater_harness_oracle(game, num_samples, seed):
    """slater_sampling_harness(game, "weak", num_samples, seed) as a plain loop:
    every tested sample calls check_weak_slater_at once per player, even when
    samples share a boundary policy.  The reference for the harness's reuse
    of each distinct boundary policy's results."""
    from cmgames.equilibrium import (
        SlaterFailure,
        SlaterReport,
        SlaterSample,
        _boundary_policy,
        check_weak_slater_at,
        dirichlet_policy,
        feasible_occupancy,
    )
    from cmgames.dynamics import occupancy_to_policy

    rng = np.random.default_rng(seed)
    samples, failures, tested, not_applicable = [], [], 0, 0
    anchor_occ = feasible_occupancy(game)
    if anchor_occ is not None:
        anchor = occupancy_to_policy(game, anchor_occ)
        for k in range(num_samples):
            boundary = _boundary_policy(game, anchor, dirichlet_policy(game, rng))
            if boundary is None:
                not_applicable += 1
                continue
            tested += 1
            per_player = []
            for i in range(game.num_players):
                res = check_weak_slater_at(game, i, boundary)
                per_player.append({"player": i, "applicable": res.applicable,
                                   "satisfied": res.satisfied, "branch": res.branch})
                if res.applicable and not res.satisfied:
                    failures.append(SlaterFailure(
                        sample=k, player=i, policy=boundary,
                        detail="boundary policy satisfies neither condition "
                               f"(minima {list(res.minima)})"))
            samples.append(SlaterSample(sample=k, policy=boundary,
                                        player_results=tuple(per_player)))
    return SlaterReport(mode="weak", num_samples=num_samples, seed=seed, tested=tested,
                        not_applicable=not_applicable, feasible_set_empty=anchor_occ is None,
                        samples=tuple(samples), failures=tuple(failures))
