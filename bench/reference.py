"""Independent reference values for checking the program's outputs.

Nothing here calls ``cmgames``.  Best-modification values come from the
compact occupancy program of the pair MDP (Altman 1999, *Constrained Markov
Decision Processes*) rather than from the enumerated family the program
uses, and every linear program is solved by SciPy's HiGHS rather than by the
program's simplex.  Weak-Slater flags use the enumerated family, which the
condition is stated over, but build it from this module's own arithmetic.

Compact program for player i and joint policy pi.  Variables are
z_t(s, r, p) >= 0, the mass at state s whose recommendation r is replaced
by p, and mu_t(s) >= 0, the state marginal:

    sum_p z_t(s, r, p) = mu_t(s)                      for every t, s, r
    mu_1(s) = rho(s)
    mu_{t+1}(y) = sum_{s,r,p} z_t(s, r, p) K_t(s, r, p, y)

with K_t(s, r, p, y) = sum_m pi_t((r, m)|s) P_t(y|s, (p, m)) over the other
players' joint actions m.  A signal f has value sum z_t(s, r, p) F_t(s, r, p)
with F_t(s, r, p) = sum_m pi_t((r, m)|s) f_t(s, (p, m)).
"""

from __future__ import annotations

import itertools

import numpy as np

from instances import GameData, occupancy


def linprog(c, **kwargs):
    """SciPy's HiGHS dual simplex at tight tolerances.

    SciPy is imported on first use, after the timed region, so it counts
    neither in set-up time nor in peak memory.
    """
    from scipy.optimize import linprog as highs

    return highs(c, method="highs-ds", options={"primal_feasibility_tolerance": 1e-10,
                                                 "dual_feasibility_tolerance": 1e-10}, **kwargs)


def values(game: GameData, policy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V^{r^i} per player (N,), constraint slacks (N, J)) under ``policy``."""
    d = occupancy(game.kernel, game.rho, policy).reshape(-1)
    reward = game.rewards.reshape(game.num_players, -1) @ d
    slacks = np.stack([
        game.constraint_rows(i).reshape(-1, d.size) @ d - game.player_thresholds(i)
        for i in range(game.num_players)])
    return reward, slacks


def _split(game: GameData, player: int, table: np.ndarray) -> np.ndarray:
    """(H, S, A, ...) -> (H, S, A^i, M, ...): the player's digit first, others flattened."""
    counts = game.action_counts
    lead, rest = table.shape[:2], table.shape[3:]
    split = np.moveaxis(table.reshape(lead + counts + rest), 2 + player, 2)
    return split.reshape(lead + (counts[player], -1) + rest)


class PairProgram:
    """Coefficients of the compact occupancy program for one (game, player, policy)."""

    def __init__(self, game: GameData, player: int, policy: np.ndarray):
        self.game, self.player = game, player
        h, s, ai = game.horizon, game.num_states, game.action_counts[player]
        self.num_z = h * s * ai * ai
        self._pi = _split(game, player, policy)                         # (H, S, r, M)
        kernel = _split(game, player, game.kernel) if h > 1 else None   # (H-1, S, p, M, S)
        n = self.num_z + h * s
        rows, rhs = [], []
        z_index = np.arange(self.num_z).reshape(h, s, ai, ai)
        for t in range(h):
            for state in range(s):
                for r in range(ai):
                    row = np.zeros(n)
                    row[z_index[t, state, r]] = 1.0
                    row[self.num_z + t * s + state] = -1.0
                    rows.append(row)
                    rhs.append(0.0)
        for state in range(s):
            row = np.zeros(n)
            row[self.num_z + state] = 1.0
            rows.append(row)
            rhs.append(game.rho[state])
        # flow[t][s, r, p, y]: mass moving to y from (s, r) replaced by p.
        self.flow = [np.einsum("srm,spmy->srpy", self._pi[t], kernel[t]) for t in range(h - 1)]
        for t in range(1, h):
            for y in range(s):
                row = np.zeros(n)
                row[self.num_z + t * s + y] = 1.0
                row[z_index[t - 1]] -= self.flow[t - 1][..., y]
                rows.append(row)
                rhs.append(0.0)
        self.a_eq, self.b_eq = np.array(rows), np.array(rhs)

    def lift(self, signal: np.ndarray) -> np.ndarray:
        """F_t(s, r, p) for an (H, S, A) signal, flattened to the z variables."""
        split = _split(self.game, self.player, signal)
        return np.einsum("tsrm,tspm->tsrp", self._pi, split).reshape(-1)

    def best_value(self) -> float | None:
        """Psi^i: the best reward over modifications meeting every constraint."""
        game, n = self.game, self.a_eq.shape[1]
        pad = np.zeros(n - self.num_z)
        cons = np.array([np.concatenate([self.lift(g), pad])
                         for g in game.constraint_rows(self.player)]).reshape(-1, n)
        c = np.concatenate([self.lift(game.rewards[self.player]), pad])
        res = linprog(-c, A_ub=-cons, b_ub=-np.asarray(game.player_thresholds(self.player)),
                      A_eq=self.a_eq, b_eq=self.b_eq, bounds=(0, None))
        return -float(res.fun) if res.status == 0 else None


def best_values(game: GameData, policy: np.ndarray) -> np.ndarray:
    """Psi^i for every player (NaN where the program is infeasible)."""
    out = [PairProgram(game, i, policy).best_value() for i in range(game.num_players)]
    return np.array([np.nan if v is None else v for v in out])


# ---------------------------------------------------------------------------
# Weak-Slater flags over the enumerated deterministic family
# ---------------------------------------------------------------------------

def deterministic_values(game: GameData, player: int, policy: np.ndarray,
                         signals: np.ndarray) -> np.ndarray:
    """Values (len(signals), K) of every deterministic Markov modification.

    Column k uses the canonical order: cells ordered (t, s, recommendation),
    the target action as the digit, the first cell most significant.
    """
    prog = PairProgram(game, player, policy)
    h, s, ai = game.horizon, game.num_states, game.action_counts[player]
    targets = np.array(list(itertools.product(range(ai), repeat=h * s * ai)))
    targets = targets.reshape(-1, h, s, ai)                              # (K, H, S, r)
    lifted = np.stack([prog.lift(sig).reshape(h, s, ai, ai) for sig in signals])
    s_idx, r_idx = np.indices((s, ai))
    mu = np.broadcast_to(game.rho, (targets.shape[0], s))
    out = np.zeros((len(signals), targets.shape[0]))
    for t in range(h):
        chosen = targets[:, t]                                           # (K, S, r)
        out += np.einsum("ks,jksr->jk", mu, lifted[:, t][:, s_idx, r_idx, chosen])
        if t + 1 < h:
            mu = np.einsum("ks,ksry->ky", mu, prog.flow[t][s_idx, r_idx, chosen])
    return out


class WeakSlater:
    """Reference values behind the weak-Slater branch at a boundary policy.

    Built over the enumerated family, which the condition is stated over;
    each value is computed on first use.
    """

    def __init__(self, game: GameData, player: int, policy: np.ndarray):
        self.cons = deterministic_values(game, player, policy, game.constraint_rows(player))
        self.thresholds = np.asarray(game.player_thresholds(player))
        self.minima = self.cons.min(axis=1)          # condition 2(a)

    def _solve(self, c, a_ub, b_ub, a_eq, bounds):
        return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds)

    def margin(self) -> float:
        """Max-min slack over mixtures (condition 1)."""
        j, k = self.cons.shape
        # max t  s.t.  cons @ alpha - thr >= t,  alpha in the simplex
        res = self._solve(np.concatenate([np.zeros(k), [-1.0]]),
                          np.hstack([-self.cons, np.ones((j, 1))]), -self.thresholds,
                          np.concatenate([np.ones(k), [0.0]])[None],
                          [(0, None)] * k + [(None, None)])
        return -float(res.fun)

    def eps_max(self) -> float | None:
        """Largest weight a feasible mixture can put on every modification (condition 2(b))."""
        j, k = self.cons.shape
        # max t  s.t.  alpha_k >= t,  cons @ alpha >= thr,  alpha in the simplex
        res = self._solve(np.concatenate([np.zeros(k), [-1.0]]),
                          np.vstack([np.hstack([-np.eye(k), np.ones((k, 1))]),
                                     np.hstack([-self.cons, np.zeros((j, 1))])]),
                          np.concatenate([np.zeros(k), -self.thresholds]),
                          np.concatenate([np.ones(k), [0.0]])[None],
                          [(0, None)] * k + [(None, None)])
        return -float(res.fun) if res.status == 0 else None

    def violation(self, epsilon: float) -> float:
        """Least total violation of cons @ alpha >= thr, alpha >= epsilon, sum alpha = 1.

        This is the quantity a phase-1 simplex compares with its feasibility
        tolerance.
        """
        j, k = self.cons.shape
        n = k + j + k + 2            # alpha, u (constraint rows), w (weight rows), e+, e-
        a_ub = np.zeros((j + k, n))
        a_ub[:j, :k], a_ub[:j, k:k + j] = -self.cons, -np.eye(j)
        a_ub[j:, :k], a_ub[j:, k + j:k + j + k] = -np.eye(k), -np.eye(k)
        a_eq = np.zeros((1, n))
        a_eq[0, :k], a_eq[0, -2], a_eq[0, -1] = 1.0, 1.0, -1.0
        res = self._solve(np.concatenate([np.zeros(k), np.ones(n - k)]), a_ub,
                          np.concatenate([-self.thresholds, np.full(k, -epsilon)]), a_eq,
                          (0, None))
        return float(res.fun)
