"""Occupancy-measure propagation, value evaluation, feasibility and the map Γ.

The state-action occupancy measure of a Markov policy is defined by the
forward recursion

    d_1(s, a) = rho(s) * pi_1(a|s)
    d_t(s, a) = sum_{s', a'} d_{t-1}(s', a') * P_{t-1}(s|s', a') * pi_t(a|s)

and cumulative reward/constraint values are linear functionals of it,
stated once: propagate runs it forward (any finite-horizon MDP, stacks of
policies), flow_rows gives its occupancy-LP rows.  Only validate_occupancy's
input check and apply_nonmarkov's growing history axis step it by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import COMMON, ConstrainedMarkovGame, validate_policy

# Value-level tolerance: values are sums of O(H*|S|*|A|) products, so this is
# deliberately looser than the 1e-12 structural tolerance on input tables.
VALUE_TOL = 1e-9

# Row sums at or below this are treated as unreachable by every read-back.
ZERO_MARGINAL = 1e-12


def propagate(rho: np.ndarray, kernels, policies):
    """Yield the occupancy d_t(..., x, u) of a finite-horizon MDP, one timestep at a time.

    policies[t] is (..., X_t, U) with optional leading batch axes and
    kernels[t] is (X_t, U, X_{t+1}), so state sets may change size over time.
    policies may be any iterable; it is consumed one timestep at a time.
    """
    marginal = rho
    for t, pi_t in enumerate(policies):
        if t:
            marginal = np.einsum("...xa,xay->...y", d, kernels[t - 1])
        d = marginal[..., None] * pi_t
        yield d


def flow_rows(kernel: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The recursion as equality rows (A_eq, b_eq): one row per (t, y).

    kernel is (H-1, X, U, X); occupancies are flattened row-major over
    (t, x, u).  Row (t, y) reads sum_u d_t(y, u) - sum_{x,u} d_{t-1}(x, u)
    P_{t-1}(y|x, u) = [t = 0] rho(y).
    """
    h, (x, u) = kernel.shape[0] + 1, kernel.shape[1:3]
    t = np.arange(h)
    flow = np.zeros((h, x, h, x, u))        # [t, y, t', x, u]
    flow[t, :, t] = np.eye(x)[:, :, None]
    flow[t[1:], :, t[:-1]] = -kernel.transpose(0, 3, 1, 2)
    inflow = np.zeros((h, x))
    inflow[0] = rho
    return flow.reshape(h * x, -1), inflow.reshape(-1)


def compute_occupancy(game: ConstrainedMarkovGame, policy: np.ndarray) -> np.ndarray:
    """Forward-propagate the per-timestep occupancy d_t(s, a), shape (H, S, A)."""
    validate_policy(game, policy)
    return np.array(list(propagate(game.rho, game.kernel, policy)))


def validate_occupancy(game: ConstrainedMarkovGame, occupancy: np.ndarray,
                       tol: float = VALUE_TOL) -> None:
    """Raise ValueError unless mass and flow-consistency invariants hold."""
    occupancy = np.asarray(occupancy, dtype=np.float64)
    want = (game.horizon, game.num_states, game.num_joint_actions)
    if occupancy.shape != want:
        raise ValueError(f"occupancy has shape {occupancy.shape}, expected {want}")
    if occupancy.min() < -tol:
        raise ValueError("occupancy has a negative entry")
    mass = occupancy.sum(axis=(1, 2))
    if np.abs(mass - 1.0).max() > tol:
        raise ValueError(f"per-timestep mass {mass} deviates from 1")
    if np.abs(occupancy[0].sum(axis=1) - game.rho).max() > tol:
        raise ValueError("occupancy at t=1 is inconsistent with rho")
    for t in range(1, game.horizon):
        inflow = np.einsum("xa,xay->y", occupancy[t - 1], game.kernel[t - 1])
        if np.abs(occupancy[t].sum(axis=1) - inflow).max() > tol:
            raise ValueError(f"flow consistency violated at t={t + 1}")


@dataclass(frozen=True)
class ValueVector:
    """Cumulative values: reward[i] = V^{r^i}, constraint[i, j] = V^{g^{i,j}}."""

    reward: np.ndarray       # (N,)
    constraint: np.ndarray   # (N, J)


def evaluate(game: ConstrainedMarkovGame, occupancy: np.ndarray) -> ValueVector:
    """Values of all reward and constraint signals under an occupancy measure."""
    flat = np.asarray(occupancy).reshape(-1)
    reward = game.rewards.reshape(game.num_players, -1) @ flat
    if game.constraint_mode == COMMON:
        shared = game.constraints.reshape(game.num_constraints, flat.size) @ flat
        constraint = np.tile(shared, (game.num_players, 1))
    else:
        constraint = game.constraints.reshape(
            game.num_players, game.num_constraints, flat.size) @ flat
    return ValueVector(reward=reward, constraint=constraint)


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-constraint slacks V^{g^{i,j}} - c^{i,j}; feasible iff all >= -tol."""

    player: int | None
    slacks: np.ndarray      # (J,) for a single player, else (N, J)
    tol: float

    @property
    def feasible(self) -> bool:
        return bool(self.slacks.size == 0 or self.slacks.min() >= -self.tol)


def slacks_of(game: ConstrainedMarkovGame, occupancy: np.ndarray) -> np.ndarray:
    """Slack matrix (N, J) for an occupancy measure; common (J,) thresholds broadcast."""
    return evaluate(game, occupancy).constraint - game.thresholds


def feasibility(game: ConstrainedMarkovGame, policy: np.ndarray,
                player: int | None = None, tol: float = VALUE_TOL) -> FeasibilityReport:
    """Slack report for a policy; a policy is i-feasible iff all slacks >= -tol."""
    slacks = slacks_of(game, compute_occupancy(game, policy))
    if player is not None:
        return FeasibilityReport(player=player, slacks=slacks[player], tol=tol)
    return FeasibilityReport(player=None, slacks=slacks, tol=tol)


def normalize_or_uniform(table: np.ndarray) -> np.ndarray:
    """Divide each last-axis row by its sum; rows summing to at most ZERO_MARGINAL
    become uniform.

    The one read-back from occupancies to conditional distributions: Γ, the
    markovianized modification and the alpha-mixture modification all use it.
    """
    table = np.asarray(table, dtype=np.float64)
    total = table.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > ZERO_MARGINAL, table / total, 1.0 / table.shape[-1])


def occupancy_to_policy(game: ConstrainedMarkovGame, occupancy: np.ndarray) -> np.ndarray:
    """The map Γ: normalize d_t(s, .) per state; uniform at unreachable states.

    Uniform is the canonical selection from Γ's "arbitrary distribution"
    branch: symmetric, reproducible, and it never excludes actions that a
    later modification might need.
    """
    return normalize_or_uniform(occupancy)
