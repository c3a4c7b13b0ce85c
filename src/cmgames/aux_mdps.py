"""Auxiliary MDPs that turn modification search into policy optimization.

Two constructions, both tailored to one player i and one joint policy pi:

* history MDP — states are (played history, s_t, recommended action) plus an
  absorbing state b; a non-Markov modification is literally a policy here.
* pair MDP    — states are (s_t, recommended action) plus b; Markov
  modifications are its policies, and with the lifted reward its optimal
  value equals the best modified-policy value in the original game.

In both, the next recommended action is spread uniformly (the 1/|A^i|
factor), the policy weight of the recommendation is folded into the kernel,
and the "missing" recommendation mass flows to b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import normalize_or_uniform, propagate
from .game import ConstrainedMarkovGame
from .modifications import (
    DEFAULT_HISTORY_CAP,
    CapExceededError,
    MarkovModification,
    NonMarkovModification,
    split_player_axis,
)


@dataclass(frozen=True)
class AuxiliaryMDP:
    """Per-timestep state sets with a trailing absorbing state.

    kernels[t] has shape (num_states[t] + 1, A_i, num_states[t+1] + 1); the
    last index of every state axis is the absorbing state b.
    """

    kind: str                       # "history" or "pair"
    player: int
    horizon: int
    num_actions: int                # A_i
    num_states: tuple[int, ...]     # per timestep, excluding b
    kernels: tuple[np.ndarray, ...]
    rho: np.ndarray                 # (num_states[0] + 1,)

    def __post_init__(self):
        self.rho.setflags(write=False)
        for k in self.kernels:
            k.setflags(write=False)


def _pair_block(game: ConstrainedMarkovGame, player: int, policy: np.ndarray,
                t: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared kernel arithmetic for both constructions at timestep t.

    Returns (move, stay) where
      move[s, rec, played, a^{<i}, a^{>i}, s'] = (1/A_i) * P_t(s'|s,(played,a^{-i}))
                                                        * pi_t((rec,a^{-i})|s)
      stay[s, rec]                           = sum_{a^{-i}} pi_t((rec,a^{-i})|s)
    and the absorbing mass from (s, rec) is 1 - stay[s, rec].  The pair MDP
    sums move over a^{-i}; the history MDP keeps a^{-i} in the next prefix.
    """
    pol = split_player_axis(game, policy[t], player)                     # (S, B, A_i, F)
    kern = split_player_axis(game, game.kernel[t], player, axis=1)       # (S, B, A_i, F, S')
    move = np.einsum("sbrf,sbpfy->srpbfy", pol, kern) / game.action_counts[player]
    return move, pol.sum(axis=(1, 3))


def _absorbing_kernel(n_t: int, ai: int, n_next: int, stay: np.ndarray) -> np.ndarray:
    """Zero kernel with the absorbing column filled: 1 - stay[s, rec] from (prefix, s, rec)."""
    k = np.zeros((n_t + 1, ai, n_next + 1))
    k[:n_t, :, n_next] = 1.0 - np.tile(stay.reshape(-1), n_t // stay.size)[:, None]
    k[n_t, :, n_next] = 1.0
    return k


def build_mdp2(game: ConstrainedMarkovGame, player: int,
               policy: np.ndarray) -> AuxiliaryMDP:
    """Pair MDP over (s, recommended action) states plus b."""
    s_n, ai = game.num_states, game.action_counts[player]
    n = s_n * ai
    kernels = []
    for t in range(game.horizon - 1):
        move, stay = _pair_block(game, player, policy, t)
        k = _absorbing_kernel(n, ai, n, stay)
        # The next recommendation rec' is uniform: every rec' column gets the move mass.
        k[:n, :, :n].reshape(s_n, ai, ai, s_n, ai)[...] = move.sum(axis=(3, 4))[..., None]
        kernels.append(k)
    rho = np.zeros(n + 1)
    rho[:n] = np.repeat(game.rho / ai, ai)
    return AuxiliaryMDP(kind="pair", player=player, horizon=game.horizon,
                        num_actions=ai, num_states=(n,) * game.horizon,
                        kernels=tuple(kernels), rho=rho)


def build_mdp1(game: ConstrainedMarkovGame, player: int, policy: np.ndarray,
               history_cap: int = DEFAULT_HISTORY_CAP) -> AuxiliaryMDP:
    """History MDP over (played prefix, s, recommended action) states plus b.

    State index at timestep t is prefix*(S*A_i) + s*A_i + rec with the prefix
    encoded exactly as in NonMarkovModification.  Appending (s, played joint
    a) turns prefix h into h*(S*A) + s*A + a.
    """
    s_n, a_n, ai = game.num_states, game.num_joint_actions, game.action_counts[player]
    sa = s_n * a_n
    sizes = tuple(sa ** t * s_n * ai for t in range(game.horizon))
    if max(sizes) > history_cap:
        raise CapExceededError(
            f"history MDP would need {max(sizes)} states, cap is {history_cap}")

    kernels = []
    for t in range(game.horizon - 1):
        prefixes = sa ** t
        move, stay = _pair_block(game, player, policy, t)
        k = _absorbing_kernel(sizes[t], ai, sizes[t + 1], stay)
        # k[:n_t, :, :n_next] viewed as (h, s, rec, played, h', s', a, s'', rec'')
        # with the joint a split around player i; a move only ever extends its
        # own prefix (h' = h, s' = s) by an action whose player-i digit is played.
        grid = split_player_axis(game, k[:sizes[t], :, :sizes[t + 1]].reshape(
            (prefixes, s_n, ai, ai, prefixes, s_n, a_n, s_n, ai)), player, axis=6)
        diagonal = np.einsum("hsrphsbpfyq->hsrpbfyq", grid)
        diagonal[...] = move[None, ..., None]
        kernels.append(k)

    rho = np.zeros(sizes[0] + 1)
    rho[:sizes[0]] = np.repeat(game.rho / ai, ai)
    return AuxiliaryMDP(kind="history", player=player, horizon=game.horizon,
                        num_actions=ai, num_states=sizes,
                        kernels=tuple(kernels), rho=rho)


def mdp_policy_from_modification(mdp: AuxiliaryMDP, game: ConstrainedMarkovGame,
                                 mod) -> list[np.ndarray]:
    """Render a modification as per-timestep (n_t + 1, A_i) policy tables.

    The absorbing row gets the uniform distribution; it never earns reward.
    """
    if mod.player != mdp.player:
        raise ValueError(f"modification is for player {mod.player}, MDP for {mdp.player}")
    ai = mdp.num_actions
    out = []
    for t in range(mdp.horizon):
        n_t = mdp.num_states[t]
        rows = np.empty((n_t + 1, ai))
        if isinstance(mod, NonMarkovModification):
            if mdp.kind != "history":
                raise ValueError("non-Markov modifications are policies of the history MDP only")
            rows[:n_t] = mod.tables[t].reshape(n_t, ai)
        else:
            cells = mod.tables[t].reshape(game.num_states * ai, ai)
            reps = n_t // cells.shape[0]
            rows[:n_t] = np.tile(cells, (reps, 1))
        rows[n_t] = 1.0 / ai
        out.append(rows)
    return out


def aux_occupancy(mdp: AuxiliaryMDP, policy_tables) -> list[np.ndarray]:
    """Forward occupancy per timestep over (state, action), mass 1 including b.

    policy_tables[t] is (..., n_t + 1, A_i); leading axes propagate a stack
    of policies at once.
    """
    return list(propagate(mdp.rho, mdp.kernels, policy_tables))


# ---------------------------------------------------------------------------
# Lifted rewards and backward induction
# ---------------------------------------------------------------------------

def _pair_scale(game: ConstrainedMarkovGame, player: int) -> np.ndarray:
    """|A_i|^(t+1) per timestep, shaped to broadcast over (t, s, ...) cells."""
    return float(game.action_counts[player]) ** np.arange(1, game.horizon + 1)[:, None, None, None]


def lift_signals(game: ConstrainedMarkovGame, player: int, policy: np.ndarray,
                 signals: np.ndarray) -> np.ndarray:
    """Lift a stack of (..., H, S, A) signals: [..., t, s, r, p] is lift_reward's [t, (s, r), p]."""
    lifted = np.einsum("tsbrf,...tsbpf->...tsrp", split_player_axis(game, policy, player),
                       split_player_axis(game, np.asarray(signals, dtype=np.float64), player))
    return _pair_scale(game, player) * lifted


def lift_reward(game: ConstrainedMarkovGame, player: int, policy: np.ndarray,
                signal: np.ndarray) -> np.ndarray:
    """Lift a per-step (H, S, A) signal (a reward r^i or any constraint g^{i,j}).

    Returns the (H, S*A_i + 1, A_i) pair-MDP reward, zero at b, whose value
    equals the modified-policy signal value: lifted[t, (s, rec), played] =
    |A_i|^(t+1) * sum_{a^{-i}} signal_t(s, (played, a^{-i})) * pi_t((rec, a^{-i}) | s).
    """
    ai = game.action_counts[player]
    lifted = lift_signals(game, player, policy, signal).reshape(game.horizon, -1, ai)
    return np.concatenate([lifted, np.zeros((game.horizon, 1, ai))], axis=1)   # b earns 0


def pair_to_game_occupancy(game: ConstrainedMarkovGame, player: int, policy: np.ndarray,
                           pair: np.ndarray) -> np.ndarray:
    """Game occupancy (H, S, A) of a pair-MDP occupancy x, the adjoint of the lift.

    d_t(s, (p, a^{-i})) = |A_i|^(t+1) * sum_r x_t((s, r), p) * pi_t((r, a^{-i}) | s),
    with x over the non-absorbing cells in (t, s, r, p) order, flat as the
    pair program's variables or shaped (H, S, A_i, A_i).  So the lifted value
    of x under any signal is that signal's value under d.
    """
    ai = game.action_counts[player]
    pair = np.reshape(pair, (game.horizon, game.num_states, ai, ai))
    d = np.einsum("tsrp,tsbrf->tsbpf", _pair_scale(game, player) * pair,
                  split_player_axis(game, policy, player))
    return d.reshape(policy.shape)


def optimize_aux(mdp: AuxiliaryMDP, lifted: np.ndarray,
                 direction: str = "max") -> tuple[float, MarkovModification]:
    """Exact backward induction over the pair MDP, with lift_reward's array as reward.

    Returns the optimal value over all Markov modifications and a
    deterministic optimizer; ties break toward the lexicographically
    smallest action index.
    """
    if mdp.kind != "pair":
        raise ValueError("optimize_aux runs on the pair MDP")
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    n = mdp.num_states[0]
    ai = mdp.num_actions
    value = np.zeros(n + 1)
    picks = []
    for t in range(mdp.horizon - 1, -1, -1):
        q = np.array(lifted[t])
        if t < mdp.horizon - 1:
            q += np.einsum("xay,y->xa", mdp.kernels[t], value)
        chosen = np.argmax(q, axis=1) if direction == "max" else np.argmin(q, axis=1)
        value = q[np.arange(n + 1), chosen]
        picks.append(chosen[:n])
    picks.reverse()

    s_n = n // ai
    tables = np.zeros((mdp.horizon, s_n, ai, ai))
    for t, chosen in enumerate(picks):
        grid = chosen.reshape(s_n, ai)
        s_idx, r_idx = np.indices(grid.shape)
        tables[t, s_idx, r_idx, grid] = 1.0
    argmod = MarkovModification(player=mdp.player, tables=tables)
    return float(mdp.rho @ value), argmod


def alpha_from_modification(mod: MarkovModification,
                            mods: list[MarkovModification]) -> np.ndarray:
    """Product weights that realize a stochastic modification as a mixture.

    alpha_k = prod_{t,s,rec} phi_t(s, rec)[k(t, s, rec)]: each cell's target
    is drawn independently from phi (Kuhn's behavioural-to-mixed
    construction).  A trajectory visits each (t, s, rec) cell at most once,
    so the alpha-mixture of the deterministic modifications' occupancies
    equals the occupancy of phi exactly.  Inverse of modification_from_alpha.
    """
    picked = np.einsum("ktsrp,tsrp->ktsr", np.stack([m.tables for m in mods]), mod.tables)
    return picked.reshape(len(mods), -1).prod(axis=1)


def modification_from_alpha(game: ConstrainedMarkovGame, player: int,
                            policy: np.ndarray, alpha: np.ndarray,
                            mods: list[MarkovModification]) -> MarkovModification:
    """Realize an alpha-mixture of deterministic modifications as one stochastic one.

    Mixes the pair-MDP occupancies of the deterministic modifications and
    reads the policy back off the mixture per (s, recommendation) cell, so
    the induced game occupancy equals the alpha-mixture of the individual
    ones (a naive per-cell mixture of the tables would not, for H >= 2).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if len(alpha) != len(mods):
        raise ValueError("alpha and modification list lengths differ")
    mdp = build_mdp2(game, player, policy)
    # All K pair-MDP policies as one (H, K, n + 1, A_i) stack, propagated at once.
    tables = np.stack([mdp_policy_from_modification(mdp, game, mod) for mod in mods], axis=1)
    mixed = np.einsum("k,tkxa->txa", alpha, np.stack(aux_occupancy(mdp, tables)))
    cells = mixed[:, :-1].reshape(game.horizon, game.num_states, mdp.num_actions, mdp.num_actions)
    return MarkovModification(player=player, tables=normalize_or_uniform(cells))
