"""Action modifications: Markov/non-Markov, composition, enumeration.

A modification for player i maps the action recommended by the joint policy
to a (possibly random) replacement action.  Markov modifications condition on
(t, s, recommended action); non-Markov ones additionally condition on the
full history of visited states and *played* joint actions.  Composition with
a Markov policy follows

    (phi_t o pi_t)(played^i, a^{-i} | s) =
        sum_rec phi_t(played^i | s, rec) * pi_t((rec, a^{-i}) | s)

with the history key added in the non-Markov case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import normalize_or_uniform
from .game import STRUCT_TOL, ConstrainedMarkovGame

# Largest deterministic-modification family we are willing to enumerate.
DEFAULT_ENUM_CAP = 10 ** 6
# Largest history-state space materialized for non-Markov processing.
DEFAULT_HISTORY_CAP = 10 ** 5


class CapExceededError(RuntimeError):
    """The instance exceeds a configured enumeration or history cap."""


@dataclass(frozen=True)
class MarkovModification:
    """Tables [t, s, recommended, played] = phi_t(played | s, recommended)."""

    player: int
    tables: np.ndarray  # (H, S, A_i, A_i)

    def __post_init__(self):
        self.tables.setflags(write=False)

    @property
    def is_deterministic(self) -> bool:
        return bool(np.all((self.tables == 0.0) | (self.tables == 1.0)))


@dataclass(frozen=True)
class NonMarkovModification:
    """History-keyed modification, dense over the enumerated history space.

    tables[t] has shape ((S*A)^t, S, A_i, A_i), indexed by
    [history-prefix, s_t, recommended, played].  The prefix index encodes the
    played trajectory (s_1, a_1, ..., s_t, a_t) in row-major order, earliest
    pair most significant: appending (s, a) maps h to h*(S*A) + s*A + a.
    Desk scale only.
    """

    player: int
    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        for arr in self.tables:
            arr.setflags(write=False)


def validate_modification(game: ConstrainedMarkovGame, mod, tol: float = STRUCT_TOL) -> None:
    """Raise ValueError unless every stored row is a distribution over A_i."""
    ai = game.action_counts[mod.player]
    if isinstance(mod, MarkovModification):
        tables = [mod.tables]
        want = (game.horizon, game.num_states, ai, ai)
        if mod.tables.shape != want:
            raise ValueError(f"modification tables have shape {mod.tables.shape}, expected {want}")
    else:
        tables = list(mod.tables)
        if len(tables) != game.horizon:
            raise ValueError(f"expected {game.horizon} per-timestep tables, got {len(tables)}")
        sa = game.num_states * game.num_joint_actions
        for t, table in enumerate(tables):
            want = (sa ** t, game.num_states, ai, ai)
            if table.shape != want:
                raise ValueError(f"tables[{t}] has shape {table.shape}, expected {want}")
    for table in tables:
        if table.min() < 0:
            raise ValueError("modification has a negative entry")
        if np.abs(table.sum(axis=-1) - 1.0).max() > tol:
            raise ValueError("modification row does not sum to 1")


def identity_modification(game: ConstrainedMarkovGame, player: int) -> MarkovModification:
    ai = game.action_counts[player]
    tables = np.zeros((game.horizon, game.num_states, ai, ai))
    tables[..., np.arange(ai), np.arange(ai)] = 1.0
    return MarkovModification(player=player, tables=tables)


def split_player_axis(game: ConstrainedMarkovGame, arr: np.ndarray, player: int,
                      axis: int = -1) -> np.ndarray:
    """View a joint-action axis of ``arr`` as three axes (A^{<i}, A^i, A^{>i}).

    Joint actions are row-major over players, so the players before and
    after i jointly index A^{-i} and the split is a plain reshape: a view
    even of a strided slice, so writes through it reach ``arr``.
    """
    counts = game.action_counts
    split = (math.prod(counts[:player]), counts[player], math.prod(counts[player + 1:]))
    axis %= arr.ndim
    return arr.reshape(arr.shape[:axis] + split + arr.shape[axis + 1:])


def compose_timestep(game: ConstrainedMarkovGame, pi_t: np.ndarray,
                     phi_t: np.ndarray, player: int) -> np.ndarray:
    """One timestep of the composition formula.

    pi_t is (S, A); phi_t is (..., S, A_i, A_i) with optional leading history
    axes that broadcast over the policy.  Returns (..., S, A).
    """
    composed = np.einsum("sbkf,hskj->hsbjf", split_player_axis(game, pi_t, player),
                         phi_t.reshape((-1,) + phi_t.shape[-3:]))
    return composed.reshape(phi_t.shape[:-3] + pi_t.shape)


def apply_modification(game: ConstrainedMarkovGame, policy: np.ndarray,
                       mod: MarkovModification) -> np.ndarray:
    """Composition phi o pi as a Markov policy, shape (H, S, A)."""
    validate_modification(game, mod)
    policy = np.asarray(policy, dtype=np.float64)
    out = np.empty_like(policy)
    for t in range(game.horizon):
        out[t] = compose_timestep(game, policy[t], mod.tables[t], mod.player)
    return out


def apply_nonmarkov(game: ConstrainedMarkovGame, policy: np.ndarray,
                    mod: NonMarkovModification,
                    history_cap: int = DEFAULT_HISTORY_CAP) -> np.ndarray:
    """Occupancy of the history-dependent modified process.

    The modified process is non-Markovian, so no policy object exists; the
    occupancy is computed by exact forward propagation over the enumerated
    history space (equivalently, summing all trajectories).
    """
    validate_modification(game, mod)
    h, n_s, n_a = game.horizon, game.num_states, game.num_joint_actions
    sa = n_s * n_a
    if sa ** (h - 1) * n_s > history_cap:
        raise CapExceededError(
            f"history space (S*A)^(H-1)*S = {sa ** (h - 1) * n_s} exceeds cap {history_cap}")

    occupancy = np.zeros((h, n_s, n_a))
    # probs[prefix, s] = P(played prefix ends here in state s)
    probs = np.zeros((1, n_s))
    probs[0] = game.rho
    for t in range(h):
        composed = compose_timestep(game, policy[t], mod.tables[t], mod.player)
        mass = probs[:, :, None] * composed            # (prefixes, S, A)
        occupancy[t] = mass.sum(axis=0)
        if t + 1 < h:
            # Appending (s, a) to prefix h gives h*(S*A) + s*A + a, which is
            # exactly the row-major flattening of (prefix, s, a).
            nxt = np.einsum("hsa,say->hsay", mass, game.kernel[t])
            probs = nxt.reshape(-1, n_s)
    return occupancy


# ---------------------------------------------------------------------------
# Deterministic Markov modifications
# ---------------------------------------------------------------------------

def count_det_modifications(game: ConstrainedMarkovGame, player: int) -> int:
    """K^i = |A^i| ^ (H * |S| * |A^i|)."""
    ai = game.action_counts[player]
    return ai ** (game.horizon * game.num_states * ai)


def enumerate_det_modifications(game: ConstrainedMarkovGame, player: int,
                                cap: int = DEFAULT_ENUM_CAP
                                ) -> tuple[list[MarkovModification], int]:
    """All deterministic Markov modifications for a player, plus the identity's index.

    The order is lexicographic over cells ordered (t, s, recommended action),
    with the chosen target action as the digit and the first cell most
    significant.  This order is part of the report contract: alpha vectors
    are comparable across runs.
    """
    ai = game.action_counts[player]
    cells = game.horizon * game.num_states * ai
    total = count_det_modifications(game, player)
    if total > cap:
        raise CapExceededError(f"K^i = {total} deterministic modifications exceeds cap {cap}")

    # Digit c of index k (first cell most significant) is cell c's target.
    place = ai ** np.arange(cells - 1, -1, -1, dtype=np.int64)
    digits = np.arange(total, dtype=np.int64)[:, None] // place
    np.remainder(digits, ai, out=digits)
    digits = digits.astype(np.min_scalar_type(ai - 1))  # one byte per digit
    tables = np.eye(ai)[digits].reshape(total, game.horizon, game.num_states, ai, ai)
    mods = [MarkovModification(player=player, tables=table) for table in tables]
    identity_index = int(np.tile(np.arange(ai), game.horizon * game.num_states) @ place)
    return mods, identity_index


# ---------------------------------------------------------------------------
# Markovianization
# ---------------------------------------------------------------------------

def markovianize(game: ConstrainedMarkovGame, policy: np.ndarray,
                 mod: NonMarkovModification,
                 history_cap: int = DEFAULT_HISTORY_CAP) -> MarkovModification:
    """Collapse a non-Markov modification to a Markov one with equal occupancy.

    The replacement is the per-(s, recommended)-cell ratio of history-summed
    occupancies of the history-augmented auxiliary process; unreachable cells
    get the uniform row.  The induced game occupancy of the result matches
    apply_nonmarkov exactly (up to floating point).
    """
    from .aux_mdps import aux_occupancy, build_mdp1, mdp_policy_from_modification

    mdp = build_mdp1(game, mod.player, policy, history_cap=history_cap)
    occ = aux_occupancy(mdp, mdp_policy_from_modification(mdp, game, mod))
    ai = game.action_counts[mod.player]
    # Drop the absorbing row, fold the history prefix axis away.
    cells = [table[:-1].reshape(-1, game.num_states, ai, ai).sum(axis=0) for table in occ]
    return MarkovModification(player=mod.player, tables=normalize_or_uniform(np.stack(cells)))
