"""Property tests for the one occupancy recursion: propagate and flow_rows."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import cmgames as cm
from cmgames.dynamics import flow_rows, propagate
from oracles import random_game, random_policy

# (|S|, H, action counts, seed); H = 1 gives an empty kernel.
games = st.tuples(st.integers(1, 3), st.integers(1, 3),
                  st.lists(st.integers(1, 3), min_size=1, max_size=3),
                  st.integers(0, 2 ** 32 - 1))


def _game(num_states, horizon, counts, seed):
    rng = np.random.default_rng(seed)
    return rng, random_game(rng, num_states=num_states, horizon=horizon,
                            action_counts=tuple(counts))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(games)
@example((1, 1, [2, 2], 0))
@example((1, 3, [3], 1))
@example((3, 1, [1, 2, 2], 2))
def test_flow_rows_hold_on_computed_occupancies(shape):
    rng, game = _game(*shape)
    d = cm.compute_occupancy(game, random_policy(rng, game))
    a_eq, b_eq = flow_rows(game.kernel, game.rho)
    assert a_eq.shape == (game.horizon * game.num_states, d.size)
    assert np.abs(a_eq @ d.reshape(-1) - b_eq).max() <= 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(games, st.integers(1, 5))
@example((1, 1, [2, 2], 0), 3)
@example((1, 3, [3], 1), 4)
def test_batched_propagation_equals_single_ones(shape, k):
    rng, game = _game(*shape)
    policies = np.stack([random_policy(rng, game) for _ in range(k)])   # (K, H, S, A)
    batched = np.stack(list(propagate(game.rho, game.kernel, policies.swapaxes(0, 1))), axis=1)
    assert batched.shape == policies.shape
    for j in range(k):
        single = np.array(list(propagate(game.rho, game.kernel, policies[j])))
        assert np.abs(batched[j] - single).max() <= 1e-15
