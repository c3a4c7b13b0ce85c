"""Seeded instance generator for the benchmark workloads.

Everything here is plain numpy and shares no code with ``cmgames`` or with
the test suite, so editing either never shifts a workload.  Instance ``k`` of
a workload under seed ``s`` is drawn from its own generator
``default_rng([s, tag, k])``: the stream is reproducible, and any instance can
be regenerated on its own (the byte-identity re-check does that).

Each workload cycles through a fixed schedule of instance classes.  The class
weights are chosen so that the p50 and p90 latencies fall inside one class
rather than on the edge between a fast and a slow class, which would make
them jump between runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

COMMON = "common"
PLAYERWISE = "playerwise"

# Fixed-point search length for every `find` operation.
FIND_MAX_ITERS = 20
# Sampled policies per `slater-weak` operation.
SLATER_SAMPLES = 2
# Sampled policies per `equivalence` command.
EQUIVALENCE_SAMPLES = 1


@dataclass(frozen=True)
class GameData:
    """A constrained Markov game as raw arrays, laid out as in the game file format.

    rewards (N, H, S, A); constraints (J, H, S, A) common or (N, J, H, S, A)
    playerwise; thresholds (J,) or (N, J); kernel (H-1, S, A, S); rho (S,).
    Joint actions are row-major over players.
    """

    action_counts: tuple[int, ...]
    rewards: np.ndarray
    constraints: np.ndarray
    thresholds: np.ndarray
    kernel: np.ndarray
    rho: np.ndarray
    mode: str

    @property
    def num_players(self) -> int:
        return len(self.action_counts)

    @property
    def horizon(self) -> int:
        return self.rewards.shape[1]

    @property
    def num_states(self) -> int:
        return self.rho.shape[0]

    def constraint_rows(self, player: int) -> np.ndarray:
        """Player ``player``'s constraint tables, (J, H, S, A)."""
        return self.constraints if self.mode == COMMON else self.constraints[player]

    def player_thresholds(self, player: int) -> np.ndarray:
        return self.thresholds if self.mode == COMMON else self.thresholds[player]

    def num_modifications(self, player: int) -> int:
        """K^i = |A^i| ^ (H |S| |A^i|), the size of the enumerated family."""
        ai = self.action_counts[player]
        return ai ** (self.horizon * self.num_states * ai)


@dataclass(frozen=True)
class Instance:
    """One operation's input: a game plus what the workload feeds the program."""

    index: int
    label: str                     # instance class, e.g. "S3-H2-A2x2-common"
    game: GameData | None          # None for reproduce-paper, which uses bundled games
    policy: np.ndarray | None = None
    command: str | None = None     # cli-equivalence: "equivalence" or "reproduce-paper"
    seed: int = 0                  # seed handed to the program (harness / CLI)


def shape_label(states: int, horizon: int, counts: tuple[int, ...], mode: str) -> str:
    return f"S{states}-H{horizon}-A{'x'.join(map(str, counts))}-{mode}"


def dirichlet_policy(rng: np.random.Generator, horizon: int, states: int,
                     joint: int) -> np.ndarray:
    return rng.dirichlet(np.ones(joint), size=(horizon, states))


def occupancy(kernel: np.ndarray, rho: np.ndarray, policy: np.ndarray) -> np.ndarray:
    """d_1 = rho * pi_1,  d_{t+1}(y, .) = (sum_{x,a} d_t(x,a) P_t(y|x,a)) * pi_{t+1}(.|y)."""
    d = np.empty_like(policy)
    d[0] = rho[:, None] * policy[0]
    for t in range(1, policy.shape[0]):
        d[t] = np.einsum("xa,xay->y", d[t - 1], kernel[t - 1])[:, None] * policy[t]
    return d


def random_game(rng: np.random.Generator, states: int, horizon: int,
                counts: tuple[int, ...], mode: str, num_constraints: int,
                anchor: np.ndarray, scale_range: tuple[float, float]) -> GameData:
    """Uniform rewards and constraints, Dirichlet kernel and rho.

    Each threshold is a factor drawn from ``scale_range`` times the
    constraint's value under ``anchor``, so ``anchor`` is feasible whenever
    the factors are at most 1.
    """
    n, joint = len(counts), int(np.prod(counts))
    rewards = rng.uniform(0.0, 1.0, size=(n, horizon, states, joint))
    kernel = rng.dirichlet(np.ones(states), size=(horizon - 1, states, joint))
    rho = rng.dirichlet(np.ones(states))
    cons_shape = (num_constraints,) if mode == COMMON else (n, num_constraints)
    constraints = rng.uniform(0.0, 1.0, size=cons_shape + (horizon, states, joint))
    values = constraints.reshape(cons_shape + (-1,)) @ occupancy(kernel, rho, anchor).reshape(-1)
    thresholds = rng.uniform(*scale_range, size=cons_shape) * values
    return GameData(action_counts=tuple(counts), rewards=rewards, constraints=constraints,
                    thresholds=thresholds, kernel=kernel, rho=rho, mode=mode)


def pinned_game(rng: np.random.Generator) -> GameData:
    """One state, H = 1, two players with two actions, four near-identity constraints.

    Every constraint is met with equality at a random anchor, so the feasible
    set is (almost) that single point and the fixed-point search stops at once.
    """
    joint = 4
    rewards = rng.uniform(0.0, 1.0, size=(2, 1, 1, joint))
    anchor = rng.dirichlet(np.ones(joint))
    beta = 0.25
    constraints = ((1 - beta) * np.eye(joint)
                   + beta * rng.uniform(0.0, 1.0, size=(joint, joint))).reshape(joint, 1, 1, joint)
    thresholds = constraints.reshape(joint, -1) @ anchor
    return GameData(action_counts=(2, 2), rewards=rewards, constraints=constraints,
                    thresholds=thresholds, kernel=np.zeros((0, 1, joint, 1)),
                    rho=np.array([1.0]), mode=COMMON)


# ---------------------------------------------------------------------------
# Workload schedules: one entry per operation of a cycle
# ---------------------------------------------------------------------------

def _shapes(*entries):
    return tuple((s, h, tuple(a), mode) for s, h, a, mode in entries)


# verify: every ROADMAP rung with K^i <= 4096, both modes, N = 2 and N = 3.
# K^i: S2-H1-A2x2 and S2-H1-A2x2x2 16, S2-H2-A2x2 and S2-H2-A2x2x2 256,
# S2-H1-A3x3 729, S3-H2-A2x2 and S2-H3-A2x2 4096.  Sorted by latency the
# classes hold 4, 2, 2, 2 and 4 of 14 entries, so the median falls in the
# middle of S2-H2-A2x2x2 and p90 inside the K = 4096 classes.
VERIFY_SCHEDULE = _shapes(
    (2, 1, (2, 2), COMMON), (2, 1, (2, 2), PLAYERWISE),
    (2, 1, (2, 2, 2), COMMON), (2, 1, (2, 2, 2), PLAYERWISE),
    (2, 2, (2, 2), COMMON), (2, 2, (2, 2), PLAYERWISE),
    (2, 2, (2, 2, 2), COMMON), (2, 2, (2, 2, 2), PLAYERWISE),
    (2, 1, (3, 3), COMMON), (2, 1, (3, 3), PLAYERWISE),
    (3, 2, (2, 2), COMMON), (3, 2, (2, 2), PLAYERWISE),
    (2, 3, (2, 2), COMMON), (2, 3, (2, 2), PLAYERWISE),
)

# find: 3 pinned H = 1 games, 5 loose H = 1 games, 2 loose H = 2 games.  The
# classes are ordered by latency, so the median falls in the middle of the
# loose H = 1 class and p90 in the middle of the loose H = 2 class.
FIND_SCHEDULE = ("pinned",) * 3 + ("loose-H1",) * 5 + ("loose-H2",) * 2
FIND_LOOSE = {"loose-H1": (2, 1, (2, 2)), "loose-H2": (2, 2, (2, 2))}

# slater-weak: common games with K^i <= 64.  A K = 16 operation takes about
# twice as long when some player fails condition 1 (the epsilon sweep runs)
# as when all pass it, and about a quarter of them do.  With 12 of 14
# entries at K = 16 the median sits well inside the faster mode and p90
# inside the K = 64 classes, away from both mode edges.
SLATER_SCHEDULE = _shapes(*(
    [(1, 2, (2, 2), COMMON), (2, 1, (2, 2), COMMON)] * 6
    + [(1, 3, (2, 2), COMMON), (3, 1, (2, 2), COMMON)]))

# cli-equivalence: equivalence commands on small games of both modes, then
# one reproduce-paper run per cycle.  The light shapes appear twice and the
# heavy ones (history MDP of 33 states, hull programs over K = 256 and 729)
# once, so the median falls among the light shapes and p90 in the middle of
# the heavy ones, below the reproduce-paper run.
LIGHT_SHAPES = _shapes(
    (1, 1, (2, 2), COMMON), (1, 1, (2, 2), PLAYERWISE),
    (2, 1, (2, 2), COMMON), (2, 1, (2, 2), PLAYERWISE),
    (1, 2, (2, 2), COMMON), (1, 2, (2, 2), PLAYERWISE),
    (1, 1, (3, 2), COMMON), (1, 1, (3, 2), PLAYERWISE),
    (1, 1, (2, 2, 2), COMMON), (1, 1, (2, 2, 2), PLAYERWISE),
    (1, 3, (2, 2), COMMON), (1, 3, (2, 2), PLAYERWISE),
)
HEAVY_SHAPES = _shapes(
    (1, 2, (3, 2), COMMON), (1, 2, (3, 2), PLAYERWISE),
    (2, 2, (2, 2), COMMON), (2, 2, (2, 2), PLAYERWISE),
)
CLI_SCHEDULE = tuple(("equivalence",) + shape
                     for shape in LIGHT_SHAPES * 2 + HEAVY_SHAPES) + (("reproduce-paper",),)

SCHEDULES = {
    "verify": VERIFY_SCHEDULE,
    "find": FIND_SCHEDULE,
    "slater-weak": SLATER_SCHEDULE,
    "cli-equivalence": CLI_SCHEDULE,
}
_TAGS = {"verify": 1, "find": 2, "slater-weak": 3, "cli-equivalence": 4}

# ROADMAP ladder rungs (|S|, H, A) and where each one is measured.
LADDER = (
    {"shape": "S2-H1-A2x2", "K": [16, 16], "status": "verify, slater-weak, cli-equivalence"},
    {"shape": "S2-H2-A2x2", "K": [256, 256], "status": "verify, find, cli-equivalence"},
    {"shape": "S3-H2-A2x2", "K": [4096, 4096], "status": "verify"},
    {"shape": "S3-H3-A2x2", "K": [262144, 262144], "status": "excluded",
     "reason": "under the 10^6 enumeration cap, but one best-modification program "
               "took 7.0 s in the ROADMAP probe, so a run would hold a handful of "
               "operations"},
    {"shape": "S2-H2-A3x2", "K": [531441, 256], "status": "excluded",
     "reason": "K^0 = 3^12 is under the 10^6 cap, but each call would build "
               "531441 modification objects and a 102 MB (K, H, S, A) occupancy "
               "stack (computed from the sizes, not run)"},
    {"shape": "S2-H2-A2x2x2", "K": [256, 256, 256], "status": "verify"},
)


def instance(workload: str, seed: int, index: int) -> Instance:
    """Instance ``index`` of ``workload``'s stream under ``seed``."""
    schedule = SCHEDULES[workload]
    entry = schedule[index % len(schedule)]
    rng = np.random.default_rng([seed, _TAGS[workload], index])
    if workload == "verify":
        states, horizon, counts, mode = entry
        policy = dirichlet_policy(rng, horizon, states, int(np.prod(counts)))
        game = random_game(rng, states, horizon, counts, mode, 2, policy, (0.6, 0.95))
        return Instance(index, shape_label(*entry), game, policy=policy)
    if workload == "find":
        if entry == "pinned":
            return Instance(index, entry, pinned_game(rng))
        states, horizon, counts = FIND_LOOSE[entry]
        anchor = dirichlet_policy(rng, horizon, states, int(np.prod(counts)))
        game = random_game(rng, states, horizon, counts, COMMON, 2, anchor, (0.85, 0.85))
        return Instance(index, entry, game)
    if workload == "slater-weak":
        states, horizon, counts, mode = entry
        anchor = dirichlet_policy(rng, horizon, states, int(np.prod(counts)))
        game = random_game(rng, states, horizon, counts, mode, 2, anchor, (0.9, 0.9))
        return Instance(index, shape_label(*entry), game,
                        seed=int(rng.integers(2 ** 31)))
    if workload == "cli-equivalence":
        command = entry[0]
        seed_arg = int(rng.integers(2 ** 31))
        if command == "reproduce-paper":
            return Instance(index, command, None, command=command, seed=seed_arg)
        states, horizon, counts, mode = entry[1:]
        anchor = dirichlet_policy(rng, horizon, states, int(np.prod(counts)))
        game = random_game(rng, states, horizon, counts, mode, 2, anchor, (0.5, 0.9))
        return Instance(index, shape_label(*entry[1:]), game,
                        command=command, seed=seed_arg)
    raise ValueError(f"unknown workload {workload!r}")


def game_file_text(game: GameData) -> str:
    """The game file; floats are written with full precision."""
    n, s = game.num_players, game.num_states
    return json.dumps({
        "num_players": n,
        "horizon": game.horizon,
        "states": [f"s{k}" for k in range(s)],
        "actions": [[str(a + 1) for a in range(c)] for c in game.action_counts],
        "constraint_mode": game.mode,
        "rewards": game.rewards.tolist(),
        "constraints": game.constraints.tolist(),
        "thresholds": game.thresholds.tolist(),
        "kernel": game.kernel.tolist(),
        "rho": game.rho.tolist(),
    }, sort_keys=True) + "\n"
