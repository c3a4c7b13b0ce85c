"""Data model, validation and file I/O for finite-horizon constrained Markov games.

A game bundles N players, a horizon H, a finite state space, per-player finite
action spaces, per-step reward tables r^i_t(s,a) in [0,1], per-step constraint
tables g^{i,j}_t(s,a) in [0,1] with real thresholds c^{i,j}, a time-dependent
transition kernel and an initial state distribution.  Joint actions are
enumerated in row-major order over the player indices; that ordering is part
of the file-format contract.

Constraints come in two modes:

* ``playerwise`` — each player i has its own tables g^{i,j} and thresholds.
* ``common``     — all players share the same J tables/thresholds; the loader
  stores them once, so equality across players holds by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# Structural tolerance for stochasticity checks (kernel rows, rho, policy rows).
# Inputs are exact rationals in practice; anything looser would mask file errors.
STRUCT_TOL = 1e-12

PLAYERWISE = "playerwise"
COMMON = "common"

_GAME_FIELDS = {
    "num_players",
    "horizon",
    "states",
    "actions",
    "rewards",
    "constraints",
    "thresholds",
    "kernel",
    "rho",
    "constraint_mode",
}


class GameFormatError(ValueError):
    """A game or policy file does not match the expected schema."""


class GameValidationError(ValueError):
    """A structurally parseable game violates its invariants."""

    def __init__(self, report: "GameReport"):
        self.report = report
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        super().__init__(f"game validation failed: {failed}")


@dataclass(frozen=True)
class ConstrainedMarkovGame:
    """Immutable constrained Markov game over dense numpy tables.

    Shapes (S states, A joint actions, N players, J constraints, horizon H):

    * rewards      — (N, H, S, A)
    * constraints  — (N, J, H, S, A) playerwise, (J, H, S, A) common
    * thresholds   — (N, J) playerwise, (J,) common
    * kernel       — (H-1, S, A, S)
    * rho          — (S,)

    Arrays are marked read-only on construction, so a validated game can be
    shared across parallel workers without copies.
    """

    num_players: int
    horizon: int
    states: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    rewards: np.ndarray
    constraints: np.ndarray
    thresholds: np.ndarray
    kernel: np.ndarray
    rho: np.ndarray
    constraint_mode: str = PLAYERWISE

    def __post_init__(self):
        for arr in (self.rewards, self.constraints, self.thresholds, self.kernel, self.rho):
            arr.setflags(write=False)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.actions)

    @property
    def num_joint_actions(self) -> int:
        return int(np.prod(self.action_counts))

    @property
    def num_constraints(self) -> int:
        if self.constraint_mode == COMMON:
            return self.constraints.shape[0] if self.constraints.ndim == 4 else 0
        return self.constraints.shape[1] if self.constraints.ndim == 5 else 0

    def constraint_table(self, player: int, j: int) -> np.ndarray:
        """Constraint table g^{player,j} as an (H, S, A) array.

        In common mode every player sees the same array object.
        """
        if self.constraint_mode == COMMON:
            return self.constraints[j]
        return self.constraints[player, j]

    def threshold(self, player: int, j: int) -> float:
        if self.constraint_mode == COMMON:
            return float(self.thresholds[j])
        return float(self.thresholds[player, j])


@dataclass(frozen=True)
class GameCheck:
    """Result of a single validation check, named after the invariant tested."""

    name: str
    passed: bool
    detail: str = ""
    location: dict | None = None
    magnitude: float | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.location is not None:
            out["location"] = self.location
        if self.magnitude is not None:
            out["magnitude"] = self.magnitude
        return out


@dataclass(frozen=True)
class GameReport:
    checks: tuple[GameCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[GameCheck]:
        return [c for c in self.checks if not c.passed]

    def as_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.as_dict() for c in self.checks]}


def _expected_shapes(game: ConstrainedMarkovGame) -> dict[str, tuple[int, ...]]:
    n, h = game.num_players, game.horizon
    s, a = game.num_states, game.num_joint_actions
    j = game.num_constraints
    shapes = {
        "rewards": (n, h, s, a),
        "kernel": (h - 1, s, a, s),
        "rho": (s,),
    }
    if game.constraint_mode == COMMON:
        shapes["constraints"] = (j, h, s, a)
        shapes["thresholds"] = (j,)
    else:
        shapes["constraints"] = (n, j, h, s, a)
        shapes["thresholds"] = (n, j)
    return shapes


def validate_game(game: ConstrainedMarkovGame) -> GameReport:
    """Check every structural invariant; report each violation with its location.

    The report passes iff all invariants hold.  Dimension mismatches are
    reported outright, never silently truncated.
    """
    checks: list[GameCheck] = []

    mode_ok = game.constraint_mode in (PLAYERWISE, COMMON)
    checks.append(GameCheck("constraint_mode", mode_ok, f"mode={game.constraint_mode!r}"))
    sizes_ok = game.num_players >= 1 and game.horizon >= 1 and game.num_states >= 1 \
        and all(k >= 1 for k in game.action_counts)
    checks.append(GameCheck(
        "sizes", sizes_ok,
        f"N={game.num_players} H={game.horizon} |S|={game.num_states} |A^i|={game.action_counts}"))
    if not (mode_ok and sizes_ok):
        return GameReport(tuple(checks))

    dims_ok = True
    for name, want in _expected_shapes(game).items():
        got = getattr(game, name).shape
        if got != want:
            dims_ok = False
            checks.append(GameCheck(
                "dimensions", False, f"{name} has shape {got}, expected {want}"))
    if dims_ok:
        checks.append(GameCheck("dimensions", True, "all table shapes consistent"))
    else:
        return GameReport(tuple(checks))

    # Kernel rows: nonnegative, summing to 1 within STRUCT_TOL.
    bad = None
    if game.kernel.size:
        sums = game.kernel.sum(axis=-1)
        err = np.abs(sums - 1.0)
        worst = np.unravel_index(np.argmax(err), err.shape)
        if err[worst] > STRUCT_TOL or game.kernel.min() < 0:
            t, s, a = (int(v) for v in worst)
            row_sum = float(sums[worst])
            bad = GameCheck(
                "kernel_stochastic", False,
                f"kernel row (t={t}, state={game.states[s]}, joint_action={a}) "
                f"sums to {row_sum!r} (deficit {1.0 - row_sum!r})",
                location={"t": t, "state": s, "joint_action": a},
                magnitude=float(err[worst]))
    checks.append(bad or GameCheck("kernel_stochastic", True, "all kernel rows sum to 1"))

    for name, table in (("reward_range", game.rewards), ("constraint_range", game.constraints)):
        if table.size and (table.min() < 0.0 or table.max() > 1.0):
            flat = np.clip(table, 0.0, 1.0) - table
            worst = np.unravel_index(np.argmax(np.abs(flat)), table.shape)
            checks.append(GameCheck(
                name, False,
                f"entry {float(table[worst])!r} at index {tuple(int(v) for v in worst)} "
                "outside [0,1]",
                location={"index": [int(v) for v in worst]},
                magnitude=float(np.abs(flat).max())))
        else:
            checks.append(GameCheck(name, True, "all entries in [0,1]"))

    rho_err = abs(float(game.rho.sum()) - 1.0)
    rho_ok = bool(rho_err <= STRUCT_TOL and game.rho.min() >= 0)
    checks.append(GameCheck(
        "initial_distribution", rho_ok,
        f"rho sums to {float(game.rho.sum())!r}, min entry {float(game.rho.min())!r}",
        magnitude=None if rho_ok else rho_err))

    checks.append(GameCheck(
        "finite_entries",
        bool(all(np.isfinite(getattr(game, f)).all() for f in
                 ("rewards", "constraints", "thresholds", "kernel", "rho"))),
        "all entries finite"))

    return GameReport(tuple(checks))


# ---------------------------------------------------------------------------
# Number and table parsing
# ---------------------------------------------------------------------------

def parse_number(value, where: str) -> float:
    """Accept JSON numbers, or exact fraction strings like "1/3".

    Fraction strings are parsed exactly, then converted to binary floating
    point once.
    """
    if isinstance(value, bool):
        raise GameFormatError(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise GameFormatError(f"{where}: cannot parse {value!r} as a fraction") from exc
    raise GameFormatError(f"{where}: expected a number or fraction string, got {type(value).__name__}")


def _parse_table(data, shape: tuple[int, ...], where: str) -> np.ndarray:
    """Parse a nested list into a dense float array of exactly ``shape``."""
    if not shape:
        return np.float64(parse_number(data, where))
    if not isinstance(data, list):
        raise GameFormatError(f"{where}: expected a list of length {shape[0]}, "
                              f"got {type(data).__name__}")
    if len(data) != shape[0]:
        raise GameFormatError(f"{where}: expected length {shape[0]}, got {len(data)}")
    out = np.empty(shape, dtype=np.float64)
    for k, item in enumerate(data):
        out[k] = _parse_table(item, shape[1:], f"{where}[{k}]")
    return out


def _require(doc: dict, name: str):
    if name not in doc:
        raise GameFormatError(f"missing required field {name!r}")
    return doc[name]


def parse_game(doc: dict) -> ConstrainedMarkovGame:
    """Build a game from a parsed JSON document, without validating invariants."""
    if not isinstance(doc, dict):
        raise GameFormatError("game document must be a JSON object")
    unknown = set(doc) - _GAME_FIELDS
    if unknown:
        raise GameFormatError(f"unknown field {sorted(unknown)[0]!r}")

    num_players = _require(doc, "num_players")
    horizon = _require(doc, "horizon")
    if not isinstance(num_players, int) or isinstance(num_players, bool):
        raise GameFormatError("num_players: expected an integer")
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise GameFormatError("horizon: expected an integer")

    states = _require(doc, "states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise GameFormatError("states: expected a list of names")
    actions = _require(doc, "actions")
    if (not isinstance(actions, list) or len(actions) != num_players
            or not all(isinstance(a, list) and all(isinstance(x, str) for x in a) for a in actions)):
        raise GameFormatError("actions: expected one list of action names per player")

    mode = _require(doc, "constraint_mode")
    if mode not in (PLAYERWISE, COMMON):
        raise GameFormatError(f"constraint_mode: expected 'playerwise' or 'common', got {mode!r}")

    s = len(states)
    a = int(np.prod([len(x) for x in actions]))
    h, n = horizon, num_players

    raw_constraints = _require(doc, "constraints")
    if not isinstance(raw_constraints, list):
        raise GameFormatError("constraints: expected a list")
    if mode == COMMON:
        j = len(raw_constraints)
        constraints = _parse_table(raw_constraints, (j, h, s, a), "constraints")
        thresholds = _parse_table(_require(doc, "thresholds"), (j,), "thresholds")
    else:
        if len(raw_constraints) != n:
            raise GameFormatError(
                f"constraints: expected one block per player ({n}), got {len(raw_constraints)}")
        j = len(raw_constraints[0]) if raw_constraints and isinstance(raw_constraints[0], list) else 0
        constraints = _parse_table(raw_constraints, (n, j, h, s, a), "constraints")
        thresholds = _parse_table(_require(doc, "thresholds"), (n, j), "thresholds")

    return ConstrainedMarkovGame(
        num_players=n,
        horizon=h,
        states=tuple(states),
        actions=tuple(tuple(x) for x in actions),
        rewards=_parse_table(_require(doc, "rewards"), (n, h, s, a), "rewards"),
        constraints=constraints,
        thresholds=thresholds,
        kernel=_parse_table(_require(doc, "kernel"), (h - 1, s, a, s), "kernel"),
        rho=_parse_table(_require(doc, "rho"), (s,), "rho"),
        constraint_mode=mode,
    )


def load_game(path) -> ConstrainedMarkovGame:
    """Load and validate a game file; raise on parse or validation errors."""
    game = parse_game_file(path)
    report = validate_game(game)
    if not report.passed:
        raise GameValidationError(report)
    return game


def parse_game_file(path) -> ConstrainedMarkovGame:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_game(doc)


def game_to_dict(game: ConstrainedMarkovGame) -> dict:
    """Serialize to the file-format dictionary (floats kept bit-exact)."""
    return {
        "num_players": game.num_players,
        "horizon": game.horizon,
        "states": list(game.states),
        "actions": [list(a) for a in game.actions],
        "constraint_mode": game.constraint_mode,
        "rewards": game.rewards.tolist(),
        "constraints": game.constraints.tolist(),
        "thresholds": game.thresholds.tolist(),
        "kernel": game.kernel.tolist(),
        "rho": game.rho.tolist(),
    }


def save_game(game: ConstrainedMarkovGame, path) -> None:
    Path(path).write_text(json.dumps(game_to_dict(game), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Markov policies
# ---------------------------------------------------------------------------

def validate_policy(game: ConstrainedMarkovGame, policy: np.ndarray, tol: float = STRUCT_TOL) -> None:
    """Raise ValueError unless ``policy`` is a valid (H, S, A) Markov policy."""
    policy = np.asarray(policy, dtype=np.float64)
    want = (game.horizon, game.num_states, game.num_joint_actions)
    if policy.shape != want:
        raise ValueError(f"policy has shape {policy.shape}, expected {want}")
    if policy.min() < 0:
        raise ValueError("policy has a negative entry")
    err = np.abs(policy.sum(axis=-1) - 1.0)
    if err.max() > tol:
        t, s = np.unravel_index(np.argmax(err), err.shape)
        raise ValueError(f"policy row (t={int(t)}, state={int(s)}) sums to "
                         f"{policy[t, s].sum()!r}, not 1")


def uniform_policy(game: ConstrainedMarkovGame) -> np.ndarray:
    a = game.num_joint_actions
    return np.full((game.horizon, game.num_states, a), 1.0 / a)


def load_policy(path, game: ConstrainedMarkovGame) -> np.ndarray:
    """Load an (H, S, A) policy file; same numeric conventions as game files."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if isinstance(doc, dict):
        unknown = set(doc) - {"policy"}
        if unknown:
            raise GameFormatError(f"unknown field {sorted(unknown)[0]!r}")
        doc = _require(doc, "policy")
    shape = (game.horizon, game.num_states, game.num_joint_actions)
    policy = _parse_table(doc, shape, "policy")
    validate_policy(game, policy)
    return policy
