"""The four workloads: how each operation calls the program and how its output is checked.

Every program call goes through a ``cmgames`` module attribute looked up at
call time, so the tracer's wrappers see it.  ``call`` is the timed part.
``prepare`` (building program objects, writing game files), ``keep`` (the
part of the output the checks need, so memory does not grow with the run's
length) and ``check`` run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import cmgames
from cmgames import cli, equilibrium
from cmgames.lp import EPSILON_SWEEP, LP_TOL

import reference
from instances import (
    CLI_SCHEDULE,
    EQUIVALENCE_SAMPLES,
    FIND_MAX_ITERS,
    SLATER_SAMPLES,
    GameData,
    Instance,
    game_file_text,
)

VALUE_TOL = 1e-7       # Psi^i, reference against program
FIND_TOL = 1e-6        # find_cce convergence tolerance
BAND = 5e-10           # reference values this close to a decision threshold decide nothing


def program_game(game: GameData) -> "cmgames.ConstrainedMarkovGame":
    return cmgames.ConstrainedMarkovGame(
        num_players=game.num_players, horizon=game.horizon,
        states=tuple(f"s{k}" for k in range(game.num_states)),
        actions=tuple(tuple(str(a + 1) for a in range(c)) for c in game.action_counts),
        rewards=game.rewards.copy(), constraints=game.constraints.copy(),
        thresholds=game.thresholds.copy(), kernel=game.kernel.copy(), rho=game.rho.copy(),
        constraint_mode=game.mode)


def _decide(value: float, threshold: float) -> bool | None:
    """value > threshold, or None when the reference is too close to call."""
    if abs(value - threshold) <= BAND:
        return None
    return value > threshold


def _check_certificate(game: GameData, policy: np.ndarray, cert, tol: float) -> list[str]:
    """Psi^i, values, slacks and verdict of a certificate against the reference."""
    reward, slacks = reference.values(game, policy)
    if np.abs(cert.reward_values - reward).max() > VALUE_TOL:
        return [f"reward values {cert.reward_values} vs reference {reward}"]
    if np.abs(cert.slacks - slacks).max() > VALUE_TOL:
        return ["slacks differ from the reference"]
    if slacks.min() < -tol:
        if cert.verdict == "infeasible_policy":
            return []
        return [f"verdict {cert.verdict} on an infeasible policy"]
    if cert.psi is None:
        return [f"no Psi for a feasible policy (verdict {cert.verdict})"]
    psi = reference.best_values(game, policy)
    errors = []
    if not np.all(np.abs(cert.psi - psi) <= VALUE_TOL):
        errors.append(f"Psi {cert.psi.tolist()} vs reference {psi.tolist()}")
    if np.any(cert.psi < reward - tol):
        errors.append(f"Psi {cert.psi.tolist()} below V^r {reward.tolist()}")
    not_ce = _decide(float((psi - reward).max()), tol)
    if not_ce is not None and (cert.verdict == "not_CE") != not_ce:
        errors.append(f"verdict {cert.verdict}, reference max gap {(psi - reward).max()!r}")
    return errors


class Verify:
    """verify_cce on a stream of (game, feasible policy) pairs."""

    def prepare(self, inst: Instance):
        return program_game(inst.game), inst.policy.copy()

    def call(self, op):
        return equilibrium.verify_cce(*op)

    def keep(self, cert):
        return cert

    def check(self, inst: Instance, cert) -> list[str]:
        if cert.verdict == "infeasible_policy":
            return ["feasible policy reported infeasible"]
        return _check_certificate(inst.game, inst.policy, cert, equilibrium.BOUNDARY_TOL)


class Find:
    """find_cce with a fixed iteration limit on common-constraint games."""

    def prepare(self, inst: Instance):
        return program_game(inst.game)

    def call(self, op):
        return equilibrium.find_cce(op, max_iters=FIND_MAX_ITERS, tol=FIND_TOL)

    def keep(self, result):
        """(step sizes and iterate min slacks, converged, policy, certificate)."""
        steps = np.array([(s.step_size, s.min_slack) for s in result.trace.steps]).reshape(-1, 2)
        return steps, result.trace.converged, result.policy, result.certificate

    def check(self, inst: Instance, kept) -> list[str]:
        steps, converged, policy, certificate = kept
        errors = []
        for step_size, min_slack in steps:
            if not 0.0 <= step_size <= 0.5:
                errors.append(f"step size {step_size!r} outside [0, 1/2]")
            if min_slack < -VALUE_TOL:
                errors.append(f"iterate min slack {min_slack!r} below -1e-7")
        errors += _check_certificate(inst.game, policy, certificate, FIND_TOL)
        if converged:
            recheck = equilibrium.verify_cce(program_game(inst.game), policy, tol=FIND_TOL)
            if recheck.verdict != "constrained_CE":
                errors.append(f"false certificate: recheck verdict {recheck.verdict}")
        return errors


class SlaterWeak:
    """slater_sampling_harness(mode="weak") on common games with K^i <= 64."""

    def __init__(self):
        self.undecided = 0   # player results whose reference branch was too close to call

    def prepare(self, inst: Instance):
        return program_game(inst.game), inst.seed

    def call(self, op):
        game, seed = op
        return equilibrium.slater_sampling_harness(game, "weak", SLATER_SAMPLES, seed)

    def keep(self, report):
        return report

    def check(self, inst: Instance, report) -> list[str]:
        game = inst.game
        if report.feasible_set_empty:
            return ["feasible set reported empty"]
        if report.tested + report.not_applicable != SLATER_SAMPLES:
            return [f"tested {report.tested} + not applicable {report.not_applicable} "
                    f"!= {SLATER_SAMPLES} samples"]
        errors = []
        unsatisfied = 0
        branches = {}   # samples often share one boundary policy (the anchor)
        for sample in report.samples:
            _, slacks = reference.values(game, sample.policy)
            if abs(slacks.min()) > equilibrium.BOUNDARY_TOL:
                errors.append(f"sample {sample.sample} min slack {slacks.min()!r} off the boundary")
            for row in sample.player_results:
                unsatisfied += not row["satisfied"]
                key = (row["player"], sample.policy.tobytes())
                if key not in branches:
                    branches[key] = expected_branch(
                        reference.WeakSlater(game, row["player"], sample.policy))
                want = branches[key]
                self.undecided += want is None
                if not row["applicable"]:
                    errors.append(f"boundary policy not applicable for player {row['player']}")
                elif want is not None and (row["branch"], row["satisfied"]) != (
                        want, want != "none"):
                    errors.append(f"player {row['player']} branch {row['branch']} "
                                  f"satisfied {row['satisfied']}, reference {want}")
        if unsatisfied != len(report.failures):
            errors.append("failures do not match the unsatisfied results")
        return errors


def expected_branch(ref: "reference.WeakSlater") -> str | None:
    """The weak-Slater branch the reference implies, or None if too close to call.

    Condition 2(b) is tested by the program at weights down to
    min(EPSILON_SWEEP) = 1e-9, the size of its LP feasibility tolerance.  It
    must hold when an exactly feasible mixture has every weight above that,
    and must fail when even the tolerance cannot cover the least violation;
    in between the tolerance decides, and either answer is accepted.
    """
    tol = equilibrium.BOUNDARY_TOL
    cond1 = _decide(ref.margin(), tol)
    if cond1:
        return "condition1"
    below = [_decide(c - tol, m) for m, c in zip(ref.minima, ref.thresholds)]
    if cond1 is None or None in below:
        return None
    if not all(below):
        return "none"
    eps = min(EPSILON_SWEEP)
    eps_max = ref.eps_max()
    if eps_max is not None and eps_max > eps + BAND:
        return "condition2"
    feas_tol = LP_TOL * max(1.0, float(np.abs(ref.thresholds).max()))
    if ref.violation(eps) > 2.0 * feas_tol:
        return "none"
    return None


class CliEquivalence:
    """cli.main in-process: `equivalence GAME ... --json` and `reproduce-paper --json`."""

    def __init__(self, game_dir: Path):
        self.game_dir = game_dir

    def prepare(self, inst: Instance):
        if inst.command == "reproduce-paper":
            return ["reproduce-paper", "--json", "--seed", str(inst.seed)]
        path = self.game_dir / f"g{inst.index % len(CLI_SCHEDULE)}.game"
        path.write_text(game_file_text(inst.game))
        return ["equivalence", str(path), "--samples", str(EQUIVALENCE_SAMPLES),
                "--seed", str(inst.seed), "--json"]

    def call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def keep(self, result):
        """(exit code, SHA-256 of stdout, command, passed, assertion names that failed, rows)."""
        code, text = result
        digest = hashlib.sha256(text.encode()).hexdigest()
        try:
            report = json.loads(text)
            rows = report["results"]["assertions"]
            return (code, digest, report["command"], report["results"]["passed"],
                    [row["name"] for row in rows if not row["passed"]], len(rows))
        except (ValueError, KeyError, TypeError):
            return code, digest, None, None, None, None

    def check(self, inst: Instance, kept) -> list[str]:
        code, _, command, passed, failing, rows = kept
        if code != 0:
            return [f"exit code {code}"]
        if command != inst.command or passed is not True:
            return [f"{inst.command} did not pass"]
        if failing:
            return [f"failing assertions {failing}"]
        expected = 4 * EQUIVALENCE_SAMPLES * inst.game.num_players if inst.game else rows
        if rows != expected:
            return [f"{rows} equivalence assertions, expected {expected}"]
        return []


WORKLOADS = {
    "verify": Verify,
    "find": Find,
    "slater-weak": SlaterWeak,
    "cli-equivalence": CliEquivalence,
}
