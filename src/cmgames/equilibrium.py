"""Equilibrium verification, Slater diagnostics and the fixed-point search.

A feasible joint Markov policy is a constrained correlated equilibrium when
no player's best feasible modification gains anything: for every i,

    Psi^i(pi) <= V^{r^i}(pi),

where Psi^i is the best feasible deviation value.  verify_cce takes it from
the occupancy program of the pair MDP, whose policies are the stochastic
Markov modifications: H*|S|*|A^i|^2 variables instead of weights on all
K^i = |A^i|^(H*|S|*|A^i|) deterministic ones.  The two optima agree because
stochastic Markov modifications are the convex hull of the deterministic
ones (in occupancy), and by the modification-class equivalences the
certificate covers the full history-dependent stochastic class as well.
The fixed-point search certifies every iterate the same way, from the
previous bases, and steps along those optima, so it enumerates nothing
either; nor do the Slater checks, which ask the pair program too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lp as lpmod
from .aux_mdps import pair_to_game_occupancy
from .dynamics import (
    VALUE_TOL,
    compute_occupancy,
    evaluate,
    flow_rows,
    occupancy_to_policy,
    slacks_of,
    validate_occupancy,
)
from .game import COMMON, ConstrainedMarkovGame

BOUNDARY_TOL = 1e-9

CONSTRAINED_CE = "constrained_CE"
NOT_CE = "not_CE"
INFEASIBLE_POLICY = "infeasible_policy"


class NoFeasibleStartError(RuntimeError):
    """The occupancy polytope intersected with the constraint rows is empty."""


@dataclass(frozen=True)
class EquilibriumCertificate:
    verdict: str
    tol: float
    slacks: np.ndarray               # (N, J)
    gaps: np.ndarray | None          # (N,) Psi^i - V^{r^i}, None when infeasible
    psi: np.ndarray | None
    reward_values: np.ndarray

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tol": self.tol,
            "slacks": self.slacks.tolist(),
            "gaps": None if self.gaps is None else self.gaps.tolist(),
            "psi": None if self.psi is None else self.psi.tolist(),
            "reward_values": self.reward_values.tolist(),
        }


def _floored_pair_program(game: ConstrainedMarkovGame, player: int, policy: np.ndarray,
                          constraint_values: np.ndarray,
                          start: tuple[int, ...] | None = None) -> lpmod.LinearProgram:
    """Psi^i's pair-MDP occupancy program with thresholds min(c^{i,j}, V^{g^{i,j}}(pi)).

    The floor keeps the identity modification feasible for a policy that
    meets its constraints only within tol; for any other it is c^{i,j}.
    """
    program = lpmod.build_pair_occupancy_lp(game, player, policy)
    return replace(program, b_ub=np.minimum(program.b_ub, constraint_values), start=start)


def _certify(game: ConstrainedMarkovGame, policy: np.ndarray, tol: float,
             starts) -> tuple[EquilibriumCertificate, list[lpmod.LPSolution]]:
    """verify_cce's certificate, plus each solved floored pair program's LPSolution.

    starts[i] starts player i's program; None starts it cold.  Below -tol a
    slack makes the policy infeasible: it gets no Psi, and its cold programs
    are not solved, but started ones are, because the search steps from them.
    """
    values = evaluate(game, compute_occupancy(game, policy))   # validates the policy
    slacks = values.constraint - game.thresholds
    feasible = not slacks.size or slacks.min() >= -tol
    solutions = []
    for i, start in enumerate(starts):
        if feasible or start is not None:
            program = _floored_pair_program(game, i, policy, values.constraint[i], start)
            solutions.append(lpmod.solve_lp(program))
            lpmod.require_optimal(solutions[-1].status, f"best-modification program for player {i}")
    psi = np.array([sol.objective for sol in solutions]) if feasible else None
    gaps = None if psi is None else psi - values.reward
    verdict = INFEASIBLE_POLICY if psi is None else CONSTRAINED_CE if gaps.max() <= tol else NOT_CE
    return EquilibriumCertificate(verdict=verdict, tol=tol, slacks=slacks, gaps=gaps, psi=psi,
                                  reward_values=values.reward), solutions


def verify_cce(game: ConstrainedMarkovGame, policy: np.ndarray,
               tol: float = BOUNDARY_TOL) -> EquilibriumCertificate:
    """Certificate for the constrained-correlated-equilibrium conditions.

    Verdict is constrained_CE iff all slacks >= -tol and all gaps <= tol.
    Psi^i is the optimum of the floored pair-MDP occupancy program
    (_floored_pair_program), which equals the best-feasible-modification
    program over the deterministic family: stochastic Markov modifications
    are its convex hull, and the modification classes give the same
    equilibrium notion.  Each program is solved cold.  Raises
    NumericalLPError when a program hits numerical trouble.
    """
    return _certify(game, policy, tol, [None] * game.num_players)[0]


# ---------------------------------------------------------------------------
# Slater conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrongSlaterResult:
    player: int
    holds: bool
    margin: float               # max over modifications of the min slack

    def as_dict(self) -> dict:
        return {"player": self.player, "holds": self.holds, "margin": self.margin}


def check_strong_slater_at(game: ConstrainedMarkovGame, player: int,
                           policy: np.ndarray) -> StrongSlaterResult:
    """Does some Markov modification make every constraint strictly slack?

    One max-min program over the pair polytope, the image of the mixtures of
    deterministic modifications, answers all constraints at once.
    """
    if game.num_constraints == 0:
        return StrongSlaterResult(player=player, holds=True, margin=np.inf)
    margin, _ = lpmod.max_min_slack(replace(lpmod.build_pair_occupancy_lp(game, player, policy),
                                            start=lpmod.identity_basis(game, player)))
    return StrongSlaterResult(player=player, holds=margin > BOUNDARY_TOL, margin=margin)


@dataclass(frozen=True)
class WeakSlaterResult:
    player: int
    applicable: bool              # policy sits on the feasible-set boundary
    min_slack: float
    condition1: bool | None
    condition2a: bool | None
    minima: tuple[float, ...]     # min over modifications of V^{g^j}, per j
    condition2b: bool | None
    min_weight: float | None
    satisfied: bool | None
    branch: str | None


def check_weak_slater_at(game: ConstrainedMarkovGame, player: int,
                         policy: np.ndarray) -> WeakSlaterResult:
    """Pointwise weakened Slater condition at a boundary policy (common mode).

    Condition 1: a strictly feasible modification exists.  Condition 2(a):
    every constraint can be pushed strictly below its threshold by some
    modification; 2(b): some feasible mixture has all weights positive.
    Policies off the boundary report "not applicable".
    """
    if game.constraint_mode != COMMON:
        raise ValueError("the weakened Slater condition is defined for common constraints")
    slacks = slacks_of(game, compute_occupancy(game, policy))[player]
    if slacks.size == 0:
        raise ValueError("game has no constraints")
    min_slack = float(slacks.min())
    if min_slack < -BOUNDARY_TOL:
        raise ValueError("policy is infeasible; the condition applies to boundary policies")
    if min_slack > BOUNDARY_TOL:
        return WeakSlaterResult(player=player, applicable=False, min_slack=min_slack,
                                condition1=None, condition2a=None, minima=(),
                                condition2b=None, min_weight=None, satisfied=None,
                                branch=None)

    regularity = lpmod.check_lp_regularity(game, player, policy)
    cond2a = all(v < game.threshold(player, j) - BOUNDARY_TOL
                 for j, v in enumerate(regularity.minima))
    cond1 = regularity.max_min_slack > BOUNDARY_TOL
    cond2b = regularity.positive_weight_feasible
    satisfied = cond1 or (cond2a and cond2b)
    branch = "condition1" if cond1 else ("condition2" if (cond2a and cond2b) else "none")
    return WeakSlaterResult(player=player, applicable=True, min_slack=min_slack,
                            condition1=cond1, condition2a=cond2a,
                            minima=regularity.minima, condition2b=cond2b,
                            min_weight=regularity.min_weight,
                            satisfied=satisfied, branch=branch)


@dataclass(frozen=True)
class SlaterFailure:
    sample: int
    player: int
    policy: np.ndarray
    detail: str


@dataclass(frozen=True)
class SlaterSample:
    """Pointwise result for one tested policy (the boundary policy in weak mode)."""

    sample: int
    policy: np.ndarray
    player_results: tuple[dict, ...]

    def as_dict(self) -> dict:
        return {"sample": self.sample, "policy": self.policy.tolist(),
                "player_results": list(self.player_results)}


@dataclass(frozen=True)
class SlaterReport:
    mode: str
    num_samples: int
    seed: int
    tested: int
    not_applicable: int
    feasible_set_empty: bool
    samples: tuple[SlaterSample, ...]
    failures: tuple[SlaterFailure, ...]

    @property
    def clean(self) -> bool:
        return len(self.failures) == 0

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "num_samples": self.num_samples,
            "seed": self.seed,
            "tested": self.tested,
            "not_applicable": self.not_applicable,
            "feasible_set_empty": self.feasible_set_empty,
            "samples": [s.as_dict() for s in self.samples],
            "failures": [
                {"sample": f.sample, "player": f.player, "detail": f.detail,
                 "policy": f.policy.tolist()} for f in self.failures],
        }


def dirichlet_policy(game: ConstrainedMarkovGame, rng: np.random.Generator) -> np.ndarray:
    """A policy whose (t, s) rows are drawn from Dirichlet(1), row-major over (t, s)."""
    a = game.num_joint_actions
    rows = rng.dirichlet(np.ones(a), size=game.horizon * game.num_states)
    return rows.reshape(game.horizon, game.num_states, a)


def _min_slack(game: ConstrainedMarkovGame, occupancy: np.ndarray) -> float:
    slacks = slacks_of(game, occupancy)
    return float(slacks.min()) if slacks.size else np.inf


def slater_sampling_harness(game: ConstrainedMarkovGame, mode: str, num_samples: int,
                            seed: int) -> SlaterReport:
    """Sampled evidence for the Slater assumptions; a clean report is not a proof.

    Policies are drawn row-wise from Dirichlet(1) using numpy's PCG64
    generator.  In weak mode each sample is pulled to the feasible-set
    boundary by bisecting the minimum slack along the segment toward a
    feasible anchor policy.  When the anchor itself lies on the boundary,
    every sample collapses to it, so the report then tests that one policy
    num_samples times.  Each distinct boundary policy is checked once per
    player; every sample still gets its own entry and failures.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    rng = np.random.default_rng(seed)
    failures: list[SlaterFailure] = []
    samples: list[SlaterSample] = []
    tested = 0
    not_applicable = 0
    feasible_empty = False

    if mode == "strong":
        for k in range(num_samples):
            policy = dirichlet_policy(game, rng)
            tested += 1
            per_player = []
            for i in range(game.num_players):
                res = check_strong_slater_at(game, i, policy)
                per_player.append(res.as_dict())
                if not res.holds:
                    failures.append(SlaterFailure(
                        sample=k, player=i, policy=policy,
                        detail=f"no strictly feasible modification (margin {res.margin:.3g})"))
            samples.append(SlaterSample(sample=k, policy=policy,
                                        player_results=tuple(per_player)))
    else:
        if game.constraint_mode != COMMON:
            raise ValueError("weak mode needs common constraints")
        anchor_occ = feasible_occupancy(game)
        if anchor_occ is None:
            feasible_empty = True
        else:
            anchor = occupancy_to_policy(game, anchor_occ)
            checked: dict[bytes, list[WeakSlaterResult]] = {}   # boundary policy -> per player
            for k in range(num_samples):
                sample = dirichlet_policy(game, rng)
                boundary = _boundary_policy(game, anchor, sample)
                if boundary is None:
                    not_applicable += 1
                    continue
                tested += 1
                key = boundary.tobytes()
                if key not in checked:
                    checked[key] = [check_weak_slater_at(game, i, boundary)
                                    for i in range(game.num_players)]
                per_player = []
                for i, res in enumerate(checked[key]):
                    per_player.append({"player": i, "applicable": res.applicable,
                                       "satisfied": res.satisfied, "branch": res.branch})
                    if res.applicable and not res.satisfied:
                        failures.append(SlaterFailure(
                            sample=k, player=i, policy=boundary,
                            detail="boundary policy satisfies neither condition "
                                   f"(minima {list(res.minima)})"))
                samples.append(SlaterSample(sample=k, policy=boundary,
                                            player_results=tuple(per_player)))

    return SlaterReport(mode=mode, num_samples=num_samples, seed=seed, tested=tested,
                        not_applicable=not_applicable, feasible_set_empty=feasible_empty,
                        samples=tuple(samples), failures=tuple(failures))


def _boundary_policy(game: ConstrainedMarkovGame, anchor: np.ndarray,
                     sample: np.ndarray, iters: int = 80) -> np.ndarray | None:
    """Bisect the minimum slack along anchor->sample; None if no boundary met.

    The anchor is feasible.  If it already sits on the boundary it is the
    answer; if the sample is feasible too the whole segment may be interior,
    in which case the pointwise condition does not apply.
    """
    lo_val = _min_slack(game, compute_occupancy(game, anchor))
    if abs(lo_val) <= BOUNDARY_TOL:
        return anchor
    hi_val = _min_slack(game, compute_occupancy(game, sample))
    if hi_val > BOUNDARY_TOL:
        return None
    if abs(hi_val) <= BOUNDARY_TOL:
        return sample
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        mixed = (1.0 - mid) * anchor + mid * sample
        if _min_slack(game, compute_occupancy(game, mixed)) >= 0.0:
            lo = mid
        else:
            hi = mid
    return (1.0 - lo) * anchor + lo * sample


# ---------------------------------------------------------------------------
# Feasible starting points and the fixed-point search
# ---------------------------------------------------------------------------

def feasible_occupancy(game: ConstrainedMarkovGame) -> np.ndarray | None:
    """A point of the occupancy polytope meeting all constraint rows, or None.

    Flow-consistency and constraint rows are linear in the occupancy, so this
    is a single phase-1 feasibility program.  Numerical trouble raises
    NumericalLPError rather than passing for an empty polytope.
    """
    a_eq, b_eq = flow_rows(game.kernel, game.rho)
    n = a_eq.shape[1]
    # Playerwise rows come player-major; common rows once, not once per player.
    sol = lpmod.solve_lp(lpmod.LinearProgram.build(
        c=np.zeros(n), a_ub=game.constraints.reshape(-1, n),
        b_ub=game.thresholds.reshape(-1), a_eq=a_eq, b_eq=b_eq))
    if sol.status == lpmod.INFEASIBLE:
        return None
    lpmod.require_optimal(sol.status, "feasible-occupancy program")
    occupancy = sol.x.reshape(game.horizon, game.num_states, game.num_joint_actions)
    validate_occupancy(game, occupancy)
    return occupancy


@dataclass(frozen=True)
class TraceStep:
    iteration: int
    gaps: np.ndarray
    chosen_player: int
    step_size: float
    min_slack: float


@dataclass(frozen=True)
class FixedPointTrace:
    steps: tuple[TraceStep, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "max_gap": [float(s.gaps.max()) for s in self.steps],
            "chosen_player": [s.chosen_player for s in self.steps],
            "step_size": [s.step_size for s in self.steps],
        }


@dataclass(frozen=True)
class FindResult:
    policy: np.ndarray
    occupancy: np.ndarray
    trace: FixedPointTrace
    certificate: EquilibriumCertificate


def find_cce(game: ConstrainedMarkovGame, initial: np.ndarray | None = None,
             max_iters: int = 10_000, tol: float = 1e-6,
             player_rule: str = "max-gap") -> FindResult:
    """Damped iteration of the existence proof's point-to-set map.

    Each round certifies pi = Gamma(d) as verify_cce does, solving every
    player's floored pair-MDP program, then moves d toward the game
    occupancy of the chosen player's optimum (aux_mdps.pair_to_game_occupancy)
    with step (Psi^i - V^{r^i}) / (2H).  That target is worth Psi^i and meets
    the floored thresholds, so the step lies in [0, 1/2] and every iterate
    stays feasible.  Nothing is enumerated.  A player's program starts at the
    identity modification the first time and afterwards at that player's
    previous optimal basis, which the damped step usually leaves feasible;
    when it does not, the solver runs phase 1.  The returned certificate is
    the last round's: the converged one, or one more at the last iterate
    when the budget runs out; no program is solved cold.  Convergence is not
    guaranteed, only existence is, so the certificate is authoritative, not
    the flag.  Without binding constraints the step shrinks with the gap,
    so the gap falls only like 2/t: example2 with J = 0 still has a gap of
    2.0e-4 after the default 10 000 iterations.
    """
    if game.constraint_mode != COMMON:
        raise ValueError("find_cce needs common constraints")
    if player_rule not in ("max-gap", "round-robin"):
        raise ValueError(f"player_rule must be 'max-gap' or 'round-robin', got {player_rule!r}")

    if initial is None:
        d = feasible_occupancy(game)
        if d is None:
            raise NoFeasibleStartError("the feasible occupancy polytope is empty")
    else:
        initial = np.asarray(initial, dtype=np.float64)
        want = (game.horizon, game.num_states, game.num_joint_actions)
        if initial.shape != want:
            raise ValueError(f"initial must be an (H, S, A) policy or occupancy, got {initial.shape}")
        try:
            validate_occupancy(game, initial)
            d = initial.copy()
        except ValueError:
            d = compute_occupancy(game, initial)   # validates it as a policy instead
        if _min_slack(game, d) < -VALUE_TOL:
            raise NoFeasibleStartError("the supplied starting point is infeasible")

    two_h = 2.0 * game.horizon
    steps: list[TraceStep] = []
    converged = False

    # The identity's whole basis starts each player's first program; its
    # last optimal basis starts every later one.
    starts = [lpmod.identity_basis(game, i) for i in range(game.num_players)]

    for it in range(max_iters):
        policy = occupancy_to_policy(game, d)
        certificate, optima = _certify(game, policy, tol, starts)
        starts = [sol.basis or start for sol, start in zip(optima, starts)]
        gaps = np.array([sol.objective for sol in optima]) - certificate.reward_values
        if gaps.max() <= tol:
            converged = True
            break
        chosen = int(np.argmax(gaps)) if player_rule == "max-gap" else it % game.num_players
        lam = max(float(gaps[chosen]), 0.0) / two_h
        d = (1.0 - lam) * d + lam * pair_to_game_occupancy(game, chosen, policy, optima[chosen].x)
        steps.append(TraceStep(iteration=it, gaps=gaps, chosen_player=chosen,
                               step_size=lam, min_slack=_min_slack(game, d)))
    else:
        policy = occupancy_to_policy(game, d)
        certificate, _ = _certify(game, policy, tol, starts)

    trace = FixedPointTrace(steps=tuple(steps), converged=converged)
    return FindResult(policy=policy, occupancy=d, trace=trace, certificate=certificate)
