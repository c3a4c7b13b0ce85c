"""Dense linear programming: a two-phase simplex plus the game-specific builders.

The solver handles   max c.x  s.t.  A_ub x >= b_ub,  A_eq x = b_eq,  x >= 0
with Bland's rule throughout, so it terminates on degenerate problems and
always returns the same vertex for the same input.  An optimal solution
carries its final basis, and a program may name a whole starting basis, one
column per row.  When that basis is nonsingular and primal feasible, phase 1
is skipped and phase 2 starts from it; otherwise the solver runs both
phases exactly as without a start.  So a sequence of related programs can
each start from the previous one's optimum.  Everything downstream (the
pair-MDP occupancy program behind Psi^i, hull membership, max-min slack
programs, regularity probes) reduces to this form.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .aux_mdps import build_mdp2, lift_reward, lift_signals, optimize_aux
from .dynamics import compute_occupancy, evaluate, flow_rows, propagate
from .game import ConstrainedMarkovGame
from .modifications import (
    DEFAULT_ENUM_CAP,
    MarkovModification,
    apply_modification,
    compose_timestep,
    count_det_modifications,
    enumerate_det_modifications,
)

# Feasibility/optimality tolerances of the solver itself.
LP_TOL = 1e-9
PIVOT_TOL = 1e-10
HULL_TOL = 1e-7

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL = "numerical"   # singular basis or pivot limit: roundoff, not the program


class NumericalLPError(RuntimeError):
    """A program that must be solvable ended with status NUMERICAL."""


def require_optimal(status: str, what: str) -> None:
    """Raise NumericalLPError on NUMERICAL and RuntimeError on any other non-optimal status."""
    if status == NUMERICAL:
        raise NumericalLPError(f"{what} hit a singular basis or the pivot limit")
    if status != OPTIMAL:
        raise RuntimeError(f"{what} ended {status}")


@dataclass(frozen=True)
class LinearProgram:
    """max c.x with A_ub x >= b_ub, A_eq x = b_eq and x >= 0 componentwise.

    ``start`` optionally names the basis phase 2 starts from, provided it is
    nonsingular and primal feasible: one column per row, m_ub + m_eq in all,
    as ``LPSolution.basis`` returns them.  Columns are numbered structural
    0..n-1, then the surplus column of >= row r as n + r.
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    start: tuple[int, ...] | None = None

    @staticmethod
    def build(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
              start=None) -> "LinearProgram":
        c = np.atleast_1d(np.asarray(c, dtype=np.float64))
        n = c.shape[0]
        a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=np.float64).reshape(-1, n)
        b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=np.float64))
        a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=np.float64).reshape(-1, n)
        b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=np.float64))
        if a_ub.shape[0] != b_ub.shape[0] or a_eq.shape[0] != b_eq.shape[0]:
            raise ValueError("constraint matrix and right-hand side sizes differ")
        if not all(np.isfinite(arr).all() for arr in (c, a_ub, b_ub, a_eq, b_eq)):
            raise ValueError("linear program has non-finite coefficients")
        if start is not None:
            start = tuple(operator.index(j) for j in start)
            if len(start) != a_ub.shape[0] + a_eq.shape[0]:
                raise ValueError("start needs one column per equality row and one per >= row")
            if any(not 0 <= j < n + a_ub.shape[0] for j in start):
                raise ValueError("start names a column outside the program")
            if len(set(start)) != len(start):
                raise ValueError("start repeats a column")
        return LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, start=start)


@dataclass(frozen=True)
class LPSolution:
    """A solver outcome; ``x``, ``objective`` and ``basis`` are None unless OPTIMAL.

    ``basis`` lists the final basis, one column per row in the numbering of
    ``LinearProgram.start``, so it can start a related program.  It is also
    None when phase 1 dropped redundant rows: the basis is then too short
    for the full program.
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    basis: tuple[int, ...] | None = None


def _bland_pivots(a: np.ndarray, b: np.ndarray, cost: np.ndarray,
                  basis: np.ndarray, x_b: np.ndarray | None = None
                  ) -> tuple[str, np.ndarray | None]:
    """Revised simplex (minimization) with Bland's rule, in place on ``basis``.

    Each iteration re-solves against the original data, so degenerate pivot
    chains cannot accumulate roundoff.  A given x_b, already solved at the
    starting basis, stands in for the first iteration's solve.  Entering
    column: the lowest-index nonbasic column with negative reduced cost;
    leaving row: minimum ratio, ties broken by the smallest basic variable
    index.  Returns (status, x_B) with x_B solved at the final basis on
    OPTIMAL, else None; NUMERICAL at the pivot limit.  A singular basis
    raises LinAlgError.
    """
    m = a.shape[0]
    max_pivots = 200 * (m + a.shape[1] + 10)
    for _ in range(max_pivots):
        bmat = a[:, basis]
        if x_b is None:
            x_b = np.linalg.solve(bmat, b)
        y = np.linalg.solve(bmat.T, cost[basis])
        reduced = cost - y @ a
        # A basic column's reduced cost is zero; roundoff in a near-singular
        # basis must not make it enter, which would leave the basis unchanged.
        reduced[basis] = 0.0
        candidates = np.flatnonzero(reduced < -LP_TOL)
        if candidates.size == 0:
            return OPTIMAL, x_b
        enter = int(candidates[0])
        direction = np.linalg.solve(bmat, a[:, enter])
        positive = direction > PIVOT_TOL
        if not positive.any():
            return UNBOUNDED, None
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(x_b[positive], 0.0) / direction[positive]
        best = ratios.min()
        tied = np.flatnonzero(ratios <= best + 1e-12)
        leave = int(tied[np.argmin(basis[tied])])
        basis[leave] = enter
        x_b = None
    return NUMERICAL, None


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Two-phase dense simplex with Bland's rule; statuses, never exceptions.

    A program whose ``start`` basis is nonsingular and feasible within
    LP_TOL * max(1, max|b|) goes straight to phase 2 from it; any other
    start is ignored and both phases run.  Re-solving a program from its
    own optimal ``basis`` makes no pivot.  A singular basis, the pivot
    limit, or a phase 1 that does not end optimal (its objective is bounded
    below by 0) is reported as NUMERICAL: roundoff decided the outcome, not
    the program.
    """
    try:
        return _two_phase(lp)
    except np.linalg.LinAlgError:
        return LPSolution(status=NUMERICAL, x=None, objective=None)


def _start_basis(a: np.ndarray, b: np.ndarray, start: tuple[int, ...] | None,
                 feas_tol: float) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The start's (basis, x_B); (None, None) when there is no start, its
    basis is singular, or some basic variable is below -feas_tol, and the
    caller then runs phase 1.
    """
    if start is None:
        return None, None
    basis = np.asarray(start, dtype=np.intp)
    try:
        x_b = np.linalg.solve(a[:, basis], b)
    except np.linalg.LinAlgError:
        return None, None
    return (basis, x_b) if x_b.min() >= -feas_tol else (None, None)


def _phase_one(a: np.ndarray, b: np.ndarray, feas_tol: float
               ) -> tuple[str, np.ndarray, np.ndarray, np.ndarray | None]:
    """Phase 1 from the all-artificial basis: (status, a, b, basis).

    On OPTIMAL, basis is a feasible basis of a's columns, and the rows that
    phase 1 proved redundant are dropped from a and b.  A phase 1 that does
    not end optimal is NUMERICAL; leftover artificial mass is INFEASIBLE.
    """
    m, n_slack = a.shape
    a1 = np.hstack([a, np.eye(m)])
    cost1 = np.concatenate([np.zeros(n_slack), np.ones(m)])
    basis = np.arange(n_slack, n_slack + m)
    status, x_b = _bland_pivots(a1, b, cost1, basis)
    if status != OPTIMAL:
        return NUMERICAL, a, b, None
    if float(cost1[basis] @ x_b) > feas_tol:
        return INFEASIBLE, a, b, None

    # Drive leftover artificials out of the basis; drop redundant rows.
    artificial = np.flatnonzero(basis >= n_slack)
    if artificial.size:
        weights = np.linalg.solve(a1[:, basis], a)   # B^-1 A over real columns
        keep = np.ones(m, dtype=bool)
        for i in artificial:
            options = np.flatnonzero(np.abs(weights[i]) > 1e-7)
            options = [j for j in options if j not in basis]
            if options:
                basis[i] = options[0]
                weights = np.linalg.solve(a1[:, basis], a)
            else:
                keep[i] = False
        if not keep.all():
            a, b, basis = a[keep], b[keep], basis[keep]
    return OPTIMAL, a, b, basis


def _equality_form(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of A_ub x - s = b_ub (s >= 0 surplus), A_eq x = b_eq, rows negated so b >= 0."""
    (m_ub, n), m_eq = lp.a_ub.shape, lp.a_eq.shape[0]
    a = np.zeros((m_ub + m_eq, n + m_ub))
    a[:m_ub, :n] = lp.a_ub
    a[:m_ub, n:] = -np.eye(m_ub)
    a[m_ub:, :n] = lp.a_eq
    b = np.concatenate([lp.b_ub, lp.b_eq])
    a[b < 0] *= -1.0
    return a, np.abs(b)


def _two_phase(lp: LinearProgram) -> LPSolution:
    """solve_lp's body; x is phase 2's final x_B, not solved again at its basis."""
    n = lp.c.shape[0]
    if n < 1:
        raise ValueError("linear program needs at least one variable")
    a, b = _equality_form(lp)
    m, n_slack = a.shape

    if m == 0:
        # Only nonnegativity: optimum is 0 unless some objective entry is positive.
        if (lp.c > LP_TOL).any():
            return LPSolution(status=UNBOUNDED, x=None, objective=None)
        return LPSolution(status=OPTIMAL, x=np.zeros(n), objective=0.0, basis=())

    feas_tol = LP_TOL * max(1.0, float(np.abs(b).max(initial=0.0)))
    basis, x_b = _start_basis(a, b, lp.start, feas_tol)
    if basis is None:
        status, a, b, basis = _phase_one(a, b, feas_tol)
        if status != OPTIMAL:
            return LPSolution(status=status, x=None, objective=None)

    # Phase 2: minimize -c (i.e. maximize c) over the real variables.
    cost2 = np.zeros(n_slack)
    cost2[:n] = -lp.c
    status, x_b = _bland_pivots(a, b, cost2, basis, x_b)
    if status != OPTIMAL:
        return LPSolution(status=status, x=None, objective=None)

    x_full = np.zeros(n_slack)
    x_full[basis] = x_b
    x = x_full[:n]
    x[(x < 0) & (x > -1e-7)] = 0.0
    whole = tuple(basis.tolist()) if basis.size == m else None
    return LPSolution(status=OPTIMAL, x=x, objective=float(lp.c @ x), basis=whole)


# ---------------------------------------------------------------------------
# Modified-policy values and LP^i(pi)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModificationValues:
    """Values of every deterministic modification of one player, canonical order."""

    player: int
    mods: list[MarkovModification]
    occupancies: np.ndarray   # (K, H, S, A)
    reward: np.ndarray        # (K,)  V^{r^i}(phi(k) o pi)
    constraint: np.ndarray    # (J, K) rows use g^{i,j} (playerwise) or g^j (common)
    thresholds: np.ndarray    # (J,)


def batch_modified_occupancies(game: ConstrainedMarkovGame, player: int,
                               policy: np.ndarray,
                               stacked_tables: np.ndarray) -> np.ndarray:
    """Occupancies of (phi(k) o pi) for a whole stack of modification tables.

    stacked_tables is (K, H, S, A_i, A_i); returns (K, H, S, A).  One
    K-batched propagation, composed one timestep at a time and written into
    the one (K, H, S, A) output, instead of K separate passes.
    """
    occs = np.empty((stacked_tables.shape[0], game.horizon,
                     game.num_states, game.num_joint_actions))
    composed = (compose_timestep(game, policy[t], stacked_tables[:, t], player)
                for t in range(game.horizon))
    for t, d_t in enumerate(propagate(game.rho, game.kernel, composed)):
        occs[:, t] = d_t
    return occs


def modification_values(game: ConstrainedMarkovGame, player: int, policy: np.ndarray,
                        cap: int = DEFAULT_ENUM_CAP) -> ModificationValues:
    """Values of every deterministic modification of ``player`` under ``policy``."""
    mods, _ = enumerate_det_modifications(game, player, cap=cap)
    occs = batch_modified_occupancies(game, player, policy,
                                      np.stack([mod.tables for mod in mods]))
    flat = occs.reshape(len(mods), -1)
    reward = flat @ game.rewards[player].reshape(-1)
    j = game.num_constraints
    constraint = np.empty((j, len(mods)))
    thresholds = np.empty(j)
    for idx in range(j):
        constraint[idx] = flat @ game.constraint_table(player, idx).reshape(-1)
        thresholds[idx] = game.threshold(player, idx)
    return ModificationValues(player=player, mods=mods, occupancies=occs, reward=reward,
                              constraint=constraint, thresholds=thresholds)


# ---------------------------------------------------------------------------
# The pair-MDP occupancy program
# ---------------------------------------------------------------------------

def build_pair_occupancy_lp(game: ConstrainedMarkovGame, player: int,
                            policy: np.ndarray) -> LinearProgram:
    """The constrained-MDP occupancy program of the pair MDP (Altman 1999).

    Variables are x_t((s, r), p), the pair-MDP occupancy without the
    absorbing state b (it earns nothing and never flows back), row-major
    over (t, s, r, p): H*|S|*|A_i|^2 of them.  Equality rows are flow
    conservation per (t, (s, r)) under build_mdp2's kernels and rho; the
    objective is the lifted reward r^i and each lifted constraint
    g^{i,j} must reach c^{i,j}.
    """
    mdp = build_mdp2(game, player, policy)
    h, n, ai = game.horizon, mdp.num_states[0], mdp.num_actions
    kernel = np.array([k[:n, :, :n] for k in mdp.kernels]).reshape(h - 1, n, ai, n)
    a_eq, b_eq = flow_rows(kernel, mdp.rho[:n])
    j = game.num_constraints
    signals = np.stack([game.rewards[player]] + [game.constraint_table(player, k) for k in range(j)])
    lifted = lift_signals(game, player, policy, signals).reshape(j + 1, -1)
    return LinearProgram.build(c=lifted[0], a_ub=lifted[1:], a_eq=a_eq, b_eq=b_eq,
                               b_ub=[game.threshold(player, k) for k in range(j)])


def identity_basis(game: ConstrainedMarkovGame, player: int) -> tuple[int, ...]:
    """The identity modification's whole basis in ``player``'s pair program: its
    pair columns x_t((s, r), r), one per flow row, then every surplus column."""
    ai = game.action_counts[player]
    cells = game.horizon * game.num_states * ai
    return (tuple(c * ai + c % ai for c in range(cells))
            + tuple(range(cells * ai, cells * ai + game.num_constraints)))


# ---------------------------------------------------------------------------
# Hull membership and occupancy mixing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HullMembership:
    member: bool
    alpha: np.ndarray
    residual: float


def hull_membership(point: np.ndarray, vertices: list[np.ndarray],
                    tol: float = HULL_TOL) -> HullMembership:
    """Is ``point`` a convex combination of ``vertices``, within tol per coordinate?

    Solves the feasibility question  sum_k alpha_k v_k = point, alpha in the
    simplex, by minimizing the worst per-coordinate residual e over (alpha, e);
    membership holds iff the optimum is at most ``tol``.  True members come
    back with residuals at floating-point noise, not at the tolerance.  The
    program is always feasible and bounded, so any other outcome raises.
    """
    target = np.asarray(point, dtype=np.float64).reshape(-1)
    mat = np.stack([np.asarray(v, dtype=np.float64).reshape(-1) for v in vertices], axis=1)
    dim, k = mat.shape
    ones = np.ones((dim, 1))
    c = np.zeros(k + 1)
    c[k] = -1.0                       # maximize -e, i.e. minimize the residual
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    lp = LinearProgram.build(
        c=c,
        a_ub=np.vstack([np.hstack([mat, ones]), np.hstack([-mat, ones])]),
        b_ub=np.concatenate([target, -target]),
        a_eq=a_eq, b_eq=[1.0])
    sol = solve_lp(lp)
    require_optimal(sol.status, "hull-membership program")   # always feasible and bounded
    alpha = sol.x[:k]
    residual = float(np.abs(mat @ alpha - target).max())
    return HullMembership(member=residual <= tol, alpha=alpha, residual=residual)


def mix_occupancies(alpha: np.ndarray, occupancies) -> np.ndarray:
    """Entrywise convex combination of occupancy measures."""
    alpha = np.asarray(alpha, dtype=np.float64)
    stacked = np.asarray(occupancies, dtype=np.float64)
    if alpha.ndim != 1 or alpha.shape[0] != stacked.shape[0]:
        raise ValueError("alpha and occupancy list lengths differ")
    if alpha.min() < -LP_TOL or abs(alpha.sum() - 1.0) > LP_TOL:
        raise ValueError("alpha is not a probability vector")
    return np.tensordot(alpha, stacked, axes=1)


# ---------------------------------------------------------------------------
# Slack programs and LP regularity probes, over the pair program
# ---------------------------------------------------------------------------

def max_min_slack(program: LinearProgram) -> tuple[float, np.ndarray]:
    """max over the program's feasible x of min_r (A_ub x - b_ub)_r; its objective is ignored.

    The epigraph variable t = u - v is split into a nonnegative pair, keeping
    the solver's x >= 0 convention.  A start carries over (_epigraph_start).
    Raises NumericalLPError on numerical trouble.
    """
    (m, n), m_eq = program.a_ub.shape, program.a_eq.shape[0]
    sol = solve_lp(LinearProgram.build(
        c=np.concatenate([np.zeros(n), [1.0, -1.0]]),
        a_ub=np.hstack([program.a_ub, -np.ones((m, 1)), np.ones((m, 1))]), b_ub=program.b_ub,
        a_eq=np.hstack([program.a_eq, np.zeros((m_eq, 2))]), b_eq=program.b_eq,
        start=_epigraph_start(program)))
    require_optimal(sol.status, "max-min slack program")
    return float(sol.objective), sol.x[:n]


def _epigraph_start(program: LinearProgram) -> tuple[int, ...] | None:
    """The start with the least-slack row's surplus column traded for u (slack >= 0)
    or v (slack < 0); if that column is nonbasic, every slack is >= 0 and t = 0
    needs no trade.  None without a start or at a singular one."""
    if program.start is None or not program.b_ub.size:
        return None
    a, b = _equality_form(program)
    n, basis, x = program.c.shape[0], list(program.start), np.zeros(a.shape[1])
    try:
        x[basis] = np.linalg.solve(a[:, basis], b)
    except np.linalg.LinAlgError:
        return None
    row = n + int(np.argmin(x[n:]))
    epigraph = n if x[row] >= 0.0 else n + 1
    return tuple(epigraph if j == row else j if j < n else j + 2 for j in basis)


def min_weight_feasible(game: ConstrainedMarkovGame, player: int, policy: np.ndarray,
                        program: LinearProgram) -> float | None:
    """The largest epsilon for which some feasible alpha puts >= epsilon on every
    deterministic modification of ``player``; None when no alpha is feasible.

    ``program`` is the player's pair program, G w >= c and A_eq w = b_eq.  In
    alpha = epsilon 1 + beta, epsilon 1 is K epsilon times the uniform
    modification (product weights 1/K), so C 1 = K v_u, and beta is
    (1 - K epsilon) times a point of the pair polytope.  So lambda = K epsilon
    solves max lambda s.t. G w + lambda v_u >= c, A_eq w + lambda b_eq = b_eq
    (lambda <= 1 is implied), started at lambda = 0 from the program's start.
    Raises NumericalLPError on numerical trouble.
    """
    ai = game.action_counts[player]
    uniform = MarkovModification(player=player, tables=np.full(
        (game.horizon, game.num_states, ai, ai), 1.0 / ai))
    v_u = evaluate(game, compute_occupancy(game, apply_modification(game, policy, uniform)))
    n = program.c.shape[0]
    sol = solve_lp(LinearProgram.build(
        c=np.concatenate([np.zeros(n), [1.0]]), b_ub=program.b_ub, b_eq=program.b_eq,
        a_ub=np.hstack([program.a_ub, v_u.constraint[player][:, None]]),
        a_eq=np.hstack([program.a_eq, program.b_eq[:, None]]),
        start=program.start and tuple(k if k < n else k + 1 for k in program.start)))
    if sol.status == INFEASIBLE:
        return None
    require_optimal(sol.status, "min-weight program")
    return sol.x[n] / count_det_modifications(game, player)


@dataclass(frozen=True)
class LPRegularityReport:
    """Per-policy regularity of the constraint rows over the deterministic family.

    strictly_feasible  — a weight vector with all slacks > 0 exists;
    constant_rows      — constraint rows that are constant across k (the
                         degenerate beta * ones case);
    minima             — min over modifications of V^{g^{i,j}}, per j;
    positive_weight_feasible / min_weight — the largest EPSILON_SWEEP value
    at or below min_weight_feasible's maximum.
    """

    player: int
    strictly_feasible: bool
    max_min_slack: float
    constant_rows: tuple[int, ...]
    minima: tuple[float, ...]
    positive_weight_feasible: bool
    min_weight: float | None


EPSILON_SWEEP = tuple(10.0 ** -e for e in range(3, 10))   # 1e-3 .. 1e-9


def check_lp_regularity(game: ConstrainedMarkovGame, player: int,
                        policy: np.ndarray) -> LPRegularityReport:
    """The margin and the minimum weight from the pair program started at the
    identity basis, the row extremes from backward induction."""
    program = replace(build_pair_occupancy_lp(game, player, policy),
                      start=identity_basis(game, player))
    margin = max_min_slack(program)[0] if program.b_ub.size else np.inf
    eps_max = min_weight_feasible(game, player, policy, program)
    min_weight = next((e for e in EPSILON_SWEEP if eps_max is not None and e <= eps_max), None)
    mdp = build_mdp2(game, player, policy)
    lifted = [lift_reward(game, player, policy, game.constraint_table(player, j))
              for j in range(game.num_constraints)]
    maxima, minima = ([optimize_aux(mdp, rows, direction)[0] for rows in lifted]
                      for direction in ("max", "min"))
    return LPRegularityReport(
        player=player, strictly_feasible=margin > LP_TOL, max_min_slack=margin,
        constant_rows=tuple(int(j) for j in np.flatnonzero(np.subtract(maxima, minima) <= 1e-12)),
        minima=tuple(minima), positive_weight_feasible=min_weight is not None,
        min_weight=min_weight)
