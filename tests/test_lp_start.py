"""Starting the simplex at a named basis: validation, fallback and differential checks.

A program's ``start`` is a whole basis, one column per row.  It skips phase
1 only when that basis is nonsingular and feasible; every other start must
give exactly the two-phase result.  The alpha-program oracle starts at the
identity modification, so at an i-feasible policy it takes phase 2 alone;
find_cce's pair programs start at the identity's pair columns and later at
the player's previous optimal basis.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import cmgames as cm
import cmgames.lp as lpmod
from cmgames.dynamics import slacks_of
from cmgames.game import COMMON, PLAYERWISE
from cmgames.lp import LP_TOL, LinearProgram, solve_lp
from cmgames.modifications import count_det_modifications
from oracles import (
    best_feasible_modification,
    bfs_lp_oracle,
    build_best_modification_lp,
    random_game,
    random_policy,
    thresholds_at_policy,
)


def _assert_feasible(lp, x):
    scale = LP_TOL * max(1.0, float(np.abs(np.concatenate([lp.b_ub, lp.b_eq])).max(initial=0.0)))
    assert x.min() >= -scale
    if lp.b_ub.size:
        assert (lp.a_ub @ x - lp.b_ub).min() >= -scale
    if lp.b_eq.size:
        assert np.abs(lp.a_eq @ x - lp.b_eq).max() <= scale


def _start_is_feasible(lp):
    """Does an alpha-program's start, the vertex e_identity, meet every >= row?"""
    k = lp.start[0]
    scale = LP_TOL * max(1.0, float(np.abs(np.concatenate([lp.b_ub, lp.b_eq])).max()))
    return (lp.a_ub[:, k] - lp.b_ub).min(initial=np.inf) >= -scale


def _policies(rng, game):
    """A Dirichlet policy and, when the constraint set is nonempty, Gamma of a feasible occupancy."""
    yield random_policy(rng, game)
    occ = cm.feasible_occupancy(game)
    if occ is not None:
        yield cm.occupancy_to_policy(game, occ)


def _alpha_programs():
    """Best-modification programs over both modes, J = 0..3 and three policy kinds.

    Thresholds at 0.5 of the uniform policy's values keep most policies
    feasible; at 1.3 most Dirichlet policies are not, so in playerwise mode
    their identity modification is an infeasible start.
    """
    programs = []
    shapes = [(2, 1, (2, 2)), (1, 2, (2, 2)), (1, 1, (3, 2))]
    for seed in range(4):
        rng = np.random.default_rng(7100 + seed)
        for mode in (COMMON, PLAYERWISE):
            for j in range(4):
                for scale in (0.5, 1.3):
                    states, horizon, counts = shapes[(seed + j) % len(shapes)]
                    game = random_game(rng, num_states=states, horizon=horizon,
                                       action_counts=counts, j=j, mode=mode,
                                       threshold_scale=scale)
                    for policy in _policies(rng, game):
                        for i in range(game.num_players):
                            programs.append(build_best_modification_lp(game, i, policy))
    return programs


@pytest.fixture(scope="module")
def alpha_programs():
    return _alpha_programs()


def test_start_matches_two_phase_on_alpha_programs(alpha_programs):
    feasible_starts = infeasible_starts = 0
    for lp in alpha_programs:
        sol = solve_lp(lp)
        ref = solve_lp(dataclasses.replace(lp, start=None))
        assert sol.status == ref.status
        if _start_is_feasible(lp):
            feasible_starts += 1
            assert sol.status == "optimal"
            assert abs(sol.objective - ref.objective) <= 1e-12 * max(1.0, abs(ref.objective))
            _assert_feasible(lp, sol.x)
            _assert_feasible(lp, ref.x)
        else:
            infeasible_starts += 1
            # The start is ignored: the same two phases, so the same bits.
            assert sol.objective == ref.objective
            assert (sol.x is None and ref.x is None) or np.array_equal(sol.x, ref.x)
    assert feasible_starts >= 50 and infeasible_starts >= 10


def test_feasible_start_skips_phase_one(alpha_programs, monkeypatch):
    calls = []
    real = lpmod._bland_pivots

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lpmod, "_bland_pivots", counting)
    checked = 0
    for lp in alpha_programs:
        if not _start_is_feasible(lp):
            continue
        calls.clear()
        solve_lp(lp)
        assert len(calls) == 1           # phase 2 only
        calls.clear()
        solve_lp(dataclasses.replace(lp, start=None))
        assert len(calls) == 2           # phase 1, then phase 2
        checked += 1
    assert checked >= 50


def test_alpha_programs_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    programs = []
    for seed, (states, horizon, counts, j) in enumerate(
            [(2, 2, (2, 2), 1), (2, 2, (2, 2), 3), (1, 2, (2, 2), 2), (1, 1, (3, 2), 2)]):
        rng = np.random.default_rng(7200 + seed)
        game = random_game(rng, num_states=states, horizon=horizon, action_counts=counts, j=j)
        programs.append(build_best_modification_lp(game, 0, cm.occupancy_to_policy(
            game, cm.feasible_occupancy(game))))
    assert max(lp.c.shape[0] for lp in programs) == 256
    for lp in programs:
        sol = solve_lp(lp)
        ref = linprog(-lp.c, A_ub=-lp.a_ub, b_ub=-lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                      bounds=(0, None), method="highs")
        assert sol.status == "optimal" and ref.status == 0
        assert sol.objective == pytest.approx(-ref.fun, abs=1e-9)


def _random_started_lp(rng):
    """A bounded random program with 1-2 equality rows.

    Its start is a random set of distinct structural columns, one per
    equality row, followed by every surplus column.
    """
    n = int(rng.integers(3, 7))
    m_ub = int(rng.integers(0, 4))
    m_eq = int(rng.integers(1, 3))
    a_ub = np.vstack([rng.uniform(-1, 1, size=(m_ub, n)), -np.ones((1, n))])
    b_ub = np.concatenate([rng.uniform(-1, 0.2, size=m_ub), [-float(rng.uniform(1.0, 3.0))]])
    return LinearProgram.build(
        c=rng.uniform(-1, 1, size=n), a_ub=a_ub, b_ub=b_ub,
        a_eq=rng.uniform(0.2, 1, size=(m_eq, n)), b_eq=rng.uniform(0.5, 1.5, size=m_eq),
        start=tuple(rng.choice(n, size=m_eq, replace=False)) + tuple(range(n, n + m_ub + 1)))


@pytest.mark.parametrize("seed", range(20))
def test_random_start_matches_bfs_enumeration(seed):
    lp = _random_started_lp(np.random.default_rng(7300 + seed))
    sol = solve_lp(lp)
    status, best = bfs_lp_oracle(lp)
    assert sol.status == status == solve_lp(dataclasses.replace(lp, start=None)).status
    if status == "optimal":
        assert sol.objective == pytest.approx(best, abs=1e-9)
        _assert_feasible(lp, sol.x)


@pytest.mark.parametrize("start, message", [
    ((), "one column per equality row"),
    ((0, 1), "one column per equality row"),
    ((2,), "outside the program"),
    ((-1,), "outside the program"),
    ((0.0,), "integer"),
])
def test_start_is_validated(start, message):
    with pytest.raises((ValueError, TypeError), match=message):
        LinearProgram.build(c=[1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], start=start)


def test_start_rejects_repeated_column():
    with pytest.raises(ValueError, match="repeats"):
        LinearProgram.build(c=[1.0, 0.0, 0.0], a_eq=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                            b_eq=[1.0, 1.0], start=(1, 1))


def test_singular_start_falls_back_to_two_phase():
    # Columns 0 and 1 are equal, so the start basis cannot be factored.
    lp = LinearProgram.build(c=[1.0, 2.0, 3.0], a_eq=[[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]],
                             b_eq=[1.0, 2.0], start=(0, 1))
    sol = solve_lp(lp)
    ref = solve_lp(dataclasses.replace(lp, start=None))
    assert sol.status == ref.status == "optimal"
    assert sol.objective == ref.objective == pytest.approx(5.0, abs=1e-12)
    assert np.array_equal(sol.x, ref.x)


def test_infeasible_start_falls_back_to_two_phase():
    # e_0 violates the >= row, so phase 1 runs; the optimum is x = (1/2, 1/2).
    lp = LinearProgram.build(c=[1.0, 0.5], a_ub=[[0.0, 1.0]], b_ub=[0.5],
                             a_eq=[[1.0, 1.0]], b_eq=[1.0], start=(0, 2))
    sol = solve_lp(lp)
    ref = solve_lp(dataclasses.replace(lp, start=None))
    assert sol.status == ref.status == "optimal"
    assert np.array_equal(sol.x, ref.x)
    assert sol.objective == pytest.approx(0.75, abs=1e-12)


# --- Whole-basis validation and LPSolution.basis --------------------------------

def _two_row_lp(start=None):
    """n = 3 structural columns, one >= row (surplus column 3), two equality rows."""
    return LinearProgram.build(c=[1.0, 2.0, 0.5], a_ub=[[1.0, 0.0, 1.0]], b_ub=[0.25],
                               a_eq=[[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]], b_eq=[1.0, 0.5],
                               start=start)


@pytest.mark.parametrize("start, message", [
    ((0, 1, 2, 3), "one column per equality row"),
    ((0,), "one column per equality row"),
    ((0, 1, 4), "outside the program"),     # one past the last surplus column
    ((0, -1, 3), "outside the program"),
    ((0, 3, 3), "repeats"),
    ((0, 1, 3.0), "integer"),
])
def test_whole_basis_start_is_validated(start, message):
    with pytest.raises((ValueError, TypeError), match=message):
        _two_row_lp(start)


def _recording_pivots(monkeypatch):
    """Wrap _bland_pivots; each call records (basis before, basis after)."""
    calls = []
    real = lpmod._bland_pivots

    def recording(a, b, cost, basis, x_b=None):
        before = basis.copy()
        status = real(a, b, cost, basis, x_b)
        calls.append((before, basis.copy()))
        return status

    monkeypatch.setattr(lpmod, "_bland_pivots", recording)
    return calls


def test_resolve_from_own_basis_makes_no_pivot(alpha_programs, monkeypatch):
    programs = alpha_programs + [_random_started_lp(np.random.default_rng(7300 + s))
                                 for s in range(20)]
    calls = _recording_pivots(monkeypatch)
    checked = 0
    for lp in programs:
        sol = solve_lp(lp)
        if sol.basis is None:
            continue
        m = lp.b_ub.shape[0] + lp.b_eq.shape[0]
        assert len(sol.basis) == m and len(set(sol.basis)) == m
        calls.clear()
        again = solve_lp(dataclasses.replace(lp, start=sol.basis))
        assert len(calls) == 1
        before, after = calls[0]
        assert np.array_equal(before, after) and tuple(after) == sol.basis
        assert again.status == "optimal" and again.basis == sol.basis
        assert np.array_equal(again.x, sol.x) and again.objective == sol.objective
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize("lp", [
    # Columns 0 and 1 are equal in every row: the whole basis is singular.
    LinearProgram.build(c=[1.0, 2.0, 3.0], a_ub=[[1.0, 1.0, 0.0]], b_ub=[0.5],
                        a_eq=[[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]], b_eq=[1.0, 2.0],
                        start=(0, 1, 3)),
    # x_0 = 1 leaves the surplus of x_1 >= 0.5 at -0.5: the whole basis is infeasible.
    LinearProgram.build(c=[1.0, 0.5], a_ub=[[0.0, 1.0]], b_ub=[0.5],
                        a_eq=[[1.0, 1.0]], b_eq=[1.0], start=(0, 2)),
], ids=["singular", "infeasible"])
def test_rejected_whole_basis_falls_back_to_two_phase(lp, monkeypatch):
    calls = _recording_pivots(monkeypatch)
    sol = solve_lp(lp)
    assert len(calls) == 2                   # phase 1, then phase 2
    ref = solve_lp(dataclasses.replace(lp, start=None))
    assert sol.status == ref.status == "optimal"
    assert np.array_equal(sol.x, ref.x) and sol.objective == ref.objective
    assert sol.basis == ref.basis


@pytest.mark.parametrize("lp, status", [
    (LinearProgram.build(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[2.0],
                         a_eq=[[1.0, 1.0]], b_eq=[1.0]), "infeasible"),
    (LinearProgram.build(c=[1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[0.0]), "unbounded"),
], ids=["infeasible", "unbounded"])
def test_basis_is_none_unless_optimal(lp, status):
    sol = solve_lp(lp)
    assert sol.status == status and sol.basis is None


def test_basis_is_none_on_numerical(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(lpmod, "_bland_pivots", singular)
    sol = solve_lp(_two_row_lp())
    assert sol.status == "numerical" and sol.basis is None


def test_basis_is_none_when_phase_one_drops_a_row():
    # The second equality row is twice the first, so phase 1 drops one of them.
    lp = LinearProgram.build(c=[1.0, 2.0], a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.objective == pytest.approx(2.0, abs=1e-12)
    assert sol.basis is None


# --- find_cce's warm start ------------------------------------------------------

def _find_games():
    for seed in range(6):
        rng = np.random.default_rng(7400 + seed)
        yield random_game(rng, num_states=2, horizon=1 + seed % 2, action_counts=(2, 2),
                          j=1 + seed % 3, threshold_scale=0.9)
    yield cm.load_game(Path(__file__).parent / "data" / "find_singular_basis.game")


def _identity_start(game, player, lp):
    """The identity modification's pair columns, one per flow row, then every surplus column."""
    ai, n = game.action_counts[player], lp.c.shape[0]
    return (tuple(c * ai + c % ai for c in range(lp.a_eq.shape[0]))
            + tuple(range(n, n + lp.a_ub.shape[0])))


@pytest.fixture(scope="module")
def find_programs():
    """((game, player, policy), program, solution) for every started program find_cce solves."""
    built, solved = [], []
    real_build, real_solve = lpmod.build_pair_occupancy_lp, lpmod.solve_lp

    def recording_build(game, player, policy):
        built.append((game, player, policy))
        return real_build(game, player, policy)

    def recording_solve(lp):
        sol = real_solve(lp)
        if lp.start is not None:             # only the feasible-occupancy program has none
            solved.append((built[-1], lp, sol))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpmod, "build_pair_occupancy_lp", recording_build)
        mp.setattr(lpmod, "solve_lp", recording_solve)
        for game in _find_games():
            cm.find_cce(game, max_iters=20, tol=1e-6)
    return solved


def _feasible(game, policy):
    return slacks_of(game, cm.compute_occupancy(game, policy)).min() >= 0.0


def test_find_cce_warm_starts_match_identity_starts(find_programs):
    """Every pair program find_cce solves from a start, re-solved without one.

    Each player's first program starts at the identity; later ones count as
    warm when their start is any other basis.  Where the iterate is feasible
    the floors are inactive, so the pair program's optimum is also the
    enumerated alpha-program's Psi^i.
    """
    warm = feasible = 0
    first = set()
    for (game, player, policy), lp, sol in find_programs:
        identity = _identity_start(game, player, lp)
        if (id(game), player) not in first:
            first.add((id(game), player))
            assert lp.start == identity
        warm += lp.start != identity
        ref = solve_lp(dataclasses.replace(lp, start=None))
        assert sol.status == ref.status
        assert abs(sol.objective - ref.objective) <= 1e-12
        if _feasible(game, policy):
            assert count_det_modifications(game, player) <= 256
            best = best_feasible_modification(game, player, policy)
            assert abs(best.psi - sol.objective) <= 1e-9
            feasible += 1
    assert len(first) == 14 and warm >= 100 and feasible >= 100


def test_identity_start_skips_phase_one_on_find_programs(find_programs, monkeypatch):
    """At a feasible iterate the identity's whole basis is feasible: phase 2 only."""
    calls = _recording_pivots(monkeypatch)
    checked = 0
    for (game, player, policy), lp, sol in find_programs:
        if not _feasible(game, policy):
            continue
        calls.clear()
        again = solve_lp(dataclasses.replace(lp, start=_identity_start(game, player, lp)))
        assert len(calls) == 1
        assert again.status == "optimal"
        assert abs(again.objective - sol.objective) <= 1e-12
        checked += 1
    assert checked >= 100


def test_find_cce_solves_each_psi_program_once_from_a_start(monkeypatch):
    """N programs per round plus the certificate's N when the budget runs out:
    every pair program goes to solve_lp with a start, and the only program
    solved cold is feasible_occupancy's."""
    pair_rows, started, cold = [], [], []
    real_build, real_solve = lpmod.build_pair_occupancy_lp, lpmod.solve_lp

    def recording_build(game, player, policy):
        lp = real_build(game, player, policy)
        pair_rows.append(lp.a_eq)            # the floored program shares this array
        return lp

    def recording_solve(lp):
        if any(lp.a_eq is rows for rows in pair_rows):
            assert lp.start is not None
            started.append(lp)
        else:
            cold.append(lp)
        return real_solve(lp)

    monkeypatch.setattr(lpmod, "build_pair_occupancy_lp", recording_build)
    monkeypatch.setattr(lpmod, "solve_lp", recording_solve)
    budget_runs = 0
    for game in _find_games():
        for max_iters in (0, 1, 20):
            for recorded in (pair_rows, started, cold):
                recorded.clear()
            result = cm.find_cce(game, max_iters=max_iters, tol=1e-6)
            assert len(pair_rows) == len(started)
            assert len(started) == game.num_players * (len(result.trace.steps) + 1)
            assert len(cold) == 1 and cold[0].start is None and not cold[0].c.any()
            assert cold[0].a_eq.shape[1] == game.rewards[0].size   # over game occupancies
            budget_runs += not result.trace.converged
    assert budget_runs >= 15


def test_simplex_factors_no_final_basis_twice(alpha_programs, monkeypatch):
    """A re-solve from the program's own optimal basis makes exactly two
    solves (the start check's x_B, which the pivot iteration reuses, and y);
    a cold solve makes none after its last pivot iteration, since x is that
    iteration's x_B."""
    solves, at_return = [0], []
    real_solve, real_pivots = np.linalg.solve, lpmod._bland_pivots

    def counting(*args, **kwargs):
        solves[0] += 1
        return real_solve(*args, **kwargs)

    def pivots(a, b, cost, basis, x_b=None):
        result = real_pivots(a, b, cost, basis, x_b)
        at_return.append(solves[0])
        return result

    monkeypatch.setattr(np.linalg, "solve", counting)
    monkeypatch.setattr(lpmod, "_bland_pivots", pivots)
    programs = alpha_programs + [_random_started_lp(np.random.default_rng(7300 + s))
                                 for s in range(20)]
    resolved = 0
    for lp in programs:
        solves[0] = 0
        at_return.clear()
        sol = solve_lp(dataclasses.replace(lp, start=None))
        assert sol.status != "optimal" or solves[0] == at_return[-1]
        if sol.basis is None:
            continue
        solves[0] = 0
        again = solve_lp(dataclasses.replace(lp, start=sol.basis))
        assert solves[0] == 2
        assert np.array_equal(again.x, sol.x) and again.objective == sol.objective
        resolved += 1
    assert resolved >= 100


# --- the Slater programs' identity start ---------------------------------------

def test_identity_start_skips_phase_one_on_slater_programs(monkeypatch):
    """check_lp_regularity's max-min and min-weight programs start at the
    identity basis: at a feasible policy each takes phase 2 alone.  The
    max-min start is feasible at any policy, so check_strong_slater_at never
    runs phase 1."""
    calls = _recording_pivots(monkeypatch)
    pivot_runs = []
    real_solve = lpmod.solve_lp

    def recording_solve(lp):
        before = len(calls)
        sol = real_solve(lp)
        pivot_runs.append(len(calls) - before)
        return sol

    monkeypatch.setattr(lpmod, "solve_lp", recording_solve)
    rng = np.random.default_rng(7500)
    regular = infeasible = 0
    for trial in range(24):
        counts = ((2, 2), (3, 2), (2, 2, 2))[trial % 3]
        mode = (COMMON, PLAYERWISE)[trial // 3 % 2]
        game = random_game(rng, num_states=2, horizon=1 + trial % 2, action_counts=counts,
                           j=1 + trial % 3, mode=mode)
        policy = random_policy(rng, game)
        game = thresholds_at_policy(rng, game, policy,
                                    [1.0, 0.9, 1.0, 1.1] if trial % 4 else [1.0, 0.9])
        for player in range(game.num_players):
            pivot_runs.clear()
            cm.check_strong_slater_at(game, player, policy)
            assert pivot_runs == [1]
            if not _feasible(game, policy):
                infeasible += 1
                continue
            pivot_runs.clear()
            cm.check_lp_regularity(game, player, policy)
            assert pivot_runs == [1, 1]
            regular += 1
    assert regular >= 10 and infeasible >= 10
