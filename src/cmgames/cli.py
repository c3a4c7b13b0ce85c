"""Command-line front end: validate | verify | find | slater | equivalence | reproduce-paper.

Reports go to standard output as JSON (sorted keys, so identical inputs and
seed produce byte-identical bytes); a human-readable summary goes to standard
error when it is a terminal and --json was not given.  Every command takes
--json; equivalence, whose claims are about the whole deterministic family,
alone takes --cap (the enumeration cap) and --history-cap (for non-Markov
modifications).  verify, find and slater solve polynomial pair-MDP programs
and enumerate nothing.  find exits with its own certificate's verdict.  Exit
codes: 0 success/verdict-positive, 1 validation failure, 2 I/O (any
unreadable path or malformed file), 3 not_CE / failures found, 4
infeasible, 5 resource cap (equivalence), 6 numerical trouble in a linear
program (singular basis or pivot limit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .aux_mdps import alpha_from_modification, build_mdp1, build_mdp2, lift_reward, optimize_aux
from .bundled import bundled_path
from .dynamics import compute_occupancy, evaluate, feasibility
from .equilibrium import (
    CONSTRAINED_CE,
    INFEASIBLE_POLICY,
    NoFeasibleStartError,
    check_strong_slater_at,
    check_weak_slater_at,
    dirichlet_policy,
    find_cce,
    slater_sampling_harness,
    verify_cce,
)
from .game import (
    COMMON,
    GameFormatError,
    GameValidationError,
    load_game,
    load_policy,
    parse_game_file,
    uniform_policy,
    validate_game,
)
from .lp import (
    OPTIMAL,
    NumericalLPError,
    build_pair_occupancy_lp,
    check_lp_regularity,
    mix_occupancies,
    modification_values,
    solve_lp,
)
from .modifications import (
    DEFAULT_ENUM_CAP,
    DEFAULT_HISTORY_CAP,
    CapExceededError,
    MarkovModification,
    NonMarkovModification,
    apply_modification,
    apply_nonmarkov,
    markovianize,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NOT_CE = 3
EXIT_INFEASIBLE = 4
EXIT_CAP = 5
EXIT_NUMERICAL = 6


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(report: dict, args) -> None:
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n")
    if not args.json and sys.stderr.isatty():
        _render_summary(report)


def _render_summary(report: dict) -> None:
    res = report.get("results", {})
    sys.stderr.write(f"[{report['command']}] ")
    if "verdict" in res:
        sys.stderr.write(f"verdict: {res['verdict']}\n")
    elif "passed" in res:
        sys.stderr.write("PASS\n" if res["passed"] else "FAIL\n")
    elif "assertions" in res:
        for row in res["assertions"]:
            sys.stderr.write(f"  {'PASS' if row['passed'] else 'FAIL'}  {row['name']}\n")
    else:
        sys.stderr.write("done\n")


def _report(args, results: dict, digests: dict | None = None) -> dict:
    return {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "parameters": {
            k: v for k, v in vars(args).items()
            if k not in ("command", "func", "json") and not callable(v)
        },
        "game_digest": digests or {},
        "results": results,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _verdict_exit(verdict: str) -> int:
    if verdict == CONSTRAINED_CE:
        return EXIT_OK
    return EXIT_INFEASIBLE if verdict == INFEASIBLE_POLICY else EXIT_NOT_CE


def cmd_validate(args) -> int:
    game = parse_game_file(args.game)
    report = validate_game(game)
    _emit(_report(args, report.as_dict(), {"game": _digest(args.game)}), args)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_verify(args) -> int:
    game = load_game(args.game)
    policy = load_policy(args.policy, game)
    cert = verify_cce(game, policy, tol=args.tol)
    results = cert.as_dict()
    results["policy"] = policy.tolist()
    _emit(_report(args, results,
                  {"game": _digest(args.game), "policy": _digest(args.policy)}), args)
    return _verdict_exit(cert.verdict)


def cmd_find(args) -> int:
    game = load_game(args.game)
    if game.constraint_mode != COMMON:
        sys.stderr.write("find needs a common-constraint game\n")
        return EXIT_VALIDATION
    initial = load_policy(args.initial, game) if args.initial else None
    result = find_cce(game, initial=initial, max_iters=args.max_iters, tol=args.tol,
                      player_rule=args.rule)
    results = {
        "policy": result.policy.tolist(),
        "trace": result.trace.as_dict(),
        "certificate": result.certificate.as_dict(),
    }
    _emit(_report(args, results, {"game": _digest(args.game)}), args)
    return _verdict_exit(result.certificate.verdict)


def cmd_slater(args) -> int:
    game = load_game(args.game)
    report = slater_sampling_harness(game, args.mode, args.samples, args.seed)
    _emit(_report(args, report.as_dict(), {"game": _digest(args.game)}), args)
    return EXIT_OK if report.clean else EXIT_NOT_CE


def cmd_equivalence(args) -> int:
    game = load_game(args.game)
    players = [args.player] if args.player is not None else list(range(game.num_players))
    rows = []
    for player in players:
        rows.extend(equivalence_suite(game, player, args.samples, args.seed,
                                      cap=args.cap, history_cap=args.history_cap))
    passed = all(r["passed"] for r in rows)
    _emit(_report(args, {"passed": passed, "assertions": rows},
                  {"game": _digest(args.game)}), args)
    return EXIT_OK if passed else EXIT_VALIDATION


def cmd_reproduce_paper(args) -> int:
    rows = []
    for group, name, fn in example_assertions(args.seed):
        if args.only and group != args.only:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:   # a crash is a failed assertion, not a crash of the tool
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        rows.append({"group": group, "name": name, "passed": bool(ok), "detail": detail})
    passed = all(r["passed"] for r in rows)
    digests = {name: _digest(bundled_path(name))
               for name in ("example1.game", "example2.game", "toy_h2.game")}
    _emit(_report(args, {"passed": passed, "assertions": rows}, digests), args)
    return EXIT_OK if passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# Equivalence suite (markovianization, hull membership by product weights,
# backward induction)
# ---------------------------------------------------------------------------

def _random_nonmarkov(game, player, rng) -> NonMarkovModification:
    ai = game.action_counts[player]
    sa = game.num_states * game.num_joint_actions
    tables = tuple(
        rng.dirichlet(np.ones(ai), size=(sa ** t, game.num_states, ai))
        for t in range(game.horizon))
    return NonMarkovModification(player=player, tables=tables)


def equivalence_suite(game, player: int, samples: int, seed: int,
                      cap: int = DEFAULT_ENUM_CAP,
                      history_cap: int = DEFAULT_HISTORY_CAP) -> list[dict]:
    """Run the modification-class equivalence checks on one game at desk scale.

    Covers: auxiliary-MDP kernel stochasticity, markovianization occupancy
    preservation, hull membership of stochastic-modification occupancies in
    the deterministic family, and agreement of backward induction with
    exhaustive enumeration.  Hull membership is checked against its explicit
    witness, the product weights of aux_mdps.alpha_from_modification: the
    assertion passes iff the alpha-mixture of the deterministic occupancies
    reproduces the stochastic modification's occupancy within 1e-7.  No
    linear program is solved; lp.hull_membership is the tests' oracle.
    """
    rng = np.random.default_rng(seed)
    rows = []

    def add(name, ok, detail=""):
        rows.append({"player": player, "name": name, "passed": bool(ok), "detail": detail})

    for k in range(samples):
        policy = dirichlet_policy(game, rng)

        mdp1 = build_mdp1(game, player, policy, history_cap=history_cap)
        mdp2 = build_mdp2(game, player, policy)
        worst = 0.0
        for mdp in (mdp1, mdp2):
            for kern in mdp.kernels:
                worst = max(worst, float(np.abs(kern.sum(axis=-1) - 1.0).max()))
        add(f"kernel_rows[{k}]", worst <= 1e-9, f"max row deviation {worst:.3g}")

        nm = _random_nonmarkov(game, player, rng)
        occ_nm = apply_nonmarkov(game, policy, nm, history_cap=history_cap)
        bar = markovianize(game, policy, nm, history_cap=history_cap)
        occ_bar = compute_occupancy(game, apply_modification(game, policy, bar))
        err = float(np.abs(occ_nm - occ_bar).max())
        add(f"markovianization[{k}]", err <= 1e-9, f"occupancy deviation {err:.3g}")

        vals = modification_values(game, player, policy, cap=cap)
        phi = MarkovModification(
            player=player,
            tables=rng.dirichlet(np.ones(game.action_counts[player]),
                                 size=(game.horizon, game.num_states,
                                       game.action_counts[player])))
        d_phi = compute_occupancy(game, apply_modification(game, policy, phi))
        alpha = alpha_from_modification(phi, vals.mods)
        residual = float(np.abs(mix_occupancies(alpha, vals.occupancies) - d_phi).max())
        add(f"hull_membership[{k}]", residual <= 1e-7, f"residual {residual}")

        lifted = lift_reward(game, player, policy, game.rewards[player])
        value, _ = optimize_aux(mdp2, lifted, direction="max")
        exhaustive = float(vals.reward.max())
        add(f"backward_induction[{k}]", abs(value - exhaustive) <= 1e-9,
            f"induction {value!r} vs exhaustive {exhaustive!r}")
    return rows


# ---------------------------------------------------------------------------
# The bundled worked examples as runnable assertions
# ---------------------------------------------------------------------------

def example_assertions(seed: int):
    """(group, name, thunk) for every claim about the bundled example games."""
    e1 = load_game(bundled_path("example1.game"))
    e2 = load_game(bundled_path("example2.game"))
    toy = load_game(bundled_path("toy_h2.game"))
    pi_mixed = load_policy(bundled_path("example1_mixed.policy"), e1)
    pi0001 = np.zeros((1, 1, 4))
    pi0001[0, 0, 3] = 1.0
    uniform2 = uniform_policy(e2)

    def close(a, b, tol=1e-9):
        return abs(a - b) <= tol

    def e1_valid():
        rep = validate_game(e1)
        ok = (rep.passed and e1.constraint_mode == "playerwise" and e1.num_players == 2
              and e1.horizon == 1 and e1.num_states == 1 and e1.num_constraints == 1)
        return ok, "playerwise, N=2, H=1, |S|=1, J=1"

    def e1_value():
        v = evaluate(e1, compute_occupancy(e1, pi_mixed)).reward[0]
        return close(v, 1.0 / 3.0, 1e-12), f"V_r1 = {float(v)!r}"

    def e1_infeasible():
        rep = feasibility(e1, pi0001)
        ok = (not rep.feasible and close(rep.slacks[0, 0], -0.5, 1e-12)
              and close(rep.slacks[1, 0], -1.0 / 3.0, 1e-12))
        return ok, f"slacks {rep.slacks.ravel().tolist()}"

    def e1_const2():
        tab = np.zeros((1, 1, 2, 2))
        tab[..., 1] = 1.0
        out = apply_modification(e1, pi_mixed, MarkovModification(player=1, tables=tab))
        want = np.array([0.0, 5.0 / 6.0, 0.0, 1.0 / 6.0])
        ok = np.abs(out[0, 0] - want).max() <= 1e-12
        return ok, f"composed {out[0, 0].tolist()}"

    def e1_psi2():
        sol = solve_lp(build_pair_occupancy_lp(e1, 1, pi_mixed))
        ok = sol.status == OPTIMAL and close(sol.objective, 5.0 / 6.0)
        return ok, f"psi2 = {sol.objective!r}"

    def e1_not_ce():
        cert = verify_cce(e1, pi_mixed)
        ok = cert.verdict == "not_CE" and close(cert.gaps[1], 0.5)
        return ok, f"verdict {cert.verdict}, player-2 gap {float(cert.gaps[1])!r}"

    def e1_strong_fails():
        res = [check_strong_slater_at(e1, i, pi0001) for i in range(2)]
        return all(not r.holds for r in res), f"margins {[r.margin for r in res]}"

    def e1_sampling():
        rep = slater_sampling_harness(e1, "strong", 100, seed)
        return len(rep.failures) >= 1, f"{len(rep.failures)} failure witnesses"

    def e1_region():
        grid = [(x, y, z, 20 - x - y - z)
                for x in range(21) for y in range(21 - x) for z in range(21 - x - y)]
        wrong = 0
        for ix, iy, iz, iw in grid:
            pol = np.array([[[ix / 20, iy / 20, iz / 20, iw / 20]]])
            rep = feasibility(e1, pol)
            want1 = pol[0, 0, 0] >= 0.5 - 1e-9
            want2 = pol[0, 0, 1] >= 1.0 / 3.0 - 1e-9
            got1 = rep.slacks[0, 0] >= -1e-9
            got2 = rep.slacks[1, 0] >= -1e-9
            wrong += (want1 != got1) + (want2 != got2)
        return wrong == 0, f"{len(grid)} grid policies, {wrong} misclassified"

    def e2_valid():
        rep = validate_game(e2)
        ok = rep.passed and e2.constraint_mode == "common" and e2.num_constraints == 4
        return ok, "common mode, J=4"

    def e2_occupancy():
        d = compute_occupancy(e2, uniform2)
        return np.abs(d - 0.25).max() <= 1e-15, f"d_1 = {d[0, 0].tolist()}"

    def e2_slacks():
        rep = feasibility(e2, uniform2)
        ok = rep.feasible and np.abs(rep.slacks).max() <= 1e-12
        return ok, f"slacks {rep.slacks[0].tolist()}"

    def e2_enumeration():
        vals = modification_values(e2, 0, uniform2)
        return len(vals.mods) == 4, f"K = {len(vals.mods)}"

    def e2_psi1():
        sol = solve_lp(build_pair_occupancy_lp(e2, 0, uniform2))
        v = evaluate(e2, compute_occupancy(e2, uniform2)).reward[0]
        ok = sol.status == OPTIMAL and close(sol.objective, 0.25) and close(v, 0.25)
        return ok, f"psi1 = {sol.objective!r}, V_r1 = {float(v)!r}"

    def e2_uniform_mixture():
        vals = modification_values(e2, 0, uniform2)
        mixed = mix_occupancies(np.full(4, 0.25), vals.occupancies)
        cons = vals.constraint @ np.full(4, 0.25)
        ok = (np.abs(cons - 0.25).max() <= 1e-12
              and np.abs(mixed - 0.25).max() <= 1e-12)
        return ok, f"mixture constraint values {cons.tolist()}"

    def e2_cce():
        cert = verify_cce(e2, uniform2)
        ok = cert.verdict == "constrained_CE" and cert.gaps.max() <= 1e-9
        return ok, f"gaps {cert.gaps.tolist()}"

    def e2_strong_fails():
        res = [check_strong_slater_at(e2, i, uniform2) for i in range(2)]
        return all(not r.holds for r in res), f"margins {[r.margin for r in res]}"

    def e2_weak():
        res = check_weak_slater_at(e2, 0, uniform2)
        ok = (res.applicable and res.condition1 is False and res.condition2a
              and max(abs(m) for m in res.minima) <= 1e-9
              and res.condition2b and res.satisfied and res.branch == "condition2")
        return ok, f"minima {list(res.minima)}, min_weight {res.min_weight}"

    def e2_weak_uniform_alpha():
        vals = modification_values(e2, 0, uniform2)
        alpha = np.full(4, 0.25)
        slack = vals.constraint @ alpha - vals.thresholds
        return slack.min() >= -1e-12, f"uniform-alpha slacks {slack.tolist()}"

    def e2_aux_max():
        mdp = build_mdp2(e2, 0, uniform2)
        value, _ = optimize_aux(mdp, lift_reward(e2, 0, uniform2, e2.rewards[0]), "max")
        return close(value, 0.5), f"max lifted reward {value!r}"

    def e2_aux_min():
        mdp = build_mdp2(e2, 0, uniform2)
        value, _ = optimize_aux(
            mdp, lift_reward(e2, 0, uniform2, e2.constraint_table(0, 0)), "min")
        return close(value, 0.0), f"min lifted g1 {value!r}"

    def e2_regularity():
        rep = check_lp_regularity(e2, 0, uniform2)
        ok = (not rep.strictly_feasible and not rep.constant_rows
              and rep.positive_weight_feasible and rep.min_weight == 1e-3)
        return ok, (f"strictly_feasible={rep.strictly_feasible}, "
                    f"constant_rows={list(rep.constant_rows)}, "
                    f"positive weights at eps={rep.min_weight}")

    def e2_unique_feasible():
        # The 1/100 grid on the simplex, one vectorised (iy, iz) slice per ix,
        # visited in the order of a triple loop over (ix, iy, iz).
        count = 0
        found = None
        for ix in range(101):
            iy, iz = np.indices((101 - ix, 101 - ix)).reshape(2, -1)
            keep = iy + iz <= 100 - ix
            iy, iz = iy[keep], iz[keep]
            grid = np.stack([np.full_like(iy, ix), iy, iz, 100 - ix - iy - iz], axis=1) / 100
            hits = grid[grid.min(axis=1) >= 0.25 - 1e-9]
            count += len(hits)
            if len(hits):
                found = tuple(hits[-1].tolist())
        ok = count == 1 and found == (0.25, 0.25, 0.25, 0.25)
        lib = feasibility(e2, np.array([[list(found)]])).feasible if found else False
        return ok and lib, f"{count} feasible grid points, {found}"

    def e2_weak_sampling():
        rep = slater_sampling_harness(e2, "weak", 20, seed)
        on_uniform = all(np.abs(s.policy - 0.25).max() <= 1e-9 for s in rep.samples)
        via_condition2 = all(r["branch"] == "condition2"
                             for s in rep.samples for r in s.player_results)
        ok = rep.tested >= 1 and rep.clean and on_uniform and via_condition2
        return ok, (f"tested {rep.tested}, failures {len(rep.failures)}, "
                    f"all boundary samples on the unique feasible policy")

    def e2_find():
        result = find_cce(e2)
        ok = (result.trace.converged and result.trace.iterations == 0
              and result.certificate.verdict == "constrained_CE")
        return ok, f"{result.trace.iterations} iterations, {result.certificate.verdict}"

    def toy_suite():
        rows = equivalence_suite(toy, 0, 2, seed)
        rows += equivalence_suite(toy, 1, 2, seed + 1)
        bad = [r["name"] for r in rows if not r["passed"]]
        return not bad, f"{len(rows)} checks, failing: {bad}"

    return [
        ("example1", "game_valid_playerwise", e1_valid),
        ("example1", "reward_value_mixed_policy", e1_value),
        ("example1", "policy_0001_infeasible_both", e1_infeasible),
        ("example1", "const2_composition", e1_const2),
        ("example1", "best_feasible_psi2", e1_psi2),
        ("example1", "verify_not_ce_gap_half", e1_not_ce),
        ("example1", "strong_slater_fails_at_0001", e1_strong_fails),
        ("example1", "strong_sampling_finds_failures", e1_sampling),
        ("example1", "feasible_region_grid", e1_region),
        ("example2", "game_valid_common", e2_valid),
        ("example2", "uniform_occupancy_quarter", e2_occupancy),
        ("example2", "uniform_slacks_zero", e2_slacks),
        ("example2", "four_det_modifications", e2_enumeration),
        ("example2", "psi1_equals_reward", e2_psi1),
        ("example2", "uniform_alpha_mixture_quarter", e2_uniform_mixture),
        ("example2", "verify_constrained_ce", e2_cce),
        ("example2", "strong_slater_fails", e2_strong_fails),
        ("example2", "weak_slater_condition2", e2_weak),
        ("example2", "uniform_alpha_feasible_positive", e2_weak_uniform_alpha),
        ("example2", "aux_max_lifted_reward", e2_aux_max),
        ("example2", "aux_min_lifted_constraint", e2_aux_min),
        ("example2", "lp_regularity_profile", e2_regularity),
        ("example2", "unique_feasible_grid_point", e2_unique_feasible),
        ("example2", "weak_sampling_boundary", e2_weak_sampling),
        ("example2", "find_cce_zero_iterations", e2_find),
        ("equivalence", "toy_game_suite", toy_suite),
    ]


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmgames",
        description="Constrained Markov games: validation, equilibrium "
                    "verification and search, Slater diagnostics.")
    parser.add_argument("--version", action="version", version=f"cmgames {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="suppress the human-readable summary on stderr")

    p = sub.add_parser("validate", help="check a game file against its invariants")
    p.add_argument("game")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("verify", help="certify a policy as a constrained correlated equilibrium")
    p.add_argument("game")
    p.add_argument("policy")
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("find", help="fixed-point search for an equilibrium (common mode)")
    p.add_argument("game")
    p.add_argument("--initial", help="optional starting policy file")
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--rule", choices=("max-gap", "round-robin"), default="max-gap")
    common(p)
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("slater", help="sampled Slater-condition diagnostics")
    p.add_argument("game")
    p.add_argument("--mode", choices=("strong", "weak"), required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_slater)

    p = sub.add_parser("equivalence", help="modification-class equivalence property suite")
    p.add_argument("game")
    p.add_argument("--player", type=int, default=None)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history-cap", type=int, default=DEFAULT_HISTORY_CAP,
                   help="history-state cap for non-Markov processing")
    common(p)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP,
                   help="deterministic-modification enumeration cap")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("reproduce-paper", help="re-run the bundled worked-example assertions")
    p.add_argument("--only", choices=("example1", "example2", "equivalence"), default=None)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_reproduce_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, GameFormatError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except GameValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        for check in exc.report.failures():
            sys.stderr.write(f"  {check.name}: {check.detail}\n")
        return EXIT_VALIDATION
    except CapExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except NoFeasibleStartError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INFEASIBLE
    except NumericalLPError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
