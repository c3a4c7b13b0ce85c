"""CLI subcommands: exit codes, JSON reports, determinism."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

import cmgames as cm
from cmgames.cli import build_parser, main
from cmgames.modifications import DEFAULT_ENUM_CAP, count_det_modifications
from oracles import random_game


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


@pytest.fixture(scope="module")
def paths():
    return {name: str(cm.bundled_path(name)) for name in (
        "example1.game", "example2.game", "toy_h2.game",
        "uniform.policy", "example1_mixed.policy")}


def test_validate_ok(capsys, paths):
    code, rep = run(capsys, "validate", paths["example1.game"], "--json")
    assert code == 0
    assert rep["results"]["passed"]
    assert rep["command"] == "validate"
    assert len(rep["game_digest"]["game"]) == 64


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such/file.game", "--json"]) == 2


def test_validate_unknown_field(tmp_path, capsys, paths):
    doc = json.loads(open(paths["example1.game"]).read())
    doc["extra"] = []
    bad = tmp_path / "bad.game"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad), "--json"]) == 2


def test_validate_corrupted_kernel(tmp_path, capsys, paths):
    doc = json.loads(open(paths["toy_h2.game"]).read())
    doc["kernel"][0][1][2] = [0.7, 0.2]
    bad = tmp_path / "bad.game"
    bad.write_text(json.dumps(doc))
    code, rep = run(capsys, "validate", str(bad), "--json")
    assert code == 1
    fails = [c for c in rep["results"]["checks"] if not c["passed"]]
    assert fails[0]["name"] == "kernel_stochastic"
    assert fails[0]["location"] == {"t": 0, "state": 1, "joint_action": 2}


def test_verify_exit_codes(capsys, tmp_path, paths):
    code, rep = run(capsys, "verify", paths["example2.game"], paths["uniform.policy"], "--json")
    assert code == 0 and rep["results"]["verdict"] == "constrained_CE"

    code, rep = run(capsys, "verify", paths["example1.game"],
                    paths["example1_mixed.policy"], "--json")
    assert code == 3 and rep["results"]["verdict"] == "not_CE"
    assert rep["results"]["gaps"][1] == pytest.approx(0.5, abs=1e-9)

    p = tmp_path / "det.policy"
    p.write_text('{"policy": [[[0, 0, 0, 1]]]}')
    code, rep = run(capsys, "verify", paths["example1.game"], str(p), "--json")
    assert code == 4 and rep["results"]["verdict"] == "infeasible_policy"


def test_verify_numerical_exit_code(capsys, monkeypatch, paths):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    code = main(["verify", paths["example2.game"], paths["uniform.policy"], "--json"])
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["validate", "verify", "find"])
def test_directory_path_is_io_error(capsys, tmp_path, paths, command):
    argv = {"validate": ["validate", str(tmp_path)],
            "verify": ["verify", paths["example2.game"], str(tmp_path)],
            "find": ["find", paths["example2.game"], "--initial", str(tmp_path)]}[command]
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_policy_feasible_within_tol(capsys, tmp_path, paths):
    game = cm.load_game(paths["example2.game"])
    policy = cm.uniform_policy(game)
    policy[0, 0, 0] -= 2e-7
    policy[0, 0, 1] += 2e-7
    path = tmp_path / "p.policy"
    path.write_text(json.dumps({"policy": policy.tolist()}))
    code, rep = run(capsys, "verify", paths["example2.game"], str(path), "--tol", "1e-6", "--json")
    assert code == 0
    assert rep["results"]["verdict"] == "constrained_CE"


def test_verify_takes_no_cap(capsys, paths):
    with pytest.raises(SystemExit):
        main(["verify", paths["example2.game"], paths["uniform.policy"], "--cap", "10"])


def test_find_takes_no_cap(capsys, paths):
    with pytest.raises(SystemExit):
        main(["find", paths["example2.game"], "--cap", "10"])


def test_find_past_the_enumeration_cap_exits_with_verdict(capsys, tmp_path):
    game = random_game(np.random.default_rng(12), num_states=3, horizon=2, action_counts=(3, 2))
    assert count_det_modifications(game, 0) > DEFAULT_ENUM_CAP
    path = tmp_path / "wide.game"
    cm.save_game(game, path)
    code, rep = run(capsys, "find", str(path), "--max-iters", "20", "--json")
    assert code == (0 if rep["results"]["certificate"]["verdict"] == "constrained_CE" else 3)
    assert "cap" not in rep["parameters"]


def test_slater_takes_no_cap(capsys, paths):
    with pytest.raises(SystemExit):
        main(["slater", paths["example2.game"], "--mode", "weak", "--cap", "10"])


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_slater_past_the_enumeration_cap_exits_with_verdict(capsys, tmp_path, mode):
    game = random_game(np.random.default_rng(12), num_states=3, horizon=3, action_counts=(3, 2))
    assert count_det_modifications(game, 0) == 3 ** 27
    path = tmp_path / "wide.game"
    cm.save_game(game, path)
    code, rep = run(capsys, "slater", str(path), "--mode", mode, "--samples", "5", "--json")
    assert code == (0 if not rep["results"]["failures"] else 3)
    assert rep["results"]["tested"] >= 1
    assert "cap" not in rep["parameters"]


def test_slater_numerical_exit_code(capsys, monkeypatch, paths):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    game = cm.load_game(paths["example1.game"])
    policy = cm.uniform_policy(game)
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(cm.NumericalLPError):
        cm.check_strong_slater_at(game, 0, policy)
    code = main(["slater", paths["example1.game"], "--mode", "strong", "--samples", "3", "--json"])
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_settable_option_count():
    # Every option a user can set, across the subcommands; a new knob is a test edit.
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    options = [a for sub in subparsers.choices.values() for a in sub._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
    assert len(options) == 21


def test_find_example2(capsys, paths):
    code, rep = run(capsys, "find", paths["example2.game"], "--json")
    assert code == 0
    assert rep["results"]["certificate"]["verdict"] == "constrained_CE"
    assert rep["results"]["trace"]["converged"]


def test_find_playerwise_rejected(capsys, paths):
    assert main(["find", paths["example1.game"], "--json"]) == 1


def test_slater_exit_codes(capsys, paths):
    code, rep = run(capsys, "slater", paths["example1.game"],
                    "--mode", "strong", "--samples", "20", "--seed", "0", "--json")
    assert code == 3
    assert len(rep["results"]["failures"]) >= 1

    code, rep = run(capsys, "slater", paths["example2.game"],
                    "--mode", "weak", "--samples", "5", "--seed", "0", "--json")
    assert code == 0 and rep["results"]["tested"] >= 1


def test_equivalence_toy(capsys, paths):
    code, rep = run(capsys, "equivalence", paths["toy_h2.game"],
                    "--samples", "1", "--seed", "2", "--json")
    assert code == 0
    assert rep["results"]["passed"]
    names = {row["name"].split("[")[0] for row in rep["results"]["assertions"]}
    assert names == {"kernel_rows", "markovianization", "hull_membership",
                     "backward_induction"}


def test_reproduce_paper_full(capsys):
    code, rep = run(capsys, "reproduce-paper", "--json")
    assert code == 0
    assert rep["results"]["passed"]
    groups = {row["group"] for row in rep["results"]["assertions"]}
    assert groups == {"example1", "example2", "equivalence"}


def test_reproduce_paper_only_filter(capsys):
    code, rep = run(capsys, "reproduce-paper", "--only", "example1", "--json")
    assert code == 0
    assert all(r["group"] == "example1" for r in rep["results"]["assertions"])


def test_reproduce_paper_byte_identical(capsys):
    main(["reproduce-paper", "--json", "--seed", "0"])
    first = capsys.readouterr().out
    main(["reproduce-paper", "--json", "--seed", "0"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["seed"] == 0


def test_reproduce_paper_psi_details(capsys):
    """These rows print exactly these values, as Python floats whatever the numpy
    version (the report's bytes depend on them)."""
    code, rep = run(capsys, "reproduce-paper", "--json", "--seed", "0")
    details = {row["name"]: row["detail"] for row in rep["results"]["assertions"]}
    assert code == 0
    assert details["best_feasible_psi2"] == "psi2 = 0.8333333333333333"
    assert details["psi1_equals_reward"] == "psi1 = 0.25, V_r1 = 0.25"
    assert details["reward_value_mixed_policy"] == "V_r1 = 0.3333333333333333"
    assert details["verify_not_ce_gap_half"] == "verdict not_CE, player-2 gap 0.49999999999999994"
    assert not [detail for detail in details.values() if "np." in detail]


def test_slater_byte_identical(capsys, paths):
    main(["slater", paths["example1.game"], "--mode", "strong",
          "--samples", "15", "--seed", "11", "--json"])
    first = capsys.readouterr().out
    main(["slater", paths["example1.game"], "--mode", "strong",
          "--samples", "15", "--seed", "11", "--json"])
    assert capsys.readouterr().out == first


def test_enumeration_cap_exit_code(capsys, paths):
    assert main(["equivalence", paths["toy_h2.game"], "--samples", "1",
                 "--seed", "0", "--cap", "10", "--json"]) == 5


def test_slater_weak_toy_h2_finishes(capsys, paths):
    # K^i = 256 enters only as a number: every program is a pair program.
    code, rep = run(capsys, "slater", paths["toy_h2.game"],
                    "--mode", "weak", "--samples", "20", "--json")
    assert code == 3
    assert rep["results"]["tested"] + rep["results"]["not_applicable"] == 20


@pytest.fixture
def unconstrained(tmp_path, paths):
    doc = json.loads(open(paths["example2.game"]).read())
    doc["constraints"], doc["thresholds"] = [], []
    path = tmp_path / "free.game"
    path.write_text(json.dumps(doc))
    return str(path)


def test_unconstrained_game_commands(capsys, paths, unconstrained):
    code, rep = run(capsys, "verify", unconstrained, paths["uniform.policy"], "--json")
    assert code == 3
    assert rep["results"]["verdict"] == "not_CE"
    assert rep["results"]["slacks"] == [[], []]
    assert rep["results"]["psi"] == pytest.approx([0.5, 0.5], abs=1e-12)

    code, rep = run(capsys, "find", unconstrained, "--max-iters", "20", "--json")
    verdict = rep["results"]["certificate"]["verdict"]
    assert code == (0 if verdict == "constrained_CE" else 3)

    code, rep = run(capsys, "slater", unconstrained, "--mode", "weak", "--samples", "5", "--json")
    assert code == 0
    assert rep["results"]["tested"] == 0 and rep["results"]["not_applicable"] == 5


def test_find_loose_h2_game_exits_with_verdict(capsys):
    # This game once made find exit 6 (a singular basis mid-search).
    game = Path(__file__).parent / "data" / "find_singular_basis.game"
    code, rep = run(capsys, "find", str(game), "--max-iters", "20", "--tol", "1e-6", "--json")
    assert code == 3
    assert rep["results"]["certificate"]["verdict"] == "not_CE"


def test_equivalence_former_singular_basis_game_passes(capsys):
    # The hull-membership program hit a singular basis on this game (exit 6);
    # the suite now checks the closed-form product-weight witness instead.
    game = Path(__file__).parent / "data" / "equivalence_singular_basis.game"
    code, rep = run(capsys, "equivalence", str(game), "--samples", "1",
                    "--seed", "549621295", "--json")
    assert code == 0
    assert rep["results"]["passed"] is True
