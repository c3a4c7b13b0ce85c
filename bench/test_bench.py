"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import instances  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cmgames import equilibrium  # noqa: E402


def _same(a: instances.Instance, b: instances.Instance) -> bool:
    if (a.label, a.command, a.seed) != (b.label, b.command, b.seed):
        return False
    if a.game is None or b.game is None:
        return a.game is b.game
    if instances.game_file_text(a.game) != instances.game_file_text(b.game):
        return False
    return (a.policy is None) == (b.policy is None) and (
        a.policy is None or np.array_equal(a.policy, b.policy))


@pytest.mark.parametrize("workload", sorted(instances.SCHEDULES))
def test_generator_is_deterministic_per_seed(workload):
    cycle = len(instances.SCHEDULES[workload])
    for index in range(cycle):
        first = instances.instance(workload, 5, index)
        assert _same(first, instances.instance(workload, 5, index))
    differs = [not _same(instances.instance(workload, 5, k), instances.instance(workload, 6, k))
               for k in range(cycle)]
    assert any(differs)


def test_generated_policies_are_feasible():
    from reference import values

    for index in range(len(instances.VERIFY_SCHEDULE)):
        inst = instances.instance("verify", 3, index)
        _, slacks = values(inst.game, inst.policy)
        assert slacks.min() >= 0.0


def test_self_time_on_a_nested_call_tree():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]; d [8, 12] overhangs root's end
    tree = [
        (0, None, 0, "root", 0.0, 10.0),
        (1, 0, 0, "a", 1.0, 4.0),
        (2, 0, 0, "b", 5.0, 9.0),
        (3, 2, 0, "c", 6.0, 7.0),
        (4, None, 1, "root", 20.0, 22.0),
        (5, 4, 1, "a", 20.5, 21.0),
        (6, 4, 1, "a", 20.75, 21.5),     # overlaps its sibling: counted once
    ]
    self_s, calls = spans.self_times(tree)
    assert self_s["root"] == pytest.approx((10 - 3 - 4) + (2 - 1.0))
    assert self_s["a"] == pytest.approx(3 + 0.5 + 0.75)
    assert self_s["b"] == pytest.approx(3)
    assert self_s["c"] == pytest.approx(1)
    assert calls == {"root": 2, "a": 3, "b": 1, "c": 1}


def test_tracer_wraps_every_binding_and_restores_it():
    import cmgames
    from cmgames import dynamics, lp

    original = lp.solve_lp
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lp.solve_lp is not original
        assert equilibrium.compute_occupancy is dynamics.compute_occupancy
        inst = instances.instance("verify", 1, 0)
        equilibrium.verify_cce(workloads.program_game(inst.game), inst.policy)
    finally:
        tracer.uninstall()
    assert lp.solve_lp is original and cmgames.solve_lp is original
    names = {s[3] for s in tracer.spans}
    assert {"equilibrium.verify_cce", "lp.solve_lp", "dynamics.compute_occupancy",
            "modifications.enumerate_det_modifications"} <= names
    root = [s for s in tracer.spans if s[1] is None]
    assert [s[3] for s in root] == ["equilibrium.verify_cce"]
    assert tracer.counts["lp.solve_lp.cols"] == sum(inst.game.num_modifications(i)
                                                    for i in range(2))


def test_wrong_result_counts_as_failed():
    workload = workloads.Verify()
    phase = run.Phase()
    for index in range(3):
        inst = instances.instance("verify", 2, index)
        cert = workload.keep(workload.call(workload.prepare(inst)))
        phase.records.append((index, inst.label, cert, 0.01))
    assert run.check_phase(workload, phase, "verify", 2) == {}

    index, label, cert, seconds = phase.records[1]
    phase.records[1] = (index, label, dataclasses.replace(cert, psi=cert.psi + 1e-3), seconds)
    phase.errors[2] = "Traceback ...\nRuntimeError: solver failed\n"
    failed = run.check_phase(workload, phase, "verify", 2)
    assert sorted(failed) == [1, 2]
    assert "Psi" in failed[1][0]


def test_calibration_scale_and_percentiles():
    # Kernel twice as slow for the last four operations: their times are halved.
    samples = [1e-3] * 7 + [2e-3] * 4
    scales = run.Calibration.scales(samples)
    assert scales[:5] == [1.0] * 5 and scales[-2:] == [0.5, 0.5]
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50 and run.percentile(values, 0.9) == 90
