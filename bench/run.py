"""Benchmark for cmgames: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory.  Every operation is one call into the public API; the loop sends
the next one only after the previous returned.  Outputs are checked against
independent reference values after the timed region.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries informational fields
(environment, source size, sample counts, shape mix).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half replaying the same operations with every public
function wrapped, and reports per-layer self time and counts per operation
plus the tracing overhead.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads: on a small shared machine a
# multi-threaded solve makes timings depend on the scheduler.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import instances  # noqa: E402
from spans import SPAN_NAMES, Tracer, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3      # warm-up passes per run; setup_s counts their median
IMPORT_SAMPLES = 3     # fresh-interpreter imports per run; setup_s counts their median
CALIBRATION_NOMINAL_S = 1e-3   # calibration kernel time that reported times are scaled to
MIN_OPS = 100          # so that p90 has at least ten samples above it
HARD_STOP_S = 60.0     # a timed phase stops after this even below MIN_OPS


def import_program() -> None:
    """Import cmgames from this checkout's src/, never from an installed copy."""
    if not (SRC / "cmgames" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'cmgames'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import cmgames
    if Path(cmgames.__file__).resolve().parent != SRC / "cmgames":
        sys.exit(f"error: imported cmgames from {cmgames.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median time to import cmgames (with numpy) in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
            "import cmgames; print(time.perf_counter() - start)")
    samples = [float(subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(IMPORT_SAMPLES)]
    return statistics.median(samples)


def blas_info() -> dict:
    info = {"numpy": np.__version__, "thread_env": {k: os.environ[k] for k in THREAD_ENV}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count OpenBLAS reports, when numpy's bundled OpenBLAS is found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Calibration:
    """A fixed kernel of small numpy calls and interpreter work, timed before each operation.

    On a shared host the machine's speed drifts by tens of percent within
    seconds, and the program's operations slow down with it.  Each reported
    time is scaled by CALIBRATION_NOMINAL_S over the median kernel time of
    the WINDOW operations around it, so it reads as on a machine where the
    kernel takes exactly that long.  The kernel never calls the program, so
    a change to the program cannot move the scale; raw times are reported
    alongside.
    """

    WINDOW = 7

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((24, 24)) + 24 * np.eye(24)
        self._tensor = rng.random((4, 6, 8))

    def measure(self) -> float:
        start = time.perf_counter()
        for k in range(24):
            np.linalg.solve(self._matrix, self._matrix[k])
            np.einsum("abc,abd->cd", self._tensor, self._tensor)
            sum(v * v for v in range(64))
        return time.perf_counter() - start

    @classmethod
    def scales(cls, samples) -> list:
        """Per-operation time scale from the kernel samples around each operation."""
        half = cls.WINDOW // 2
        return [CALIBRATION_NOMINAL_S / statistics.median(samples[max(0, i - half):i + half + 1])
                for i in range(len(samples))]


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


class Phase:
    """Results of one closed-loop pass over the instance stream."""

    def __init__(self):
        self.records = []      # (index, class label, kept output or None, seconds)
        self.kernel = []       # calibration kernel seconds, measured before each operation
        self.errors = {}       # index -> traceback text

    @property
    def latencies(self) -> list:
        return [r[3] for r in self.records]

    def scaled_latencies(self) -> list:
        return [t * s for t, s in zip(self.latencies, Calibration.scales(self.kernel))]

    def ops_per_s(self, scaled: bool = True) -> float:
        return len(self.records) / sum(self.scaled_latencies() if scaled else self.latencies)


def run_phase(workload, name: str, seed: int, budget_s: float, calibration: Calibration,
              tracer=None) -> Phase:
    """Run whole schedule cycles until ``budget_s`` has passed and MIN_OPS are done."""
    cycle = len(instances.SCHEDULES[name])
    phase = Phase()
    start = time.perf_counter()
    index = 0
    while True:
        for _ in range(cycle):
            inst = instances.instance(name, seed, index)
            op = workload.prepare(inst)
            phase.kernel.append(calibration.measure())
            if tracer is not None:
                tracer.op = index
            t0 = time.perf_counter()
            try:
                out = workload.call(op)
            except Exception:  # a failed operation is counted, the run goes on
                out = None
                phase.errors[index] = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
            kept = None if out is None else workload.keep(out)
            phase.records.append((index, inst.label, kept, seconds))
            index += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= budget_s and index >= MIN_OPS) or elapsed >= HARD_STOP_S:
            return phase


def setup_pass(workload, name: str, rep: int, calibration: Calibration) -> tuple:
    """Generate, prepare and run one warm-up cycle.

    Returns raw seconds, scaled seconds and the per-operation scales.  The
    warm-up instances are the same for every seed and disjoint from the
    measured ones, so set-up time does not vary with the seed.  The
    calibration kernel runs before each operation, as in the timed loop, but
    its own time is not counted.
    """
    cycle = len(instances.SCHEDULES[name])
    base = (10 ** 6 + rep) * cycle
    times, kernel = [], []
    for j in range(cycle):
        kernel.append(calibration.measure())
        start = time.perf_counter()
        workload.call(workload.prepare(instances.instance(name, 0, base + j)))
        times.append(time.perf_counter() - start)
    scales = Calibration.scales(kernel)
    return sum(times), sum(t * s for t, s in zip(times, scales)), scales


def check_phase(workload, phase: Phase, name: str, seed: int) -> dict:
    """index -> list of failure messages, for every failed operation."""
    failures = {}
    for index, _, kept, _ in phase.records:
        if index in phase.errors:
            failures[index] = [phase.errors[index].strip().splitlines()[-1]]
            continue
        try:
            errors = workload.check(instances.instance(name, seed, index), kept)
        except Exception:  # a check that cannot run is a failed check
            errors = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if errors:
            failures[index] = errors
    return failures


def recheck_bytes(workload, phase: Phase, name: str, seed: int) -> dict:
    """Re-run the first cycle of CLI commands; stdout must repeat byte for byte."""
    failures = {}
    for index, _, kept, _ in phase.records[:len(instances.SCHEDULES[name])]:
        if kept is None:
            continue
        inst = instances.instance(name, seed, index)
        again = workload.keep(workload.call(workload.prepare(inst)))
        if again[1] != kept[1]:
            failures[index] = ["stdout differs between repeats of one seed"]
    return failures


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer_metrics(tracer: Tracer, traced: Phase, untraced: Phase, name: str) -> dict:
    n = len(traced.records)
    self_s, calls = self_times(tracer.spans, Calibration.scales(traced.kernel))
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = (calls.get(span, 0) / n, "1/op")
        metrics[f"{span}.self_s"] = (self_s.get(span, 0.0) / n, "s/op")
    counts = tracer.counts
    for key in ("modifications.enumerate_det_modifications.mods", "lp.solve_lp.rows",
                "lp.solve_lp.cols", "lp.solve_lp.nonoptimal", "equilibrium.find_cce.iterations"):
        metrics[key] = (counts.get(key, 0.0) / n, "1/op")
    finds = calls.get("equilibrium.find_cce", 0)
    metrics["equilibrium.find_cce.converged_ratio"] = (
        counts.get("equilibrium.find_cce.converged", 0.0) / finds if finds else 0.0, "ratio")
    sampled = counts.get("equilibrium.slater_sampling_harness.sampled", 0.0)
    metrics["equilibrium.slater_sampling_harness.tested_ratio"] = (
        counts.get("equilibrium.slater_sampling_harness.tested", 0.0) / sampled if sampled else 0.0,
        "ratio")
    iterations = sum(len(r[2][0]) for r in untraced.records
                     if name == "find" and r[2] is not None)
    metrics["equilibrium.find_cce.iters_per_s"] = (
        iterations / sum(untraced.scaled_latencies()), "1/s")
    metrics["bench.trace_overhead"] = (untraced.ops_per_s() / traced.ops_per_s(), "ratio")
    metrics["bench.traced_ops"] = (float(n), "count")
    return metrics


def shape_mix(phase: Phase, name: str, seed: int) -> dict:
    """Operations per instance class, with K^i and median scaled latency per class."""
    by_label = {}
    for (index, label, _, _), latency in zip(phase.records, phase.scaled_latencies()):
        by_label.setdefault(label, (index, []))[1].append(latency)
    mix = {}
    for label, (index, lat) in sorted(by_label.items()):
        game = instances.instance(name, seed, index).game
        mix[label] = {"ops": len(lat),
                      "K": None if game is None else [game.num_modifications(i)
                                                      for i in range(game.num_players)],
                      "median_ms": round(1e3 * statistics.median(lat), 3)}
    return mix


def lp_shapes(tracer) -> list:
    """Every (rows, cols) of solve_lp calls in the traced phase, most frequent first."""
    return [{"rows": r, "cols": c, "calls": n} for (r, c), n in tracer.lp_shapes.most_common()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "find", "slater-weak", "cli-equivalence"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    import workloads

    name = args.workload
    game_dir = OUT / "cli"
    game_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](game_dir) if name == "cli-equivalence" \
        else workloads.WORKLOADS[name]()

    calibration = Calibration()
    import_s = import_seconds()
    passes = [setup_pass(workload, name, rep, calibration)
              for rep in range(SETUP_REPEATS)]
    setup_raw_s = import_s + statistics.median(p[0] for p in passes)
    setup_s = import_s * statistics.median(passes[0][2]) + statistics.median(p[1] for p in passes)

    tracer = None
    if args.trace:
        untraced = run_phase(workload, name, args.seed, args.seconds / 2, calibration)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, name, args.seed, args.seconds / 2, calibration, tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
    else:
        phases = [run_phase(workload, name, args.seed, args.seconds, calibration)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = time.perf_counter()
    failures = {}
    for phase in phases:
        failed = check_phase(workload, phase, name, args.seed)
        if name == "cli-equivalence":
            for index, errors in recheck_bytes(workload, phase, name, args.seed).items():
                failed.setdefault(index, []).extend(errors)
        failures.update({(id(phase), k): v for k, v in failed.items()})
    attempted = sum(len(p.records) for p in phases)
    check_s = time.perf_counter() - check_start

    main_phase = phases[0]
    latencies = main_phase.latencies
    scaled = main_phase.scaled_latencies()
    if args.trace:
        metrics = per_layer_metrics(tracer, phases[1], phases[0], name)
        tracer.write(OUT / f"spans-{name}.jsonl")   # one file per workload, the latest run
    else:
        metrics = {
            "ops_per_s": (main_phase.ops_per_s(), "1/s"),
            "latency_p50_ms": (1e3 * percentile(scaled, 0.5), "ms"),
            "latency_p90_ms": (1e3 * percentile(scaled, 0.9), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    info = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "closed_loop_clients": 1,
        "latency_samples": len(latencies),
        "fail_ratio": len(failures) / attempted,
        "failures": [f"op {k[1]}: {v[0]}" for k, v in sorted(failures.items())[:5]],
        "setup": {"import_s": import_s, "passes_s": [p[0] for p in passes]},
        "calibration_kernel_s": statistics.median(main_phase.kernel),
        "raw": {"ops_per_s": main_phase.ops_per_s(scaled=False),
                "latency_p50_ms": 1e3 * percentile(latencies, 0.5),
                "latency_p90_ms": 1e3 * percentile(latencies, 0.9),
                "setup_s": setup_raw_s},
        "check_s": check_s,
        "shape_mix": shape_mix(main_phase, name, args.seed),
        "ladder": instances.LADDER,
        "src_lines": source_lines(),
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(), **blas_info()},
    }
    if hasattr(workload, "undecided"):
        info["undecided_checks"] = workload.undecided
    if tracer is not None:
        info["spans"] = len(tracer.spans)
        info["lp_shapes"] = lp_shapes(tracer)
    print(json.dumps({"info": info}))
    for key, (value, unit) in metrics.items():
        print(f"{key:60s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
