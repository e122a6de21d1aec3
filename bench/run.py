"""Benchmark of metabounds: closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload audit-linear --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed.
One process runs one workload with one client and no worker pool: items run
back to back until ``--seconds`` have passed and the first
``quality_items`` items are done. Every item's outputs are checked.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs the same loop untraced for half the time, then with the
tracer installed for the other half, and reports the per-layer metrics per
traced item, plus the tracing overhead. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it repeat the metrics for reading, with a provenance block.

Every reported time is the measured wall time divided by the run's speed
factor (see ``speed_factor``). The raw wall-clock values and the factor are
in the provenance block.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Nominal duration of the reference kernel: a run whose kernel takes this
# long has speed factor 1.
REFERENCE_S = 0.008
CALIBRATE_EVERY_S = 0.2
SETUP_EVERY_S = 3.0


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small numpy operations, Python calls
    and ``math.erf``, the kinds of work metabounds spends its time on. It
    uses no code of metabounds, so no change to the program can move it."""
    a, b = np.ones(8), np.ones((5, 2))
    acc = 0.0
    start = time.perf_counter()
    for i in range(1000):
        z = np.zeros_like(a)
        z += a * 0.5
        acc += float((b @ a[:2]).sum()) + z[0] + math.erf(i * 1e-3)
    return time.perf_counter() - start


def speed_factor(kernel_samples: list[float]) -> float:
    """How slow the machine ran during a run, relative to ``REFERENCE_S``.

    The host's speed drifts by tens of percent over minutes, and process CPU
    time drifts with it, so raw times of runs made minutes apart disagree by
    more than any useful bound. Reported times are divided by this factor:
    the square root of the run's median kernel time over ``REFERENCE_S``.
    The root damps the correction because the workloads' item times move
    less than the kernel's when the host's speed changes. Over two sets of
    ten-seed runs on every workload, the exponent 0.5 gave the smallest
    worst and mean spread among 0, 0.5, 0.7 and 1.
    """
    return math.sqrt(statistics.median(kernel_samples) / REFERENCE_S)


class Every:
    """Takes a side measurement between items, at most once per ``interval`` s.

    Side measurements run outside every item's timing; spreading them over
    the run samples the same host conditions as the items do.
    """

    def __init__(self, interval: float, measure) -> None:
        self.interval = interval
        self.measure = measure
        self.samples: list[float] = []
        self._last = -math.inf

    def __call__(self) -> None:
        if time.perf_counter() - self._last >= self.interval:
            self.samples.append(self.measure())
            self._last = time.perf_counter()


def load_workloads():
    """Import the program from ``src/`` of this checkout and the workloads on it."""
    package = ROOT / "src" / "metabounds"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no program at {package}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import metabounds

    if Path(metabounds.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported metabounds from {metabounds.__file__}, "
                         f"not from {package}")
    import workloads

    return workloads


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 items beyond it, and its value.

    With fewer than 11 items this is the maximum, at percentile 100.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def run_loop(workload, first: int, seconds: float, min_items: int, between: list[Every]):
    """Run items ``first, first + 1, ...`` for ``seconds`` and at least ``min_items``,
    giving each of ``between`` its turn before every item.

    Returns the items and how many raised; an exception is recorded and
    counted as a failed item, and the loop goes on.
    """
    items, raised = [], 0
    deadline = time.perf_counter() + seconds
    k = first
    while len(items) + raised < min_items or time.perf_counter() < deadline:
        for side in between:
            side()
        try:
            items.append(workload.item(k))
        except Exception:  # noqa: BLE001 - a failed item must not end the run
            traceback.print_exc(file=sys.stderr)
            raised += 1
        k += 1
    return items, raised


def time_setup(args) -> float:
    """Wall time of a fresh process from its start to ready for the first item."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, items: int, extra: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": items,
        **extra,
    }


def end_to_end(workload, items, speed: Every, setup: Every) -> tuple[dict, dict]:
    raw = [it.latency_s for it in items]
    percentile, raw_tail = tail(raw)
    raw_times = {
        "items_per_s": len(raw) / sum(raw),
        "item_s.p50": statistics.median(raw),
        "item_s.tail": raw_tail,
        "setup_s": statistics.median(setup.samples),
    }
    factor = speed_factor(speed.samples)
    quality = items[: workload.quality_items]
    metrics = {
        "items_per_s": raw_times["items_per_s"] * factor,
        "item_s.p50": raw_times["item_s.p50"] / factor,
        "item_s.tail": raw_times["item_s.tail"] / factor,
        "setup_s": raw_times["setup_s"] / factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bound_mean": statistics.fmean(b for it in quality for b in it.bounds),
        "test_risk_mean": statistics.fmean(r for it in quality for r in it.risks),
    }
    extra = {"item_s.tail_percentile": percentile, "quality_items": len(quality),
             "setup_samples": len(setup.samples), "speed_factor": factor,
             "raw_wall_clock": raw_times}
    return metrics, extra


def per_layer(args, workload) -> tuple[list, int, dict, dict]:
    half = args.seconds / 2.0
    plain_speed = Every(CALIBRATE_EVERY_S, reference_kernel)
    traced_speed = Every(CALIBRATE_EVERY_S, reference_kernel)
    plain, plain_raised = run_loop(workload, 1, half, 1, [plain_speed])
    trace = tracer.Tracer()
    with trace.installed():
        traced, traced_raised = run_loop(workload, 1 + len(plain) + plain_raised, half, 1,
                                         [traced_speed])
    factor = speed_factor(traced_speed.samples)
    metrics = trace.metrics(max(len(traced), 1), factor)
    plain_s = sum(it.latency_s for it in plain) / speed_factor(plain_speed.samples)
    traced_s = sum(it.latency_s for it in traced) / factor
    metrics["trace.overhead_frac"] = (
        (traced_s / len(traced)) / (plain_s / len(plain)) - 1.0 if plain and traced else 0.0
    )
    extra = {"untraced_items": len(plain), "traced_items": len(traced),
             "speed_factor": factor}
    return plain + traced, plain_raised + traced_raised, metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload and exit; used to time set-up")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"bench: {spec_path} is missing")
    declared = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.setup_only:
            return 0
        run_loop(workload, 0, 0.0, 1, [])  # untimed warm-up: lazy imports, caches
        if args.trace:
            items, raised, metrics, extra = per_layer(args, workload)
        else:
            # Set-up children first: the kernel after them absorbs their
            # disturbance of the caches before the next item starts.
            setup = Every(SETUP_EVERY_S, lambda: time_setup(args))
            speed = Every(CALIBRATE_EVERY_S, reference_kernel)
            items, raised = run_loop(workload, 1, args.seconds, workload.quality_items,
                                     [setup, speed])
            metrics, extra = end_to_end(workload, items, speed, setup)
        run_problems = workload.finish()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run still uses it

    attempted = len(items) + raised
    failed = raised + sum(1 for it in items if it.problems)
    if not args.trace:
        # Printed for reading but not declared: a metric that reads 0 on a
        # healthy run cannot carry a relative bound; the result's own
        # ``failed`` count carries it instead.
        metrics["failed_frac"] = failed / attempted
    for it in items:
        for problem in it.problems:
            print(f"bench: check failed: {problem}", file=sys.stderr)
    for problem in run_problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in declared}
    print(f"# provenance {json.dumps(provenance(args, len(items), extra), sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:<44} {value:<22.10g} {units.get(name, 'ratio')}")
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
