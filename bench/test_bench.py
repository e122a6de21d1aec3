"""Checks of the benchmark itself: exact counts, the control, the tracer.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

WORKLOADS = run.load_workloads().WORKLOADS


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics that count work rather than time it."""
    return {name: value for name, value in metrics.items()
            if name.endswith((".calls", "nodes_per_call", "leaf_share", "_nodes", "diverged"))}


def traced_run(name: str, seed: int, workdir: Path, items: int = 2) -> dict[str, float]:
    workload = WORKLOADS[name](seed, workdir)
    try:
        trace = tracer.Tracer()
        with trace.installed():
            done, raised = run.run_loop(workload, 1, 0.0, items, [])
    finally:
        workload.close()
    assert raised == 0
    assert [it.problems for it in done] == [[]] * items
    return trace.metrics(len(done))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat(name, tmp_path):
    first = exact_counts(traced_run(name, 7, tmp_path / "a"))
    second = exact_counts(traced_run(name, 7, tmp_path / "b"))
    assert first == second
    assert {"diff.backward.calls", "diff.backward.nodes_per_call",
            "diff.backward.leaf_share"} <= set(first)


def test_control_never_reaches_the_tape(tmp_path):
    metrics = traced_run("sweep-prior-mean", 3, tmp_path)
    for name in ("diff.backward.calls", "metalearn.train_meta.calls",
                 "metalearn.adapt.calls", "model.taped_mc_risk.calls",
                 "model.mc_empirical_risk.calls"):
        assert metrics[name] == 0, name
    assert metrics["pipelines.gaussian_sign_risk.calls"] > 0
    assert metrics["cli.write_csv.bytes"] > 0


def test_tracer_wraps_then_restores_every_target():
    import importlib

    sites = [(importlib.import_module(f"metabounds.{module}"), attr)
             for module, attr, _ in tracer.TARGETS]
    originals = [getattr(module, attr) for module, attr in sites]
    with tracer.Tracer().installed():
        for (module, attr), original in zip(sites, originals):
            assert getattr(module, attr).__wrapped__ is original
    assert [getattr(module, attr) for module, attr in sites] == originals


def test_tail_has_ten_items_beyond_it():
    latencies = [float(v) for v in range(100)]
    assert run.tail(latencies) == (90.0, 89.0)
    assert run.tail(latencies[:5]) == (100.0, 4.0)


def test_result_line_names_every_declared_metric(capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "sweep-prior-mean", "--seed", "1",
                     "--seconds", "0.2", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "audit-linear",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
