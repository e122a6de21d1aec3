"""The benchmark's three closed-loop workloads.

Each workload turns the run's seed into its inputs, runs one item at a time
(the next item starts when the previous one returns) and checks every
item's outputs. An item reports its latency, its certificate and oracle
risk values, and the problems its output check found.

Calls into ``metabounds`` go through the module attribute (``env.sample_tasks``
rather than an imported name) so that the tracer sees them.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from metabounds import audit, cli, env, metalearn, model

ZERO_ONE = model.LossSpec("zero_one")


def item_seed(seed: int, k: int) -> int:
    """Seed of item ``k`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0] >> 1)


@dataclass
class Item:
    """Outcome of one item: the timed call and what its check found."""

    latency_s: float
    bounds: list[float] = field(default_factory=list)
    risks: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


class Workload:
    """Defaults shared by the workloads."""

    # Items whose certificate and oracle risk make ``bound_mean`` and
    # ``test_risk_mean``: a fixed count, so both are fixed at a fixed seed.
    quality_items = 40

    def finish(self) -> list[str]:
        """Problems found by checks over all items of the run."""
        return []

    def close(self) -> None:
        pass


class AuditLinear(Workload):
    """One criterion-5 audit trial per item.

    ``audit_bound_validity`` refuses fewer than 50 trials, which would make
    one item last about 25 s, so an item calls the per-trial function that
    it maps over, with the same arguments its serial path passes.
    """

    name = "audit-linear"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.spec = env.LinearEnvSpec(d=2)
        self.cfg = metalearn.TrainConfig(
            arch=model.ModelArchitecture("linear", input_dim=2),
            loss=model.LossSpec("logistic_clipped"),
            epochs_stage1=20, epochs_stage2=20, seed=0,
        )
        self.records: list = []

    def item(self, k: int) -> Item:
        start = time.perf_counter()
        record = audit._audit_trial(self.spec, 5, 5, self.cfg, k, item_seed(self.seed, k),
                                    20, 200, 200)
        done = Item(time.perf_counter() - start, [record.bound], [record.true_risk_est])
        if not (math.isfinite(record.bound) and record.bound > 0.0):
            done.problems.append(f"bound {record.bound!r} is not finite and positive")
        if not 0.0 <= record.true_risk_est <= 1.0:
            done.problems.append(f"risk {record.true_risk_est!r} is outside [0, 1]")
        self.records.append(record)
        return done

    def finish(self) -> list[str]:
        report = audit.AuditReport(
            trials=len(self.records),
            violations=sum(r.violated for r in self.records),
            delta=self.cfg.delta,
            records=tuple(self.records),
        )
        if report.violations > report.delta * report.trials:
            return [f"{report.violations}/{report.trials} violations exceed delta "
                    f"{report.delta}"]
        return []


class MetaMlp1(Workload):
    """One criterion-7-shaped meta-training run per item, then two adapts."""

    name = "meta-mlp1"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.spec = env.PermutedEnvSpec(base=env.BlobsSpec(center_scale=2.5, seed=0),
                                        mode="permute_labels")
        self.cfg = metalearn.TrainConfig(
            arch=model.ModelArchitecture("mlp1", input_dim=10, hidden_dim=8, num_classes=4),
            loss=model.LossSpec("cross_entropy_clipped"),
            epochs_stage1=10, epochs_stage2=20, learning_rate=0.1, seed=0,
        )
        # Build the shared blobs dataset now so that no item pays for it.
        env.sample_tasks(self.spec, 1, 1, np.random.default_rng(seed))

    def item(self, k: int) -> Item:
        s = item_seed(self.seed, k)
        rng = np.random.default_rng(s)
        cfg = replace(self.cfg, seed=s)
        start = time.perf_counter()
        tasks = env.sample_tasks(self.spec, 10, 64, rng)
        rho, trace = metalearn.train_meta(tasks, cfg)
        fresh = env.sample_tasks(self.spec, 2, 32, rng)
        scored = []
        for i, task in enumerate(fresh):
            adapted, bound = metalearn.adapt(rho, task, cfg, adapt_epochs=50,
                                             rng=np.random.default_rng([s, i]), mc_eval=50)
            empirical = model.mc_empirical_risk(adapted, task.train_x, task.train_y,
                                                cfg.loss, 50, rng)
            error, _ = env.true_risk_mc(task, adapted, ZERO_ONE, 400, rng, mc_samples=50)
            scored.append((bound, empirical, error))
        done = Item(time.perf_counter() - start, [b for b, _, _ in scored],
                    [e for _, _, e in scored])
        if not all(math.isfinite(v) for v in trace.objectives):
            done.problems.append("the training trace is not finite")
        for bound, empirical, error in scored:
            if not bound >= empirical:
                done.problems.append(f"certificate {bound!r} is below its empirical "
                                     f"risk {empirical!r}")
            if not 0.0 <= error <= 1.0:
                done.problems.append(f"error {error!r} is outside [0, 1]")
        return done


class SweepPriorMean(Workload):
    """One ``metabounds sweep`` of the closed-form pipeline per item, with
    the sweep config of the README: 5 task counts times 5 seeds, 25 rows.

    A control: it never reaches the tape, the meta-learner or the model.
    """

    name = "sweep-prior-mean"
    quality_items = 100
    # The first items are re-run, untimed, to check byte-identical CSV bodies.
    rerun_items = 5

    CONFIG = (
        "[sweep]\n"
        "pipeline = prior_mean\n"
        "n_list = 2, 5, 10, 20, 50\n"
        "m_list = 5\n"
        "seeds = 5\n"
        "jobs = 1\n"
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "sweep.ini"
        self.config.write_text(self.CONFIG)
        self.out = workdir / "sweep.csv"
        self.devnull = open(os.devnull, "w")
        cli.load_config(self.config, "sweep")

    def _sweep(self, k: int) -> tuple[int, list[str]]:
        argv = ["sweep", "--config", str(self.config), "--seed", str(item_seed(self.seed, k)),
                "--out", str(self.out)]
        with contextlib.redirect_stdout(self.devnull):
            code = cli.main(argv)
        lines = self.out.read_text().splitlines() if code == 0 else []
        return code, [line for line in lines if not line.startswith("#")]

    def item(self, k: int) -> Item:
        start = time.perf_counter()
        code, body = self._sweep(k)
        done = Item(time.perf_counter() - start)
        if code != 0:
            done.problems.append(f"sweep exited with code {code}")
            return done
        header, rows = body[0].split(","), body[1:]
        col = {name: header.index(name)
               for name in ("bound_thm1", "bound_thm2", "meta_test_loss")}
        if len(rows) != 25:
            done.problems.append(f"expected 25 rows, got {len(rows)}")
        for row in rows:
            values = row.split(",")
            thm1, thm2 = float(values[col["bound_thm1"]]), float(values[col["bound_thm2"]])
            if not thm2 <= thm1 + 1e-12:
                done.problems.append(f"bound_thm2 {thm2!r} exceeds bound_thm1 {thm1!r}")
            done.bounds.append(thm2)
            done.risks.append(float(values[col["meta_test_loss"]]))
        if k <= self.rerun_items and self._sweep(k)[1] != body:
            done.problems.append("the CSV body differs when re-run with the same seed")
        return done

    def close(self) -> None:
        self.devnull.close()


WORKLOADS = {w.name: w for w in (AuditLinear, MetaMlp1, SweepPriorMean)}
