"""End-to-end acceptance checks, one printed verdict per criterion.

Each test exercises one guarantee the package ships with, from exact
arithmetic identities up to full training pipelines, and prints a single
PASS/FAIL line with the headline numbers so a plain pytest run doubles as
an acceptance report.  Tolerances and time budgets are asserted, not just
reported.
"""

import math
import textwrap
import time
from dataclasses import replace

import numpy as np
import pytest

from metabounds import diff
from metabounds.audit import audit_bound_validity
from metabounds.bounds import (
    MetaBoundInput,
    kl_decomposition_check,
    multitask_sqrt_term,
    theorem1_bound,
    theorem2_bound,
)
from metabounds.cli import main
from metabounds.env import (
    BlobsSpec,
    LinearEnvSpec,
    PermutedEnvSpec,
    sample_linear_tasks,
    sample_tasks,
    true_risk_mc,
)
from metabounds.gauss import expected_kl_under_gaussian_mean, kl_diag_gaussian
from metabounds.metalearn import (
    MetaPosterior,
    TrainConfig,
    _adaptation_step,
    _meta_step,
    _stacked_data,
    adapt_many,
    independent_baseline,
    train_meta,
)
from metabounds.model import CLIPPED_LOSS, LossSpec, ModelArchitecture, taped_mc_risk
from metabounds.pipelines import prior_mean_point, rule_test_loss
from metabounds.rng import spawn_seed, stream

import oracles as ops
from oracles import (
    gaussian_row,
    gradcheck,
    lambda_star,
    lemma2_grid_minimum,
    quadrature_kl_1d,
    random_discrete_system,
)

LINEAR = ModelArchitecture("linear", input_dim=2, num_classes=2)
MLP1 = ModelArchitecture("mlp1", input_dim=2, num_classes=2, hidden_dim=3)
LOGISTIC = LossSpec("logistic_clipped")
ZERO_ONE = LossSpec("zero_one")


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_criterion_1_divergence_decomposition(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        system = random_discrete_system(
            rng,
            num_algorithms=2,
            num_priors=int(rng.integers(1, 4)),
            num_models=int(rng.integers(1, 5)),
            num_tasks=int(rng.integers(1, 4)),
        )
        _, _, gap = kl_decomposition_check(system)
        worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(capsys, 1, ok, f"max decomposition gap {worst:.2e} over 100 systems, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_closed_forms_match_oracles(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)

    worst_quad = 0.0
    for _ in range(200):
        q = gaussian_row(rng.uniform(-3, 3, 1), rng.uniform(-2, 1.5, 1))
        p = gaussian_row(rng.uniform(-3, 3, 1), rng.uniform(-2, 1.5, 1))
        worst_quad = max(worst_quad, abs(kl_diag_gaussian(q, p) - quadrature_kl_1d(q, p)))

    worst_rel = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        q = gaussian_row(rng.normal(0, 1, dim), rng.uniform(-1.5, 1.0, dim))
        hyper = gaussian_row(rng.normal(0, 1, dim), rng.uniform(-1.5, 1.0, dim))
        prior_var = float(rng.uniform(0.3, 3.0))
        closed = expected_kl_under_gaussian_mean(q, hyper, prior_var)
        draws = hyper[None, :dim] + np.exp(0.5 * hyper[None, dim:]) * rng.standard_normal(
            (100_000, dim))
        log_term = float(np.sum(np.log(prior_var) - q[dim:]))
        quad = np.sum(np.exp(q[dim:])) + np.sum((q[None, :dim] - draws) ** 2, axis=1)
        mc = float(np.mean(0.5 * (log_term + quad / prior_var - dim)))
        worst_rel = max(worst_rel, abs(closed - mc) / mc)

    elapsed = time.monotonic() - t0
    ok = worst_quad <= 1e-6 and worst_rel <= 0.02 and elapsed < 60.0
    _verdict(capsys, 2, ok,
             f"quadrature gap {worst_quad:.2e}, mean-averaged divergence off by "
             f"{100 * worst_rel:.2f}% vs MC, {elapsed:.1f}s")
    assert worst_quad <= 1e-6
    assert worst_rel <= 0.02
    assert elapsed < 60.0


def _criterion_3_tasks():
    return sample_tasks(LinearEnvSpec(d=2), 2, 6, stream(3, "acceptance-grad"))


def _criterion_3_steps(arch, wrap=lambda step: step):
    """Criterion 3's builders of both training steps on criterion 3's tasks,
    for ``gradcheck``, by name, each with its number of parameter rows.

    Each builds the step that training builds, at kappa_rho 0.05 for the
    meta step, with a fixed weight-noise stream, and puts one call of it,
    passed through ``wrap``, on the full training data on a fresh tape
    (``step_node``). An adaptation point is the posterior row against a
    fixed prior; a meta point is theta1 and the stacked task rows, with
    theta0 frozen.
    """
    tasks = _criterion_3_tasks()
    d = arch.param_count
    cfg = TrainConfig(arch=arch, loss=LossSpec(CLIPPED_LOSS[arch.kind]), mc_train=1, seed=0)
    prior = np.concatenate([np.resize([0.2, -0.1], d), np.resize([-2.0, -1.5], d)])
    theta0 = np.concatenate([np.zeros(d), np.full(d, -2.0)])
    task_data = _stacked_data(tasks[:1], arch)
    data = _stacked_data(tasks, arch)

    def build_adaptation(ps):
        tape = diff.Tape()
        q = tape.tensor(ps[0][None])
        step = _adaptation_step(cfg, tasks[0].m, q.value, prior[None],
                                [np.random.default_rng(55)])
        return ops.step_node(wrap(step), *task_data, [q], total=True), [q]

    def build_meta(ps):
        tape = diff.Tape()
        theta1, q = tape.tensor(ps[0]), tape.tensor(ps[1])
        step = _meta_step(replace(cfg, kappa_rho=0.05), tasks[0].m, theta0, theta1.value,
                          q.value, np.random.default_rng(999))
        return ops.step_node(wrap(step), *data, [theta1, q]), [theta1, q]

    return {"adaptation": (build_adaptation, 1), "meta": (build_meta, 3)}


def _criterion_3_worst(build, num_rows, d):
    """The worst relative gradient error of ``build`` over criterion 3's ten
    points, each num_rows Gaussians of d weights."""
    worst = 0.0
    for trial in range(10):
        point_rng = np.random.default_rng(1000 + trial)
        # one row per Gaussian: d means, then d log-variances
        rows = [np.concatenate([point_rng.normal(0, 0.5, d), point_rng.uniform(-3, -1, d)])
                for _ in range(num_rows)]
        points = rows if num_rows == 1 else [rows[0], np.stack(rows[1:])]
        worst = max(worst, gradcheck(build, points))
    return worst


def test_criterion_3_objective_gradients(capsys):
    t0 = time.monotonic()
    tasks = _criterion_3_tasks()
    cfg = TrainConfig(arch=LINEAR, loss=LOGISTIC, mc_train=1, seed=0)
    prior = gaussian_row([0.2, -0.1], [-2.0, -1.5])
    eps = np.random.default_rng(77).standard_normal(2)

    # Single-task certificate built from the reference ops of tests/oracles.py:
    # risk term plus the square-root slack with the 2*sqrt(m) confidence
    # constant.
    task = tasks[0]

    def build_single(ps):
        tape = diff.Tape()
        q = tape.tensor(ps[0])
        qm = ops.slice(q, slice(0, 2))
        qlv = ops.slice(q, slice(2, 4))
        pm = tape.tensor(prior[:2])
        plv = tape.tensor(prior[2:])
        risk = taped_mc_risk(LINEAR, q, task.train_x, task.train_y, LOGISTIC, eps[None])
        dm = ops.sub(qm, pm)
        kl = ops.mul(ops.sub(ops.add(ops.sub(ops.add(
            ops.sum(ops.exp(ops.sub(qlv, plv))),
            ops.sum(ops.mul(ops.mul(dm, dm), ops.exp(ops.mul(plv, -1.0))))),
            2.0), ops.sum(plv)), ops.sum(qlv)), 0.5)
        slack = ops.add(kl, math.log(2.0 * math.sqrt(task.m) / cfg.delta))
        return ops.add(risk, ops.sqrt(ops.mul(slack, 1.0 / (2.0 * task.m)))), [q]

    objectives = {"single-task": (build_single, 1), **_criterion_3_steps(LINEAR)}
    worst = {name: _criterion_3_worst(build, num_rows, 2)
             for name, (build, num_rows) in objectives.items()}

    elapsed = time.monotonic() - t0
    ok = max(worst.values()) <= 1e-4 and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _verdict(capsys, 3, ok, f"worst rel grad err {detail}, {elapsed:.1f}s")
    assert max(worst.values()) <= 1e-4
    assert elapsed < 60.0


@pytest.mark.parametrize("name", ["adaptation", "meta"])
@pytest.mark.parametrize("arch", [LINEAR, MLP1], ids=["linear", "mlp1"])
def test_criterion_3_fails_a_step_with_one_wrong_gradient_coordinate(arch, name):
    """Criterion 3's negative control: at criterion 3's points each step
    passes its gradcheck, and the same step with the first coordinate of
    its gradient scaled by 1 + 1e-3 fails it."""

    def skewed(step):
        def wrong(xb, yb):
            gradient, values = step(xb, yb)
            gradient = gradient.copy()
            gradient[0] *= 1.0 + 1e-3
            return gradient, values

        return wrong

    build, num_rows = _criterion_3_steps(arch)[name]
    assert _criterion_3_worst(build, num_rows, arch.param_count) <= 1e-4
    build, num_rows = _criterion_3_steps(arch, wrap=skewed)[name]
    assert _criterion_3_worst(build, num_rows, arch.param_count) > 1e-4


def test_criterion_4_bound_ordering(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    strict_checked = 0
    for _ in range(1000):
        er = float(rng.uniform(0, 0.5))
        kl_rho_pi = 0.0 if rng.random() < 0.2 else float(rng.uniform(0, 50))
        pairs = tuple(
            (float(rng.uniform(0, 20)), float(rng.uniform(0, 20)))
            for _ in range(int(rng.integers(1, 5)))
        )
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 101))
        delta = float(rng.uniform(0.01, 0.99))
        inp = MetaBoundInput(er, kl_rho_pi, pairs, n, m, delta)
        t1v = theorem1_bound(inp)
        t2v = theorem2_bound(inp)
        assert t2v <= t1v + 1e-12
        totals = {a + b for a, b in pairs}
        if kl_rho_pi > 0.0 or len(totals) > 1:
            assert t2v < t1v
            strict_checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 5.0
    _verdict(capsys, 4, ok,
             f"ordering held on 1000 inputs, strict on {strict_checked}, {elapsed:.1f}s")
    assert elapsed < 5.0


def test_criterion_5_certificate_validity_audit(capsys):
    t0 = time.monotonic()
    cfg = TrainConfig(arch=LINEAR, loss=LOGISTIC,
                      epochs_stage1=20, epochs_stage2=20, seed=0)
    report = audit_bound_validity(
        LinearEnvSpec(d=2), 5, 5, cfg, 200, stream(2024, "acceptance-audit")
    )
    elapsed = time.monotonic() - t0
    held = report.violations <= cfg.delta * report.trials
    ok = held and elapsed < 900.0
    _verdict(capsys, 5, ok,
             f"{report.violations}/200 violations at delta {cfg.delta}, {elapsed:.0f}s")
    assert held
    assert elapsed < 900.0


def test_criterion_6_bound_decreases_with_more_tasks(capsys):
    t0 = time.monotonic()
    spec = LinearEnvSpec(d=2)
    counts = (2, 5, 10, 20, 50)
    curves = []
    for s in range(5):
        seed = spawn_seed(0, "sweep", s, 2, 5)
        _, x, y = sample_linear_tasks(spec, max(counts), 5, stream(seed, "tasks", 2, 5))
        test_loss = rule_test_loss(spec, 5, seed)
        curves.append([
            point.bound_thm2
            for point in prior_mean_point(x, y, counts, seed, 0.1, meta_test_loss=test_loss)
        ])
    means = np.mean(curves, axis=0)
    elapsed = time.monotonic() - t0
    nonincreasing = all(means[i + 1] <= means[i] + 1e-9 for i in range(len(counts) - 1))
    ok = nonincreasing and means[-1] < 1.0 and elapsed < 1200.0
    curve = ", ".join(f"{v:.3f}" for v in means)
    _verdict(capsys, 6, ok, f"seed-averaged bound over n={counts}: {curve}, {elapsed:.0f}s")
    assert nonincreasing
    assert means[-1] < 1.0
    assert elapsed < 1200.0


def test_criterion_7_separated_priors_beat_tied_and_scratch(capsys):
    t0 = time.monotonic()
    base = BlobsSpec(center_scale=2.5, seed=0)
    env = PermutedEnvSpec(base=base, mode="permute_labels")
    arch = ModelArchitecture("mlp1", input_dim=10, hidden_dim=8, num_classes=4)
    loss = LossSpec("cross_entropy_clipped")

    def mean_errors(seed):
        train_tasks = sample_tasks(env, 10, 64, stream(seed, "train-tasks"))
        test_tasks = sample_tasks(env, 20, 32, stream(seed, "test-tasks"))

        def cfg(e1, e2):
            return TrainConfig(arch=arch, loss=loss, epochs_stage1=e1,
                               epochs_stage2=e2, learning_rate=0.1, seed=seed)

        rho_sep, _ = train_meta(train_tasks, cfg(100, 600))
        rho_tied, _ = train_meta(train_tasks, cfg(700, 0))
        c = cfg(100, 600)

        def rngs(name):
            return [stream(seed, name, i) for i in range(len(test_tasks))]

        # all 20 test tasks of an arm adapt together, each from its own stream
        adapted = {
            "sep": [m for m, _ in adapt_many(rho_sep, test_tasks, c, adapt_epochs=300,
                                             rngs=rngs("a-sep"))],
            "tied": [m for m, _ in adapt_many(rho_tied, test_tasks, c, adapt_epochs=300,
                                              rngs=rngs("a-tied"))],
            "ind": independent_baseline(test_tasks, c, adapt_epochs=300, rngs=rngs("a-ind")),
        }
        errs = {"sep": [], "tied": [], "ind": []}
        for i, task in enumerate(test_tasks):
            eval_rng = stream(seed, "eval", i)
            for key in ("sep", "tied", "ind"):
                model = adapted[key][i]
                err, _ = true_risk_mc(task, model, ZERO_ONE, 400, eval_rng, mc_samples=50)
                errs[key].append(err)
        return {k: float(np.mean(v)) for k, v in errs.items()}

    per_seed = [mean_errors(s) for s in range(5)]
    sep = float(np.mean([r["sep"] for r in per_seed]))
    tied = float(np.mean([r["tied"] for r in per_seed]))
    ind = float(np.mean([r["ind"] for r in per_seed]))
    elapsed = time.monotonic() - t0
    ok = sep <= tied and ind - sep >= 0.05 and ind - tied >= 0.05 and elapsed < 1800.0
    _verdict(capsys, 7, ok,
             f"0-1 error separated {sep:.3f} <= tied {tied:.3f}, "
             f"independent {ind:.3f}, {elapsed:.0f}s")
    assert sep <= tied
    assert ind - sep >= 0.05
    assert ind - tied >= 0.05
    assert elapsed < 1800.0


def test_criterion_8_trade_off_grid_agreement(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    clipped_count = 0
    worst_gap = 0.0
    for _ in range(1000):
        kl = 0.0 if rng.random() < 0.1 else float(rng.uniform(0, 100))
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 21))
        delta = float(rng.uniform(0.01, 0.99))
        lam, clipped = lambda_star(kl, n, m, delta)
        assert clipped == (lam > 4.0 * n * m)
        if clipped:
            clipped_count += 1
            continue
        cf = multitask_sqrt_term(kl, n, m, delta)
        grid = lemma2_grid_minimum(kl, n, m, delta)
        slack = kl + math.log(8.0 * n * m / delta)
        band = (math.sqrt(slack + 1.0) - math.sqrt(slack)) / math.sqrt(2.0 * n * m)
        gap = cf - grid
        assert -1e-12 <= gap <= band + 1e-12
        worst_gap = max(worst_gap, gap - band)
    elapsed = time.monotonic() - t0
    ok = 0 < clipped_count < 1000 and elapsed < 5.0
    _verdict(capsys, 8, ok,
             f"1000 tuples within the discretization band ({clipped_count} clipped, "
             f"flag exact), {elapsed:.1f}s")
    assert 0 < clipped_count < 1000
    assert elapsed < 5.0


def _body(path):
    return "\n".join(ln for ln in path.read_text().splitlines() if not ln.startswith("#"))


def test_criterion_9_byte_identical_reruns(capsys, tmp_path):
    t0 = time.monotonic()

    def write_conf(name, text):
        path = tmp_path / name
        path.write_text(textwrap.dedent(text))
        return str(path)

    matches = []

    sweep_conf = write_conf("sweep.ini", """\
        [sweep]
        pipeline = prior_mean
        n_list = 2, 5
        m_list = 5
        seeds = 2
        eval_tasks = 3
        eval_points = 50
        out = unused.csv
        """)
    a, b = tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"
    assert main(["sweep", "--config", sweep_conf, "--out", str(a)]) == 0
    assert main(["sweep", "--config", sweep_conf, "--out", str(b)]) == 0
    matches.append(("sweep", _body(a) == _body(b)))

    art_a, art_b = tmp_path / "post_a.txt", tmp_path / "post_b.txt"
    adapt_a, adapt_b = tmp_path / "adapt_a.csv", tmp_path / "adapt_b.csv"
    train_conf = write_conf("train.ini", f"""\
        [train]
        env = linear
        d = 2
        n = 2
        m = 6
        epochs_stage1 = 2
        epochs_stage2 = 2
        out = unused.txt

        [adapt]
        env = linear
        d = 2
        posterior = {art_a}
        num_tasks = 3
        m = 6
        adapt_epochs = 2
        eval_points = 40
        mc_eval = 20
        out = unused.csv
        """)
    assert main(["train", "--config", train_conf, "--out", str(art_a)]) == 0
    assert main(["train", "--config", train_conf, "--out", str(art_b)]) == 0
    matches.append(("train", art_a.read_text() == art_b.read_text()))
    trace_a = art_a.with_suffix(art_a.suffix + ".trace.csv")
    trace_b = art_b.with_suffix(art_b.suffix + ".trace.csv")
    matches.append(("trace", _body(trace_a) == _body(trace_b)))

    assert main(["adapt", "--config", train_conf, "--out", str(adapt_a)]) == 0
    assert main(["adapt", "--config", train_conf, "--out", str(adapt_b)]) == 0
    matches.append(("adapt", _body(adapt_a) == _body(adapt_b)))

    audit_a, audit_b = tmp_path / "audit_a.csv", tmp_path / "audit_b.csv"
    audit_conf = write_conf("audit.ini", """\
        [audit]
        env = linear
        d = 2
        n = 2
        m = 5
        trials = 50
        epochs_stage1 = 1
        epochs_stage2 = 1
        eval_points = 30
        mc_eval = 10
        out = unused.csv
        """)
    assert main(["audit", "--config", audit_conf, "--out", str(audit_a)]) == 0
    assert main(["audit", "--config", audit_conf, "--out", str(audit_b)]) == 0
    matches.append(("audit", _body(audit_a) == _body(audit_b)))

    bound_conf = write_conf("bound.ini", "[bound]\nn = 10\nm = 5\ndelta = 0.1\n")
    capsys.readouterr()
    assert main(["bound", "--config", bound_conf]) == 0
    first = capsys.readouterr().out
    assert main(["bound", "--config", bound_conf]) == 0
    second = capsys.readouterr().out
    matches.append(("bound", first == second))

    elapsed = time.monotonic() - t0
    ok = all(same for _, same in matches)
    summary = ", ".join(name for name, _ in matches)
    _verdict(capsys, 9, ok, f"re-ran {summary}; bodies byte-identical, {elapsed:.0f}s")
    assert all(same for _, same in matches), matches
