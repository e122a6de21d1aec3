"""Tests for config parsing, CSV output, and the CLI subcommands."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from metabounds import cli, pipelines
from metabounds.bounds import MetaBoundInput, theorem2_bound
from metabounds.cli import (
    SCHEMAS,
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
    write_csv,
)
from metabounds.env import sample_tasks
from metabounds.metalearn import (
    MetaPosterior,
    adapt_many,
    adaptation_certificate,
    load_meta_posterior,
    save_meta_posterior,
)
from metabounds.rng import stream

from host_kernels import forced_kernel_settings, kernel_report
from oracles import (task_level_statement, theorem1_statement, theorem2_statement,
                     within_task_statement)


def _write(tmp_path, text, name="conf.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def _data_lines(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


class TestConfigLoading:
    def test_defaults_fill_missing_keys(self, tmp_path):
        cfg = load_config(_write(tmp_path, "[sweep]\nseeds = 3\n"), "sweep")
        assert cfg.values["seeds"] == 3
        assert cfg.values["pipeline"] == "prior_mean"
        assert cfg.values["n_list"] == (2, 5, 10, 20, 50)

    def test_overrides_beat_file_values(self, tmp_path):
        path = _write(tmp_path, "[sweep]\nseed = 1\n")
        cfg = load_config(path, "sweep", overrides={"seed": 9})
        assert cfg.values["seed"] == 9

    def test_unknown_key_is_rejected(self, tmp_path):
        path = _write(tmp_path, "[sweep]\nnn_list = 2\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path, "sweep")

    def test_unknown_section_is_rejected(self, tmp_path):
        path = _write(tmp_path, "[sweeper]\nseeds = 2\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path, "sweeper" if False else "sweep")

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini", "sweep")

    def test_missing_required_key_is_rejected(self, tmp_path):
        path = _write(tmp_path, "[train]\nm = 5\n")
        with pytest.raises(ConfigError, match="missing required.*n"):
            load_config(path, "train")

    def test_bad_integer_is_rejected(self, tmp_path):
        path = _write(tmp_path, "[sweep]\nseeds = three\n")
        with pytest.raises(ConfigError, match="expected an integer"):
            load_config(path, "sweep")

    def test_bad_choice_is_rejected(self, tmp_path):
        path = _write(tmp_path, "[sweep]\npipeline = magic\n")
        with pytest.raises(ConfigError, match="expected one of"):
            load_config(path, "sweep")

    def test_empty_n_list_is_rejected(self, tmp_path):
        path = _write(tmp_path, "[sweep]\nn_list =\n")
        with pytest.raises(ConfigError, match="nonempty"):
            load_config(path, "sweep")

    def test_hash_ignores_formatting_but_not_values(self, tmp_path):
        a = load_config(_write(tmp_path, "[sweep]\nseeds = 3\n", "a.ini"), "sweep")
        b = load_config(
            _write(tmp_path, "; comment\n[sweep]\nseeds =   3\n", "b.ini"), "sweep"
        )
        c = load_config(_write(tmp_path, "[sweep]\nseeds = 4\n", "c.ini"), "sweep")
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash


class TestCsvWriter:
    def test_structure_and_determinism(self, tmp_path):
        rows = [(1, 0.5), (2, 0.25)]
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        write_csv(p1, ["k", "v"], rows, "abcd", 7)
        write_csv(p2, ["k", "v"], rows, "abcd", 7)
        body = _data_lines(p1)
        assert body[0] == "k,v"
        assert body[1] == "1,0.5"
        assert body == _data_lines(p2)
        assert "# metabounds-csv 1" in p1.read_text()
        assert not list(tmp_path.glob("*.tmp"))

    def test_row_shape_mismatch_leaves_no_file(self, tmp_path):
        target = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="row shape"):
            write_csv(target, ["a", "b"], [(1,)], "h", 0)
        assert not target.exists()

    def test_mode_is_that_of_any_new_file(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x\n")
        write_csv(tmp_path / "out.csv", ["a"], [(1,)], "h", 0)
        assert (tmp_path / "out.csv").stat().st_mode == plain.stat().st_mode

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.csv"
        write_csv(target, ["a"], [(1,)], "h", 0)
        assert target.exists()


class TestCmdBound:
    def test_all_zero_kls_matches_the_frozen_value(self, tmp_path, capsys):
        path = _write(tmp_path, "[bound]\nn = 10\nm = 5\ndelta = 0.1\n")
        assert main(["bound", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "theorem1 0.796805134032" in out
        assert "theorem2 0.796805134032" in out

    def test_invalid_delta_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "[bound]\nn = 10\nm = 5\ndelta = 1.5\n")
        assert main(["bound", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_multiple_pairs_average_like_the_evaluator(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "[bound]\nn = 4\nm = 6\npairs = 0.5:1.0 ; 0.0:3.0\nempirical_risk = 0.2\n",
        )
        assert main(["bound", "--config", path]) == 0
        out = capsys.readouterr().out
        expected = theorem2_bound(
            MetaBoundInput(0.2, 0.0, ((0.5, 1.0), (0.0, 3.0)), 4, 6, 0.1)
        )
        assert f"theorem2 {expected:.12g}" in out

    def test_missing_n_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "[bound]\nm = 5\n")
        assert main(["bound", "--config", path]) == 2
        assert "missing required" in capsys.readouterr().err


SWEEP_SMALL = """\
    [sweep]
    pipeline = prior_mean
    n_list = 2, 5
    m_list = 5
    seeds = 2
    eval_tasks = 3
    eval_points = 50
    out = {out}
    """

TWO_PRIOR_SMALL = """\
    [sweep]
    pipeline = two_prior
    n_list = 2, 3
    m_list = 5
    seeds = 2
    epochs_stage1 = 2
    epochs_stage2 = 2
    eval_tasks = 3
    eval_points = 20
    """


class TestCmdSweep:
    def test_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        path = _write(tmp_path, SWEEP_SMALL.format(out=out))
        assert main(["sweep", "--config", path]) == 0
        body = _data_lines(out)
        assert body[0].startswith("n,m,d,seed,")
        assert len(body) == 5
        first = body[1].split(",")
        assert first[0] == "2" and first[1] == "5" and first[2] == "2"
        values = [float(v) for v in first[3:]]
        assert all(np.isfinite(values))

    def test_repeat_runs_are_byte_identical_outside_comments(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        path = _write(tmp_path, SWEEP_SMALL.format(out="placeholder.csv"))
        assert main(["sweep", "--config", path, "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", path, "--out", str(out_b)]) == 0
        assert _data_lines(out_a) == _data_lines(out_b)

    def test_seed_override_changes_results(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        path = _write(tmp_path, SWEEP_SMALL.format(out="p.csv"))
        main(["sweep", "--config", path, "--out", str(out_a), "--seed", "0"])
        main(["sweep", "--config", path, "--out", str(out_b), "--seed", "1"])
        assert _data_lines(out_a) != _data_lines(out_b)

    def test_parallel_matches_serial(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        path = _write(tmp_path, SWEEP_SMALL.format(out="p.csv"))
        main(["sweep", "--config", path, "--out", str(out_a)])
        main(["sweep", "--config", path, "--out", str(out_b), "--jobs", "2"])
        assert _data_lines(out_a) == _data_lines(out_b)

    @pytest.mark.parametrize("text", [SWEEP_SMALL.format(out="p.csv"), TWO_PRIOR_SMALL],
                             ids=["prior_mean", "two_prior"])
    def test_components_recombine_in_every_row(self, tmp_path, text):
        out = tmp_path / "sweep.csv"
        path = _write(tmp_path, text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        header, *rows = _data_lines(out)
        cols = header.split(",")
        for line in rows:
            rec = dict(zip(cols, line.split(",")))
            recombined = (float(rec["empirical_multitask_risk"])
                          + float(rec["task_level_term"])
                          + float(rec["multitask_term"]))
            assert abs(recombined - float(rec["bound_thm2"])) <= 1e-12


README_SWEEP = """\
    [sweep]
    pipeline = prior_mean
    n_list = 2, 5, 10, 20, 50
    m_list = 5
    seeds = 5
    """

# Several (d, m) groups whose task counts are listed out of order.
UNSORTED_SWEEP = """\
    [sweep]
    pipeline = prior_mean
    d_list = 2, 5
    m_list = 5, 20
    n_list = 10, 2, 50
    seeds = 2
    """

# Nine input dimensions, past the eight at which numpy's pairwise sums over
# the coordinates start to round differently from a running sum; task
# counts out of order, one of them 1.
NINE_DIM_SWEEP = """\
    [sweep]
    pipeline = prior_mean
    d_list = 9
    m_list = 6
    n_list = 30, 4, 12, 1
    seeds = 3
    """

# sha256 of the CSV bodies (the lines outside '#' comments, joined by
# newlines) at seed 0, recorded when each sweep row was priced on its own;
# "two_prior" re-recorded when its expected task divergence became exact,
# again when training took that expectation exactly too, and again when the
# linear oracle behind its meta_test_loss column took the expectation over
# the weights per point in place of mc_eval weight draws (no other column
# moved); "readme" re-recorded when the closed-form pricing stopped calling
# BLAS, whose matmul kernel, and so its rounding, OpenBLAS picks per CPU;
# "unsorted" recorded while each row still re-fitted and re-priced its own
# prefix; "nine_dim" recorded while each count built its own hyper-posterior
# and called the divergences on its own.
# Bit-exact floats: recorded with numpy 2.4 and OpenBLAS on x86-64.
GOLDEN_BODIES = {
    "readme": (README_SWEEP,
               "7e4bba0512d966c28245edac2d8e885031280ee17d7e3e48fe5e0950870b466a"),
    "two_prior": (TWO_PRIOR_SMALL,
                  "c781d2f08d645ed35a54b74eb3efdab92a41a414de52870f7b31cb4c62f696fe"),
    "nine_dim": (NINE_DIM_SWEEP,
                 "d6b46957070ab6e2ec7b6dd780db2642efab40cf385907730acd621e97eb75b7"),
    "unsorted": (UNSORTED_SWEEP,
                 "6e33dacb5ef783022c3bc5270f3a69460f6f53f71196efbc492595a9a44cf583"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GOLDEN_BODIES))
def test_sweep_body_matches_its_golden_hash(tmp_path, name, jobs):
    text, digest = GOLDEN_BODIES[name]
    out = tmp_path / "sweep.csv"
    path = _write(tmp_path, text)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", path, "--out", str(out), "--jobs", jobs]) == 0
    body = "\n".join(_data_lines(out))
    assert hashlib.sha256(body.encode()).hexdigest() == digest, f"ran on {kernel_report()}"


@pytest.mark.parametrize("name", sorted(GOLDEN_BODIES))
def test_every_sweep_row_rederives_from_its_own_columns(tmp_path, name):
    """Each row's certificate columns follow from its other columns through
    the theorem statements transcribed in tests/oracles.py, which share no
    code with metabounds.bounds. In every row the task-level term follows
    from (kl_rho_pi, n, delta). A two_prior row's one algorithm has
    kl_hyper = 0, so its multitask term and both bounds follow from
    (empirical_multitask_risk, kl_rho_pi, n * mean_task_kl, n, m, delta).
    The closed form's multitask term needs kl_hyper, which no column
    carries; its rho is a point mass on one algorithm, so there the two
    bounds must be equal."""
    text, _ = GOLDEN_BODIES[name]
    out = tmp_path / "sweep.csv"
    path = _write(tmp_path, text)
    delta = load_config(path, "sweep").values["delta"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    header, *lines = _data_lines(out)
    two_prior = "two_prior" in text
    for line in lines:
        row = dict(zip(header.split(","), line.split(",")))
        n, m = int(row["n"]), int(row["m"])
        er, kl_rho_pi, mean_task_kl = (float(row[k]) for k in (
            "empirical_multitask_risk", "kl_rho_pi", "mean_task_kl"))
        assert float(row["task_level_term"]) == pytest.approx(
            task_level_statement(kl_rho_pi, n, delta), rel=1e-12, abs=0)
        if not two_prior:
            assert row["bound_thm1"] == row["bound_thm2"]
            continue
        pairs = [(0.0, n * mean_task_kl)]
        want = {"multitask_term": within_task_statement(n * mean_task_kl, n, m, delta),
                "bound_thm1": theorem1_statement(er, kl_rho_pi, pairs, n, m, delta),
                "bound_thm2": theorem2_statement(er, kl_rho_pi, pairs, n, m, delta)}
        for column, value in want.items():
            assert float(row[column]) == pytest.approx(value, rel=1e-12, abs=0), column


def test_the_cached_parser_carries_no_state_between_calls(tmp_path, monkeypatch, capsys):
    """main reuses one parser per process. Flags given to one call do not
    reach the next, and neither does an argparse exit between two calls."""
    assert cli._build_parser() is cli._build_parser()
    text, digest = GOLDEN_BODIES["readme"]
    own_out = tmp_path / "own.csv"
    path = _write(tmp_path, textwrap.dedent(text) + f"seed = 0\njobs = 1\nout = {own_out}\n")
    pools = []
    real_pool = cli.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", counting_pool)

    def golden_run():
        assert main(["sweep", "--config", path]) == 0
        assert "# seed 0" in own_out.read_text().splitlines()
        body = "\n".join(_data_lines(own_out))
        assert hashlib.sha256(body.encode()).hexdigest() == digest, f"ran on {kernel_report()}"

    flagged = tmp_path / "a.csv"
    assert main(["sweep", "--config", path, "--seed", "7", "--out", str(flagged),
                 "--jobs", "2"]) == 0
    assert "# seed 7" in flagged.read_text().splitlines()
    assert pools == [2] and not own_out.exists()
    golden_run()
    assert pools == [2]
    own_out.unlink()
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    golden_run()
    assert pools == [2]


# Runs the CLI with the given arguments, then prints the kernels it ran on.
_REPORTING_CHILD = """\
import sys
from host_kernels import kernel_report
from metabounds.cli import main
code = main(sys.argv[1:])
print(kernel_report())
sys.exit(code)
"""


@pytest.mark.parametrize("setting", sorted(forced_kernel_settings()))
def test_closed_form_golden_holds_under_other_kernels(tmp_path, setting):
    """The closed-form golden body, re-run in a child process that the
    environment alone puts on other OpenBLAS or numpy SIMD kernels."""
    variables, shown, skip = forced_kernel_settings()[setting]
    if skip is not None:
        pytest.skip(skip)
    text, digest = GOLDEN_BODIES["readme"]
    out = tmp_path / "sweep.csv"
    path = _write(tmp_path, text)
    env = {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent),
         os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _REPORTING_CHILD, "sweep", "--config", path,
                           "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    report = done.stdout.splitlines()[-1]
    assert shown in report, report
    body = "\n".join(_data_lines(out))
    assert hashlib.sha256(body.encode()).hexdigest() == digest, f"ran on {report}"


_CAP_CHILD = """\
from host_kernels import forced_kernel_settings
print(forced_kernel_settings()["numpy-x86-v2"][0]["NPY_DISABLE_CPU_FEATURES"])
"""


def test_a_capped_process_hands_its_cap_on():
    """forced_kernel_settings() in a process whose numpy is already capped at
    X86_V2 still disables the capped targets, so the child it sets up runs
    on X86_V2 too."""
    variables, _, skip = forced_kernel_settings()["numpy-x86-v2"]
    if skip is not None:
        pytest.skip(skip)
    capped = variables["NPY_DISABLE_CPU_FEATURES"].split()
    if not capped:
        pytest.skip("numpy enabled no dispatch target on this CPU")
    env = {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _CAP_CHILD],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert set(capped) <= set(done.stdout.split()), done.stdout


def test_closed_form_sweep_prices_each_group_once(tmp_path, monkeypatch):
    calls = {"pool": 0, "held_out": 0, "tasks": 0, "sign_risk": 0, "divergences": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "sample_linear_tasks", counting("pool", cli.sample_linear_tasks))
    monkeypatch.setattr(pipelines, "sample_linear_tasks",
                        counting("held_out", pipelines.sample_linear_tasks))
    for module in (cli, pipelines):
        monkeypatch.setattr(module, "sample_tasks", counting("tasks", module.sample_tasks))
    monkeypatch.setattr(pipelines, "gaussian_sign_risk",
                        counting("sign_risk", pipelines.gaussian_sign_risk))
    for name in ("kl_diag_arrays", "expected_kl_arrays"):
        monkeypatch.setattr(pipelines, name, counting("divergences", getattr(pipelines, name)))
    path = _write(tmp_path, README_SWEEP)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(_data_lines(tmp_path / "sweep.csv")) == 26
    # one stacked pool and one stacked held-out set per seed, and no Task
    # objects; per seed, one training batch priced for all five task counts,
    # the 20 held-out tasks in one call, and the divergences of all five
    # counts in two calls
    assert calls == {"pool": 5, "held_out": 5, "tasks": 0, "sign_risk": 5 + 5,
                     "divergences": 2 * 5}


def test_a_trained_sweep_unit_draws_only_its_own_tasks(tmp_path, monkeypatch):
    """A two_prior unit prices one task count n from the first n tasks of its
    stream, so it draws n tasks, not the largest count of n_list."""
    asked, real = [], cli.sample_tasks

    def recording(spec, n, m, rng):
        asked.append(n)
        return real(spec, n, m, rng)

    monkeypatch.setattr(cli, "sample_tasks", recording)
    path = _write(tmp_path, TWO_PRIOR_SMALL)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "sweep.csv"),
                     "--jobs", "1"]) == 0
    assert asked == [2, 3] * 2  # n_list = 2, 3 at each of two seeds


TRAIN_SMALL = """\
    [train]
    env = linear
    d = 2
    n = 2
    m = 6
    epochs_stage1 = 2
    epochs_stage2 = 2
    out = {out}

    [adapt]
    env = linear
    d = 2
    posterior = {out}
    num_tasks = 3
    m = 6
    adapt_epochs = 2
    eval_points = 40
    mc_eval = 20
    out = {adapt_out}
    """


class TestTrainAdaptRoundTrip:
    def test_train_then_adapt(self, tmp_path, capsys):
        artifact = tmp_path / "posterior.txt"
        adapt_out = tmp_path / "adapt.csv"
        path = _write(tmp_path, TRAIN_SMALL.format(out=artifact, adapt_out=adapt_out))

        assert main(["train", "--config", path]) == 0
        assert artifact.exists()
        trace = tmp_path / "posterior.txt.trace.csv"
        trace_body = _data_lines(trace)
        assert trace_body[0] == "epoch,stage,objective"
        stages = [line.split(",")[1] for line in trace_body[1:]]
        assert stages == ["1", "1", "2", "2"]

        assert main(["adapt", "--config", path]) == 0
        body = _data_lines(adapt_out)
        assert body[0] == "task_index,seed,train_risk,bound,test_error"
        assert len(body) == 4
        assert "# summary test_error" in adapt_out.read_text()

    def test_adapt_rows_are_the_certificate_terms(self, tmp_path):
        artifact = tmp_path / "posterior.txt"
        adapt_out = tmp_path / "adapt.csv"
        path = _write(tmp_path, TRAIN_SMALL.format(out=artifact, adapt_out=adapt_out))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--config", path]) == 0
            assert main(["adapt", "--config", path]) == 0

        values = load_config(path, "adapt").values
        seed = values["seed"]
        spec = cli._env_spec(values)
        cfg = cli._train_config(values, spec)
        tasks = sample_tasks(spec, values["num_tasks"], values["m"], stream(seed, "adapt-tasks"))
        rngs = [stream(seed, "adapt", i) for i in range(len(tasks))]
        adapted = adapt_many(load_meta_posterior(artifact), tasks, cfg,
                             adapt_epochs=values["adapt_epochs"], rngs=rngs)
        rows = [line.split(",") for line in _data_lines(adapt_out)[1:]]
        assert len(rows) == len(tasks)
        for row, task, rng, (model, prior) in zip(rows, tasks, rngs, adapted):
            # train_risk is the empirical term the bound was priced from
            assert (float(row[2]), float(row[3])) == adaptation_certificate(
                model, prior, task, cfg, mc_eval=values["mc_eval"], rng=rng)

    def test_adapt_runs_are_identical(self, tmp_path):
        artifact = tmp_path / "posterior.txt"
        path = _write(tmp_path, TRAIN_SMALL.format(out=artifact,
                                                   adapt_out=tmp_path / "x.csv"))
        main(["train", "--config", path])
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["adapt", "--config", path, "--out", str(out_a)]) == 0
        assert main(["adapt", "--config", path, "--out", str(out_b)]) == 0
        assert _data_lines(out_a) == _data_lines(out_b)

    def test_a_directory_where_the_trace_goes_exits_2(self, tmp_path, capsys):
        """The trace is written beside out, after the work; a directory in
        its place is a config error at load."""
        (tmp_path / "posterior.txt.trace.csv").mkdir()
        path = _write(tmp_path, TRAIN_SMALL.format(out=tmp_path / "posterior.txt",
                                                   adapt_out=tmp_path / "x.csv"))
        assert main(["train", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ") and "is a directory" in err, err
        assert not (tmp_path / "posterior.txt").exists()

    def test_adapt_without_artifact_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, TRAIN_SMALL.format(out=tmp_path / "missing.txt",
                                                   adapt_out=tmp_path / "x.csv"))
        assert main(["adapt", "--config", path]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_exits_3(self, tmp_path, capsys):
        artifact = tmp_path / "posterior.txt"
        path = _write(
            tmp_path,
            f"""\
            [train]
            env = linear
            d = 2
            n = 2
            m = 6
            epochs_stage1 = 6
            epochs_stage2 = 0
            learning_rate = 1e8
            out = {artifact}
            """,
        )
        assert main(["train", "--config", path]) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not artifact.exists()


class TestCmdAudit:
    def test_small_audit_run(self, tmp_path, capsys):
        out = tmp_path / "audit.csv"
        path = _write(
            tmp_path,
            f"""\
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
            out = {out}
            """,
        )
        assert main(["audit", "--config", path]) == 0
        body = _data_lines(out)
        assert body[0] == AUDIT_HEADER
        assert len(body) == 51
        text = out.read_text()
        assert "# violations 0/50" in text
        assert "0/50 violations" in capsys.readouterr().out
        # the vacuity trailers restate the body's bound and margin columns
        columns = AUDIT_HEADER.split(",")
        rows = [dict(zip(columns, row.split(","))) for row in body[1:]]
        bounds = np.array([float(r["bound"]) for r in rows])
        margins = np.array([float(r["margin"]) for r in rows])
        assert f"\n# vacuous {int(np.sum(bounds >= 1.0))}/50\n" in text
        q25, q50, q75 = (repr(float(q)) for q in np.percentile(margins, (25, 50, 75)))
        assert f"\n# margin q25={q25} q50={q50} q75={q75}\n" in text
        # --jobs spreads the trials over processes and leaves the body
        spread = tmp_path / "spread.csv"
        assert main(["audit", "--config", path, "--jobs", "2", "--out", str(spread)]) == 0
        assert _data_lines(spread) == body


AUDIT_HEADER = "trial_index,seed,bound,true_risk_est,true_risk_se,margin,violated"


# ---------------------------------------------------------------------------
# The config boundary: every config ends in exit code 0, 2 or 3.

# Small settings per command, so that a config that passes the boundary
# finishes in a fraction of a second; each case below overrides some keys.
CHEAP = {
    "train": {"n": "2", "m": "6", "epochs_stage1": "2", "epochs_stage2": "2",
              "out": "{dir}/posterior.txt"},
    "adapt": {"posterior": "{dir}/posterior.txt", "m": "5", "num_tasks": "2",
              "adapt_epochs": "2", "eval_points": "20", "mc_eval": "10",
              "out": "{dir}/adapt.csv"},
    "audit": {"n": "2", "m": "5", "trials": "50", "epochs_stage1": "1",
              "epochs_stage2": "1", "eval_points": "20", "mc_eval": "5",
              "out": "{dir}/audit.csv"},
    "sweep": {"n_list": "2", "seeds": "1", "eval_tasks": "3", "eval_points": "20",
              "out": "{dir}/sweep.csv"},
    "bound": {"n": "10", "m": "5"},
}
# Added for a sweep with pipeline = two_prior, the only one that reads them.
CHEAP_TWO_PRIOR = {"epochs_stage1": "2", "epochs_stage2": "2"}


def _run(command, overrides, workdir):
    """Run main on CHEAP[command] updated with overrides; return the exit
    code and stderr. The adapt posterior is a linear d=2 meta-posterior."""
    workdir = Path(workdir)
    save_meta_posterior(MetaPosterior(np.zeros(4), np.zeros(4), 1e-3),
                        workdir / "posterior.txt")
    (workdir / "garbage.txt").write_text("garbage\n")
    values = {**CHEAP[command], **overrides}
    if values.get("pipeline") == "two_prior":
        values = {**CHEAP_TWO_PRIOR, **values}
    lines = [f"[{command}]"] + [f"{k} = {v.format(dir=workdir)}" for k, v in values.items()]
    path = workdir / "conf.ini"
    path.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(path)])
    return code, err.getvalue()


BOUNDARY_CASES = [
    ("train", {"env": "blobs"}, 2),
    ("train", {"n": "0"}, 2),
    ("sweep", {"n_list": "0"}, 2),
    ("sweep", {"m_list": "0"}, 2),
    ("sweep", {"d_list": "0"}, 2),
    ("audit", {"trials": "10"}, 2),
    ("audit", {"eval_tasks": "5"}, 2),
    ("train", {"arch": "mlp1", "hidden_dim": "0"}, 2),
    ("adapt", {"posterior": "{dir}/garbage.txt"}, 2),
    ("sweep", {"delta": "2"}, 2),
    ("sweep", {"eval_points": "0"}, 2),
    ("sweep", {"seeds": "0"}, 2),
    ("sweep", {"pipeline": "two_prior", "d_list": "3"}, 0),
    ("train", {"arch": "mlp1"}, 0),
    ("train", {"env": "permuted", "arch": "mlp1"}, 0),
    ("train", {"env": "permuted", "arch": "linear", "input_dim": "10"}, 2),
    ("train", {"env": "permuted", "arch": "linear"}, 2),
    ("train", {"input_dim": "2"}, 2),
    ("train", {"num_classes": "2"}, 2),
    ("train", {"loss": "logistic_clipped"}, 2),
    ("train", {"optimizer": "adam"}, 2),
    ("train", {"optimizer": "sgd"}, 2),
    ("train", {"learning_rate": "1e300"}, 3),
    ("train", {"kappa_rho": "1e300"}, 2),
    # exp(kappa_rho**2 / 2) overflows the expected task divergence
    ("train", {"kappa_rho": "40"}, 3),
    ("train", {"kappa_pi": "1e-300"}, 2),
    ("audit", {"learning_rate": "1e300", "epochs_stage2": "0"}, 3),
    ("audit", {"learning_rate": "1e300", "epochs_stage2": "0", "jobs": "2"}, 3),
    ("sweep", {"pipeline": "two_prior", "learning_rate": "1e300", "jobs": "2"}, 3),
    ("train", {"kappa_pi": "-1"}, 2),
    ("train", {"kappa_rho": "-1"}, 2),
    ("audit", {"kappa_pi": "-1"}, 2),
    ("sweep", {"pipeline": "two_prior", "kappa_pi": "-1"}, 2),
    ("sweep", {"out": "{dir}"}, 2),
    ("train", {"out": "{dir}/new/posterior.txt"}, 0),
    # an out below a file would fail at the write, after the work
    ("train", {"out": "{dir}/posterior.txt/sub/posterior.txt"}, 2, "out:"),
    ("sweep", {"out": "{dir}/posterior.txt/x.csv"}, 2, "out:"),
    ("adapt", {"out": "{dir}/garbage.txt/x.csv"}, 2, "out:"),
    ("audit", {"out": "{dir}/posterior.txt/x.csv"}, 2, "out:"),
    # a blobs dataset whose inputs overflow is rejected before the work
    ("train", {"env": "permuted", "arch": "mlp1", "blob_center_scale": "1e308"}, 2,
     "blob_center_scale"),
    ("train", {"env": "permuted", "arch": "mlp1", "blob_noise": "1e308"}, 2, "blob_noise"),
    # (two classes of two inputs, so that the linear d=2 posterior fits; at
    # blob_seed 2 a center overflows)
    ("adapt", {"env": "permuted", "blob_dim": "2", "blob_classes": "2", "blob_seed": "2",
               "blob_center_scale": "1e308"}, 2, "blob_center_scale"),
    ("adapt", {"env": "permuted", "blob_dim": "2", "blob_classes": "2", "blob_noise": "1e308"},
     2, "blob_noise"),
    ("audit", {"env": "permuted", "arch": "mlp1", "blob_center_scale": "1e308"}, 2,
     "blob_center_scale"),
    ("audit", {"env": "permuted", "arch": "mlp1", "blob_noise": "1e308"}, 2, "blob_noise"),
    ("adapt", {"kappa_pi": "5"}, 2),
    ("adapt", {"kappa_rho": "0.5"}, 2),
    ("adapt", {"epochs_stage1": "7"}, 2),
    ("adapt", {"epochs_stage2": "7"}, 2),
    ("sweep", {"kappa_pi": "5"}, 2),
    ("sweep", {"mc_eval": "3"}, 2),
    ("sweep", {"pipeline": "two_prior", "mc_eval": "3"}, 2),
    ("sweep", {"arch": "mlp1"}, 2),
    ("sweep", {"pipeline": "prior_mean", "epochs_stage1": "2"}, 2),
    ("bound", {"pairs": "0.5:1.0", "kl_hyper": "300"}, 2),
    ("bound", {"pairs": "0.5:1.0", "sum_task_kl": "900"}, 2),
    # inputs whose certificate terms are not finite, or whose counts
    # overflow a float, cannot be priced
    # an overflowing sum is named as the sum of the keys that were set
    ("bound", {"kl_hyper": "1e308", "sum_task_kl": "1e308"}, 2, "kl_hyper + sum_task_kl"),
    ("bound", {"kl_rho_pi": "1e308", "kl_hyper": "1e308"}, 2,
     "kl_rho_pi + mean(kl_hyper + sum_task_kl)"),
    ("bound", {"n": "1" + "0" * 400}, 2),
    ("bound", {"n": "1" + "0" * 200, "m": "1" + "0" * 200}, 2),
    ("bound", {"delta": "5e-324"}, 2),
    # a sweep prices its certificates only in the work
    ("sweep", {"delta": "5e-324"}, 3),
    # a key over its maximum is rejected at load, before numpy would refuse
    # the shape it sizes
    ("sweep", {"n_list": "1" + "0" * 20}, 2, "n_list"),
    ("sweep", {"eval_points": "1" + "0" * 20}, 2, "eval_points"),
    ("train", {"n": "1" + "0" * 20}, 2, "n: expected an integer <="),
]


def _shown(value: str) -> str:
    """A config value as a test id shows it: at most 40 characters."""
    value = value.format(dir="dir")
    return value if len(value) <= 40 else f"{value[:12]}...({len(value)} chars)"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, overrides, wanted, named",
                         [case + ("",) * (4 - len(case)) for case in BOUNDARY_CASES],
                         ids=[f"{c}-" + "-".join(f"{k}={_shown(v)}" for k, v in o.items())
                              for c, o, *_ in BOUNDARY_CASES])
def test_config_gives_its_documented_exit_code(tmp_path, command, overrides, wanted, named):
    """A case may add the text its message must hold, such as the key it
    names."""
    code, err = _run(command, overrides, tmp_path)
    assert code == wanted, err
    if wanted:
        assert err.startswith("config error:" if wanted == 2 else "numeric failure:"), err
    assert named in err, err
    assert "Traceback" not in err


# (command, key, maximum) of every integer key; seeds and the counts that
# bound prices size no work and have no maximum
INTEGER_KEYS = [(command, key, convert.maximum) for command, schema in SCHEMAS.items()
                for key, (convert, _) in schema.items() if hasattr(convert, "maximum")]


def test_every_work_sizing_integer_key_has_a_maximum():
    uncapped = sorted((command, key) for command, key, maximum in INTEGER_KEYS
                      if maximum is None)
    assert uncapped == sorted([("bound", "n"), ("bound", "m"), ("sweep", "seed")] + [
        (command, key) for command in ("train", "adapt", "audit") for key in ("seed", "blob_seed")])
    assert len(INTEGER_KEYS) - len(uncapped) > 30


@pytest.mark.parametrize("command, key, maximum",
                         [case for case in INTEGER_KEYS if case[2] is not None],
                         ids=lambda v: str(v))
def test_a_key_at_its_maximum_loads_and_one_past_it_is_named(tmp_path, command, key, maximum):
    """Through load_config alone: no config near a maximum is run."""
    path = _write(tmp_path, f"[{command}]\n")
    required = {k: 1 for k, (_, default) in SCHEMAS[command].items() if default is cli.REQUIRED}
    if command == "sweep":
        # the trained pipeline reads every sweep key
        required["pipeline"] = "two_prior"
    assert load_config(path, command, overrides={**required, key: maximum})
    with pytest.raises(ConfigError, match=rf"^{key}: expected an integer <= {maximum}, "):
        load_config(path, command, overrides={**required, key: maximum + 1})


def test_numeric_failure_is_one_stderr_line(tmp_path):
    """Overflow on the way to exit 3 prints no numpy warnings, even where no
    test harness filters them: stderr is the one documented line."""
    path = _write(tmp_path, f"""\
        [train]
        n = 3
        m = 5
        epochs_stage1 = 2
        epochs_stage2 = 2
        kappa_rho = 40
        out = {tmp_path / "posterior.txt"}
        """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "metabounds.cli", "train", "--config", path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 3, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure:"), done.stderr


def test_overrides_are_checked_like_file_values(tmp_path):
    path = _write(tmp_path, "[sweep]\n")
    with pytest.raises(ConfigError, match="jobs"):
        load_config(path, "sweep", overrides={"jobs": 0})


@pytest.mark.parametrize("command, flag, value", [
    ("bound", "--jobs", "0"),
    ("bound", "--seed", "-3"),
    ("train", "--jobs", "0"),
])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, flag, value):
    """bound reads no seed and no jobs, train no jobs: such a flag is
    rejected like an unknown one, before the config is read."""
    path = _write(tmp_path, "[bound]\nn = 10\nm = 5\n\n[train]\nn = 2\nm = 5\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", path, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"unrecognized arguments: {flag} {value}" in err


def test_each_command_takes_the_flags_of_its_keys():
    parser = cli._build_parser()
    for command, schema in SCHEMAS.items():
        for key in ("seed", "out", "jobs"):
            argv = [command, "--config", "c.ini", f"--{key}", "1"]
            if key in schema:
                assert getattr(parser.parse_args(argv), key) is not None
            else:
                with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
                    parser.parse_args(argv)
    for command in ("sweep", "audit"):
        assert parser.parse_args([command, "--config", "c.ini", "--jobs", "2"]).jobs == 2


def test_unreadable_posterior_is_a_config_error(tmp_path, monkeypatch):
    read_text = Path.read_text

    def refuse_posterior(self, *args, **kwargs):
        if self.name == "posterior.txt":
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse_posterior)
    code, err = _run("adapt", {}, tmp_path)
    assert code == 2
    assert err.startswith("config error: posterior artifact unreadable"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("kappa_rho, first_center", [
    ("nan", "0"), ("inf", "0"), ("0", "0"), ("-1", "0"), ("1e-3", "nan"),
])
def test_malformed_posterior_artifact_is_a_config_error(tmp_path, kappa_rho, first_center):
    """A linear d=2 artifact with a spread outside (0, inf) or a non-finite
    center entry is rejected at load."""
    (tmp_path / "malformed.txt").write_text(
        f"metaposterior 1 4 {kappa_rho}\n{first_center} 0 0 0\n0 0 0 0\n")
    code, err = _run("adapt", {"posterior": "{dir}/malformed.txt"}, tmp_path)
    assert code == 2, err
    assert err.startswith("config error:"), err
    assert "Traceback" not in err


# Draws per key: a list of small valid and boundary values, and a list of
# invalid ones (0, negative, non-numeric, unknown choice, extreme floats).
# An integer over every maximum; load rejects it, so no config runs with it.
_OVER_CAP = "1" + "0" * 20
_BAD_INT = ["-1", "x", "2.5"]
_SMALL_INT = (["0", "1", "2", "3"], _BAD_INT + [_OVER_CAP])
_EPOCHS = (["0", "1", "2"], ["-1", "x", _OVER_CAP])
# 1e308 overflows what it scales: a blobs dataset, or a certificate
_FLOAT = (["0.1", "0.5", "1e-3", "1", "2", "1e-300", "1e300", "1e308", "5e-324"],
          ["0", "-1", "-1e300", "nan", "inf", "x"])
_SEED = (["0", "1"], ["-1", "x"])
# A count whose certificate overflows a float.
_COUNT = (_SMALL_INT[0] + ["1" + "0" * 399], _BAD_INT)
_JOBS = (["1", "2"], ["-1", "0", _OVER_CAP])
# An output path: new directories are made; a directory, or a path below a
# file, is rejected.
_OUT = (["{dir}/out.csv", "{dir}/new/out.csv"], ["{dir}", "{dir}/garbage.txt/out.csv"])


def _choices(*valid):
    return list(valid), ["bogus"]


_TRAIN_DRAWS = {
    "arch": _choices("linear", "mlp1"),
    "hidden_dim": _SMALL_INT,
    "clip_max": _FLOAT,
    "epochs_stage1": _EPOCHS,
    "epochs_stage2": _EPOCHS,
    "learning_rate": _FLOAT,
    "batch_size": _SMALL_INT,
    "delta": _FLOAT,
    "kappa_pi": _FLOAT,
    "kappa_rho": _FLOAT,
    "mc_train": _SMALL_INT,
}
_ENV_DRAWS = {
    "env": (["linear", "permuted"], ["blobs"]),
    "d": _SMALL_INT,
    "blob_points": (["1", "2", "8"], ["0", "x", _OVER_CAP]),
    "blob_dim": _SMALL_INT,
    "blob_classes": _SMALL_INT,
    "blob_center_scale": _FLOAT,
    "blob_noise": _FLOAT,
    "blob_seed": _SEED,
    "permute_mode": _choices("permute_labels", "shuffle_features"),
    "num_shuffled": _SMALL_INT,
}
_TWO_PRIOR_ONLY = frozenset(_TRAIN_DRAWS) - {"delta"}
_DRAWS = {
    "sweep": {
        **_TRAIN_DRAWS,
        "pipeline": _choices("prior_mean", "two_prior"),
        "n_list": (["1", "2, 3"], ["0", "", "x", f"2, {_OVER_CAP}"]),
        "m_list": (["1", "3"], ["0", "x", _OVER_CAP]),
        "d_list": (["1", "2, 3"], ["0", "x", _OVER_CAP]),
        "seeds": (["1", "2"], ["0", "-1", _OVER_CAP]),
        "eval_tasks": _SMALL_INT,
        "eval_points": _SMALL_INT,
        "seed": _SEED,
        "jobs": _JOBS,
        "out": _OUT,
    },
    "train": {**_TRAIN_DRAWS, **_ENV_DRAWS, "n": _SMALL_INT, "m": _SMALL_INT,
              "seed": _SEED, "out": _OUT},
    "adapt": {**{k: v for k, v in _TRAIN_DRAWS.items() if k in SCHEMAS["adapt"]},
              **_ENV_DRAWS,
              "posterior": (["{dir}/posterior.txt"],
                            ["{dir}/garbage.txt", "{dir}/absent.txt", "{dir}"]),
              "num_tasks": _SMALL_INT, "m": _SMALL_INT, "adapt_epochs": _EPOCHS,
              "eval_points": _SMALL_INT, "mc_eval": _SMALL_INT, "seed": _SEED, "out": _OUT},
    "audit": {**_TRAIN_DRAWS, **_ENV_DRAWS, "n": _SMALL_INT, "m": _SMALL_INT,
              "trials": (["50"], ["49", _OVER_CAP]), "eval_tasks": (["20"], ["19", _OVER_CAP]),
              "eval_points": _SMALL_INT, "mc_eval": _SMALL_INT, "seed": _SEED,
              "jobs": _JOBS, "out": _OUT},
    "bound": {"empirical_risk": _FLOAT, "kl_rho_pi": _FLOAT, "kl_hyper": _FLOAT,
              "sum_task_kl": _FLOAT, "pairs": (["0.5:1.0 ; 0:3", "0:1e300"], ["1:x", ":"]),
              "n": _COUNT, "m": _COUNT, "delta": _FLOAT},
}


@st.composite
def _configs(draw):
    """A command and up to five keys over its cheap settings. Half of the
    configs draw valid values only, so that many reach the work itself."""
    command = draw(st.sampled_from(sorted(_DRAWS)))
    table = _DRAWS[command]
    allow_invalid = draw(st.booleans())
    keys = draw(st.lists(st.sampled_from(sorted(table)), max_size=5, unique=True))
    overrides = {}
    for key in keys:
        valid, invalid = table[key]
        overrides[key] = draw(st.sampled_from(valid + invalid if allow_invalid else valid))
    if command == "sweep" and not allow_invalid and overrides.get("pipeline") != "two_prior":
        # a closed-form sweep rejects the keys only the trained pipeline reads
        overrides = {k: v for k, v in overrides.items() if k not in _TWO_PRIOR_ONLY}
    if allow_invalid and draw(st.integers(0, 9)) == 0:
        overrides["no_such_key"] = "1"
    return command, overrides


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_configs())
def test_every_config_exits_0_2_or_3(case):
    command, overrides = case
    with tempfile.TemporaryDirectory() as workdir:
        code, err = _run(command, overrides, workdir)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
