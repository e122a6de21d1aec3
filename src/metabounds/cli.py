"""Batch command-line front end.

Subcommands: ``sweep`` evaluates bound curves over task counts, ``train``
fits and saves a meta-posterior, ``adapt`` prices fresh tasks with a saved
posterior, ``audit`` runs the bound-validity harness, and ``bound`` is a
calculator over explicitly supplied term values.

Configuration is a plain ``key = value`` file with one section per
subcommand.  Every key is schema-checked and unknown keys are rejected, so a
typo fails loudly instead of silently using a default.  The model's input
size, class count and loss are not keys: they follow from the env and the
architecture.  Every check runs before any work starts, so a bad config
exits with code 2, and a numeric failure during the work with code 3.

All outputs are written atomically (temp file + rename) and carry
'#'-prefixed metadata lines with a format version, the config hash, and the
seed.  Data rows are byte-deterministic given config and seed; only the
trailing timing metadata varies between runs.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .audit import MIN_EVAL_TASKS, MIN_TRIALS, AuditRecord, audit_bound_validity
from .bounds import MetaBoundInput, theorem1_bound, theorem2_bound
from .env import BlobsSpec, LinearEnvSpec, PermutedEnvSpec, sample_tasks, true_risks_mc
from .metalearn import (
    TrainConfig,
    TrainingDiverged,
    adapt_many,
    adaptation_certificate,
    load_meta_posterior,
    save_meta_posterior,
    train_meta,
)
from .model import LossSpec, ModelArchitecture
from .pipelines import PipelinePoint, prior_mean_point, rule_test_loss, two_prior_point
from .rng import spawn_seed, stream

CSV_VERSION = "1"

RESULT_COLUMNS = [f.name for f in fields(PipelinePoint)]

AUDIT_COLUMNS = [f.name for f in fields(AuditRecord)]

ADAPT_COLUMNS = ["task_index", "seed", "train_risk", "bound", "test_error"]

TRACE_COLUMNS = ["epoch", "stage", "objective"]


class ConfigError(Exception):
    """Raised for any malformed, unknown, or missing configuration value."""


# ---------------------------------------------------------------------------
# Config schema


def _int(minimum: int):
    def convert(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"expected an integer, got {raw!r}") from exc
        if value < minimum:
            raise ConfigError(f"expected an integer >= {minimum}, got {value}")
        return value

    return convert


def _to_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _fraction(raw: str) -> float:
    value = _to_float(raw)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"expected a number in (0, 1), got {raw!r}")
    return value


def _int_list(minimum: int):
    convert = _int(minimum)

    def convert_list(raw: str) -> tuple[int, ...]:
        parts = [p for chunk in raw.split(",") for p in chunk.split()]
        if not parts:
            raise ConfigError("expected a nonempty list of integers")
        return tuple(convert(p) for p in parts)

    return convert_list


def _to_str(raw: str) -> str:
    return raw.strip()


def _choice(*options: str):
    def convert(raw: str) -> str:
        value = raw.strip()
        if value not in options:
            raise ConfigError(f"expected one of {options}, got {value!r}")
        return value

    return convert


def _pairs(raw: str) -> tuple[tuple[float, float], ...]:
    """Parse 'kl_hyper:sum_kl;kl_hyper:sum_kl' into complexity pairs."""
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        halves = chunk.split(":")
        if len(halves) != 2:
            raise ConfigError(f"expected kl_hyper:sum_task_kl, got {chunk!r}")
        out.append((_to_float(halves[0]), _to_float(halves[1])))
    if not out:
        raise ConfigError("expected at least one complexity pair")
    return tuple(out)


REQUIRED = object()


def _defaults(cls) -> dict:
    """The field defaults of a dataclass, by field name."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


_TRAIN = _defaults(TrainConfig)
_BLOBS = _defaults(BlobsSpec)
_PERMUTED = _defaults(PermutedEnvSpec)

# Keys shared by every command that builds a TrainConfig. The model's input
# size and class count follow from the env, its loss from the architecture.
# A key that sets a dataclass field takes its default from the field.
_TRAIN_KEYS = {
    "arch": (_choice("linear", "mlp1"), "linear"),
    "hidden_dim": (_int(1), 16),
    "clip_max": (_to_float, _defaults(LossSpec)["clip_max"]),
    "epochs_stage1": (_int(0), _TRAIN["epochs_stage1"]),
    "epochs_stage2": (_int(0), _TRAIN["epochs_stage2"]),
    "learning_rate": (_to_float, _TRAIN["learning_rate"]),
    "batch_size": (_int(1), _TRAIN["batch_size"]),
    "delta": (_fraction, _TRAIN["delta"]),
    "kappa_pi": (_to_float, _TRAIN["kappa_pi"]),
    "kappa_rho": (_to_float, _TRAIN["kappa_rho"]),
    "mc_train": (_int(1), _TRAIN["mc_train"]),
}

# Keys selecting and shaping the task environment.
_ENV_KEYS = {
    "env": (_choice("linear", "permuted"), "linear"),
    "d": (_int(1), 2),
    "blob_points": (_int(1), _BLOBS["num_points"]),
    "blob_dim": (_int(1), _BLOBS["dim"]),
    "blob_classes": (_int(2), _BLOBS["num_classes"]),
    "blob_center_scale": (_to_float, _BLOBS["center_scale"]),
    "blob_noise": (_to_float, _BLOBS["noise"]),
    "blob_seed": (_int(0), _BLOBS["seed"]),
    "permute_mode": (_choice("permute_labels", "shuffle_features"), _PERMUTED["mode"]),
    "num_shuffled": (_int(1), _PERMUTED["num_shuffled"]),
}

SCHEMAS: dict[str, dict] = {
    "sweep": {
        **_TRAIN_KEYS,
        "pipeline": (_choice("prior_mean", "two_prior"), "prior_mean"),
        "n_list": (_int_list(1), (2, 5, 10, 20, 50)),
        "m_list": (_int_list(1), (5,)),
        "d_list": (_int_list(1), (2,)),
        "seeds": (_int(1), 5),
        "eval_tasks": (_int(1), 20),
        "eval_points": (_int(1), 400),
        "mc_eval": (_int(1), 200),
        "seed": (_int(0), 0),
        "jobs": (_int(1), 1),
        "out": (_to_str, "sweep.csv"),
    },
    "train": {
        **_TRAIN_KEYS,
        **_ENV_KEYS,
        "n": (_int(1), REQUIRED),
        "m": (_int(1), REQUIRED),
        "seed": (_int(0), 0),
        "out": (_to_str, "posterior.txt"),
    },
    "adapt": {
        # adaptation samples with the artifact's kappa_rho and runs
        # adapt_epochs, so the meta-training keys do not apply
        **{key: spec for key, spec in _TRAIN_KEYS.items()
           if key not in ("kappa_pi", "kappa_rho", "epochs_stage1", "epochs_stage2")},
        **_ENV_KEYS,
        "posterior": (_to_str, REQUIRED),
        "num_tasks": (_int(1), 20),
        "m": (_int(1), REQUIRED),
        "adapt_epochs": (_int(0), 100),
        "eval_points": (_int(1), 200),
        "mc_eval": (_int(1), 200),
        "seed": (_int(0), 0),
        "out": (_to_str, "adapt.csv"),
    },
    "audit": {
        **_TRAIN_KEYS,
        **_ENV_KEYS,
        "n": (_int(1), 5),
        "m": (_int(1), 5),
        "trials": (_int(MIN_TRIALS), 200),
        "eval_tasks": (_int(MIN_EVAL_TASKS), 20),
        "eval_points": (_int(1), 200),
        "mc_eval": (_int(1), 200),
        "seed": (_int(0), 0),
        "jobs": (_int(1), 1),
        "out": (_to_str, "audit.csv"),
    },
    "bound": {
        "empirical_risk": (_to_float, 0.0),
        "kl_rho_pi": (_to_float, 0.0),
        # one pair, or several through ``pairs``; unset keys of the pair are 0
        "kl_hyper": (_to_float, None),
        "sum_task_kl": (_to_float, None),
        "pairs": (_pairs, None),
        "n": (_int(1), REQUIRED),
        "m": (_int(1), REQUIRED),
        "delta": (_fraction, 0.1),
    },
}

# Sweep keys that only the trained pipeline reads; a closed-form sweep
# rejects them like unknown keys.
_TWO_PRIOR_KEYS = frozenset(_TRAIN_KEYS) - {"delta"} | {"mc_eval"}


def _schema(command: str, raw_values: dict) -> dict:
    """The keys a section accepts, given its raw values."""
    schema = SCHEMAS[command]
    if command == "sweep" and raw_values.get("pipeline", "").strip() != "two_prior":
        return {key: spec for key, spec in schema.items() if key not in _TWO_PRIOR_KEYS}
    return schema


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings for one subcommand, plus their provenance hash."""

    command: str
    values: dict

    @property
    def config_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.command.encode())
        for key in sorted(self.values):
            h.update(f"|{key}={self.values[key]!r}".encode())
        return h.hexdigest()[:16]


def load_config(path: str | Path, command: str,
                overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate the config file for one subcommand.

    overrides (from command-line flags) replace file values after parsing
    but before required-key checking, so --seed works with or without a
    seed line in the file; they are checked like file values.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in SCHEMAS:
            raise ConfigError(f"unknown section [{section}]")
    raw_values = dict(parser.items(command)) if parser.has_section(command) else {}
    schema = _schema(command, raw_values)
    for key in raw_values:
        if key not in schema:
            hint = " (read only with pipeline = two_prior)" if key in SCHEMAS[command] else ""
            raise ConfigError(f"unknown key {key!r} in section [{command}]{hint}")
    raw_values.update((key, str(value)) for key, value in (overrides or {}).items()
                      if key in schema)
    values = {key: default for key, (_, default) in schema.items()}
    for key, raw in raw_values.items():
        try:
            values[key] = schema[key][0](raw)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    missing = [k for k, v in values.items() if v is REQUIRED]
    if missing:
        raise ConfigError(
            f"missing required key(s) in [{command}]: {', '.join(sorted(missing))}"
        )
    if "out" in values and Path(values["out"]).is_dir():
        raise ConfigError(f"out: {values['out']} is a directory")
    return ExperimentConfig(command, values)


_TRAINING_LOSS = {"linear": "logistic_clipped", "mlp1": "cross_entropy_clipped"}


def _train_config(values: dict, spec) -> TrainConfig:
    """Training settings for tasks of ``spec``: the model's input size and
    class count are the env's, its loss the one its architecture trains.
    Every other field is set from the key of its name; a command without
    the key leaves the field at its default."""
    if isinstance(spec, LinearEnvSpec):
        input_dim, num_classes = spec.d, 2
    else:
        input_dim, num_classes = spec.base.dim, spec.base.num_classes
    kind = values["arch"]
    arch = ModelArchitecture(kind, input_dim=input_dim, num_classes=num_classes,
                             hidden_dim=values["hidden_dim"] if kind == "mlp1" else None)
    loss = LossSpec(_TRAINING_LOSS[kind], clip_max=values["clip_max"])
    return TrainConfig(arch=arch, loss=loss,
                       **{key: values[key] for key in _TRAIN if key in values})


def _env_spec(values: dict):
    if values["env"] == "linear":
        return LinearEnvSpec(d=values["d"])
    base = BlobsSpec(num_points=values["blob_points"], dim=values["blob_dim"],
                     num_classes=values["blob_classes"],
                     center_scale=values["blob_center_scale"],
                     noise=values["blob_noise"], seed=values["blob_seed"])
    return PermutedEnvSpec(base=base, mode=values["permute_mode"],
                           num_shuffled=values["num_shuffled"])


# ---------------------------------------------------------------------------
# CSV output


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        # plain-float repr is the shortest round-trip form; the cast also
        # strips numpy's type-annotated repr
        return repr(float(value))
    return str(value)


def write_csv(path: str | Path, columns: list[str], rows: list[tuple],
              config_hash: str, seed: int,
              trailers: list[str] | None = None) -> None:
    """Atomically write a result CSV with metadata comment lines.

    Every non-comment line depends on config and seed alone; timing lives
    only in '#'-prefixed trailers (wall-time, write timestamp), so repeated
    runs agree byte for byte outside the comments.
    """
    path = Path(path)
    lines = [
        f"# metabounds-csv {CSV_VERSION}",
        f"# columns {','.join(columns)}",
        f"# config-hash {config_hash}",
        f"# seed {seed}",
        ",".join(columns),
    ]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row shape does not match the column schema")
        lines.append(",".join(_fmt(v) for v in row))
    lines.extend(trailers or [])
    lines.append(f"# written {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    payload = "\n".join(lines) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Subcommands
#
# Each command checks its config and builds every library object it needs,
# then returns the work itself as a function of no arguments.  A ValueError
# from the first part is a config error; the second part only raises
# TrainingDiverged, for a numeric failure.


def _sweep_unit(args):
    """Price the rows of one (seed, d, m) group for the task counts ``ns``,
    all from one task pool; returns the points and the seconds they took."""
    values, train_cfg, ns, m, d, seed = args  # train_cfg is None for prior_mean
    start = time.perf_counter()
    spec = LinearEnvSpec(d=d)
    pool = sample_tasks(spec, max(values["n_list"]), m, stream(seed, "tasks", d, m))
    if values["pipeline"] == "prior_mean":
        test_loss = rule_test_loss(spec, m, seed, eval_tasks=values["eval_tasks"],
                                   eval_points=values["eval_points"])
        points = [prior_mean_point(spec, pool[:n], seed, values["delta"],
                                   meta_test_loss=test_loss)
                  for n in ns]
    else:
        points = [two_prior_point(spec, pool[:n], seed, replace(train_cfg, seed=seed),
                                  eval_tasks=values["eval_tasks"],
                                  eval_points=values["eval_points"],
                                  mc_eval=values["mc_eval"])
                  for n in ns]
    return points, time.perf_counter() - start


def cmd_sweep(cfg: ExperimentConfig):
    values = cfg.values
    root = values["seed"]
    # A closed-form group shares its pool and held-out loss across n_list, so
    # it is one unit of work; a trained point is costly enough to be its own,
    # so that --jobs spreads a group's points over the workers.
    if values["pipeline"] == "prior_mean":
        train_cfgs = {}
        unit_ns = [values["n_list"]]
    else:
        train_cfgs = {d: _train_config(values, LinearEnvSpec(d=d)) for d in values["d_list"]}
        unit_ns = [(n,) for n in values["n_list"]]
    units = [
        (values, train_cfgs.get(d), ns, m, d, spawn_seed(root, "sweep", s, d, m))
        for s in range(values["seeds"])
        for d in values["d_list"]
        for m in values["m_list"]
        for ns in unit_ns
    ]

    def run() -> int:
        if values["jobs"] > 1:
            with ProcessPoolExecutor(max_workers=values["jobs"]) as pool:
                priced = list(pool.map(_sweep_unit, units))
        else:
            priced = [_sweep_unit(u) for u in units]
        rows = [astuple(point) for points, _ in priced for point in points]
        total = sum(seconds for _, seconds in priced)
        write_csv(values["out"], RESULT_COLUMNS, rows, cfg.config_hash, root,
                  trailers=[f"# wall_time {total:.3f}"])
        print(f"wrote {len(rows)} rows to {values['out']}")
        return 0

    return run


def cmd_train(cfg: ExperimentConfig):
    values = cfg.values
    seed = values["seed"]
    spec = _env_spec(values)
    train_cfg = _train_config(values, spec)

    def run() -> int:
        tasks = sample_tasks(spec, values["n"], values["m"], stream(seed, "tasks"))
        rho, trace = train_meta(tasks, train_cfg)
        out = Path(values["out"])
        save_meta_posterior(rho, out)
        trace_rows = [
            (i, 1 if i < trace.stage_boundary else 2, obj)
            for i, obj in enumerate(trace.objectives)
        ]
        write_csv(out.with_suffix(out.suffix + ".trace.csv"), TRACE_COLUMNS,
                  trace_rows, cfg.config_hash, seed)
        print(f"wrote posterior to {out} ({len(trace.objectives)} epochs)")
        return 0

    return run


def cmd_adapt(cfg: ExperimentConfig):
    values = cfg.values
    seed = values["seed"]
    spec = _env_spec(values)
    train_cfg = _train_config(values, spec)
    posterior_path = Path(values["posterior"])
    if not posterior_path.is_file():
        raise ConfigError(f"posterior artifact not found: {posterior_path}")
    try:
        rho = load_meta_posterior(posterior_path)
    except OSError as exc:
        raise ConfigError(f"posterior artifact unreadable: {exc}") from exc
    expected = 2 * train_cfg.arch.param_count
    if rho.theta0.size != expected:
        raise ConfigError(
            f"posterior dimension {rho.theta0.size} does not match the configured "
            f"architecture (expected {expected})"
        )

    def run() -> int:
        tasks = sample_tasks(spec, values["num_tasks"], values["m"],
                             stream(seed, "adapt-tasks"))
        rngs = [stream(seed, "adapt", i) for i in range(len(tasks))]
        adapted = adapt_many(rho, tasks, train_cfg, adapt_epochs=values["adapt_epochs"],
                             rngs=rngs)
        certificates = [adaptation_certificate(model, prior, task, train_cfg,
                                               mc_eval=values["mc_eval"], rng=rng)
                        for task, rng, (model, prior) in zip(tasks, rngs, adapted)]
        oracle = true_risks_mc(tasks, [model for model, _ in adapted], LossSpec("zero_one"),
                               values["eval_points"],
                               [stream(seed, "adapt-eval", i) for i in range(len(tasks))],
                               mc_samples=values["mc_eval"])
        rows = [(i, seed, train_risk, bound, test_error)
                for i, ((train_risk, bound), (test_error, _))
                in enumerate(zip(certificates, oracle))]
        errors = [r[4] for r in rows]
        bounds_col = [r[3] for r in rows]
        trailers = [
            f"# summary test_error mean={_fmt(float(np.mean(errors)))}"
            f" std={_fmt(float(np.std(errors)))}",
            f"# summary bound mean={_fmt(float(np.mean(bounds_col)))}"
            f" std={_fmt(float(np.std(bounds_col)))}",
        ]
        write_csv(values["out"], ADAPT_COLUMNS, rows, cfg.config_hash, seed,
                  trailers=trailers)
        print(f"wrote {len(rows)} adapted tasks to {values['out']}")
        return 0

    return run


def cmd_audit(cfg: ExperimentConfig):
    values = cfg.values
    seed = values["seed"]
    spec = _env_spec(values)
    train_cfg = _train_config(values, spec)

    def run() -> int:
        report = audit_bound_validity(
            spec, values["n"], values["m"], train_cfg, values["trials"],
            stream(seed, "audit-root"), eval_tasks=values["eval_tasks"],
            eval_points=values["eval_points"], mc_eval=values["mc_eval"],
            jobs=values["jobs"],
        )
        trailers = [
            f"# violations {report.violations}/{report.trials} delta={report.delta!r}",
            f"# vacuous {report.vacuous_trials}/{report.trials}",
            "# margin q25={} q50={} q75={}".format(*map(_fmt, report.margin_quartiles)),
        ]
        write_csv(values["out"], AUDIT_COLUMNS, [astuple(r) for r in report.records],
                  cfg.config_hash, seed, trailers=trailers)
        print(f"audit: {report.violations}/{report.trials} violations "
              f"(delta={report.delta})")
        return 0

    return run


def cmd_bound(cfg: ExperimentConfig):
    values = cfg.values
    pairs = values["pairs"]
    pair = (values["kl_hyper"], values["sum_task_kl"])
    if pairs is None:
        pairs = (tuple(0.0 if v is None else v for v in pair),)
    elif pair != (None, None):
        raise ConfigError("pairs excludes kl_hyper and sum_task_kl; give one form")
    inp = MetaBoundInput(
        empirical_multitask_risk=values["empirical_risk"],
        kl_rho_pi=values["kl_rho_pi"],
        per_algorithm_complexity=pairs,
        n=values["n"],
        m=values["m"],
        delta=values["delta"],
    )

    def run() -> int:
        print(f"theorem1 {theorem1_bound(inp):.12g}")
        print(f"theorem2 {theorem2_bound(inp):.12g}")
        return 0

    return run


COMMANDS = {
    "sweep": cmd_sweep,
    "train": cmd_train,
    "adapt": cmd_adapt,
    "audit": cmd_audit,
    "bound": cmd_bound,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metabounds",
        description="PAC-Bayesian meta-learning bounds: sweeps, training, auditing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--seed", type=int, default=None,
                       help="root seed, overriding the config file")
        p.add_argument("--out", default=None,
                       help="output path, overriding the config file")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for parallel sections")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in ("seed", "out", "jobs")
                 if getattr(args, key) is not None}
    # the finiteness checks turn every overflow into exit 3, so numpy's own
    # warnings would only put lines before the documented one; forked
    # workers inherit this state
    with np.errstate(all="ignore"):
        try:
            run = COMMANDS[args.command](load_config(args.config, args.command, overrides))
        except (ConfigError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            return run()
        except TrainingDiverged as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
