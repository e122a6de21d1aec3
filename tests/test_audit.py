"""Tests for the bound-validity auditor and the quadrature oracle of
tests/oracles.py."""

import math
from dataclasses import replace

import numpy as np
import pytest

from metabounds import audit
from metabounds.audit import (
    AuditRecord,
    AuditReport,
    audit_bound_validity,
)
from metabounds.env import LinearEnvSpec, sample_tasks, true_risk_mc
from metabounds.gauss import kl_diag_gaussian
from metabounds.metalearn import TrainConfig, adapt_many
from metabounds.model import LossSpec, ModelArchitecture
from metabounds.pipelines import fit_two_prior_system, trained_bound_breakdown
from metabounds.rng import stream

from oracles import gaussian_row, quadrature_kl_1d


def _g(mean, var):
    return gaussian_row([mean], [math.log(var)])


class TestQuadratureOracle:
    def test_identical_gaussians_integrate_to_zero(self):
        q = _g(0.7, 2.0)
        assert abs(quadrature_kl_1d(q, q)) < 1e-10

    def test_unit_shift_gives_half(self):
        assert quadrature_kl_1d(_g(1.0, 1.0), _g(0.0, 1.0)) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_refining_the_grid_reduces_error(self):
        q, p = _g(0.3, 1.7), _g(-0.5, 0.4)
        exact = kl_diag_gaussian(q, p)
        coarse = abs(quadrature_kl_1d(q, p, grid=2_000) - exact)
        fine = abs(quadrature_kl_1d(q, p, grid=4_000) - exact)
        assert fine < coarse

    def test_agrees_with_closed_form_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = _g(rng.normal(0, 2), rng.uniform(0.2, 4.0))
            p = _g(rng.normal(0, 2), rng.uniform(0.2, 4.0))
            assert abs(quadrature_kl_1d(q, p) - kl_diag_gaussian(q, p)) < 1e-6

    def test_rejects_multivariate_input(self):
        q = gaussian_row(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="1-d"):
            quadrature_kl_1d(q, q)


class TestAuditReport:
    def _record(self, i):
        return AuditRecord(i, i, 1.0, 0.2, 0.01, 0.8, False)

    def test_rejects_more_violations_than_trials(self):
        with pytest.raises(ValueError, match="exceed"):
            AuditReport(1, 2, 0.1, (self._record(0),))

    def test_rejects_record_count_mismatch(self):
        with pytest.raises(ValueError, match="per trial"):
            AuditReport(2, 0, 0.1, (self._record(0),))

    def test_vacuity_counts_bounds_of_at_least_one(self):
        records = tuple(AuditRecord(i, i, bound, 0.2, 0.01, bound - 0.2, False)
                        for i, bound in enumerate((0.5, 0.999, 1.0, 3.6)))
        report = AuditReport(4, 0, 0.1, records)
        assert report.vacuous_trials == 2
        # linear-interpolated percentiles of the margins 0.3, 0.799, 0.8, 3.4
        assert report.margin_quartiles == pytest.approx((0.67425, 0.7995, 1.45))


def _light_cfg():
    return TrainConfig(arch=ModelArchitecture("linear", input_dim=2),
                       loss=LossSpec("logistic_clipped"),
                       epochs_stage1=2, epochs_stage2=2, seed=0)


class TestAuditor:
    def test_small_run_has_no_violations_and_sane_records(self):
        report = audit_bound_validity(
            LinearEnvSpec(d=2), 3, 5, _light_cfg(), 50,
            np.random.default_rng(1), eval_points=50, mc_eval=20,
        )
        assert report.trials == 50
        assert report.violations == 0
        for rec in report.records:
            assert rec.margin == rec.bound - rec.true_risk_est
            assert 0.0 <= rec.true_risk_est <= 1.0
            assert math.isfinite(rec.bound)

    def test_identical_seeds_give_identical_reports(self):
        kwargs = dict(eval_points=50, mc_eval=20)
        a = audit_bound_validity(LinearEnvSpec(d=2), 2, 5, _light_cfg(), 50,
                                 np.random.default_rng(2), **kwargs)
        b = audit_bound_validity(LinearEnvSpec(d=2), 2, 5, _light_cfg(), 50,
                                 np.random.default_rng(2), **kwargs)
        assert a == b

    def test_parallel_run_matches_serial(self):
        kwargs = dict(eval_points=50, mc_eval=20)
        serial = audit_bound_validity(LinearEnvSpec(d=2), 2, 5, _light_cfg(), 50,
                                      np.random.default_rng(3), **kwargs)
        parallel = audit_bound_validity(LinearEnvSpec(d=2), 2, 5, _light_cfg(), 50,
                                        np.random.default_rng(3), jobs=2, **kwargs)
        assert serial == parallel

    def test_rejects_too_few_trials(self):
        with pytest.raises(ValueError, match="at least 50"):
            audit_bound_validity(LinearEnvSpec(d=2), 2, 5, _light_cfg(), 10,
                                 np.random.default_rng(0))


def _two_pass_trial(env_spec, n, m, cfg, index, seed, eval_tasks, eval_points, mc_eval):
    """An audit trial as two adaptation passes and one oracle call per
    held-out task: the reference the one-pass trial must equal."""
    trial_cfg = replace(cfg, seed=seed)
    tasks = sample_tasks(env_spec, n, m, stream(seed, "audit-tasks"))
    system = fit_two_prior_system(tasks, trial_cfg)
    bound = trained_bound_breakdown(system, tasks, trial_cfg).bound_thm2
    eval_rng = stream(seed, "audit-eval")
    fresh = sample_tasks(env_spec, eval_tasks, m, eval_rng)
    adapted = adapt_many(system.rho, fresh, trial_cfg, adapt_epochs=cfg.epochs_stage2,
                         rngs=[stream(seed, "audit-adapt", i) for i in range(len(fresh))])
    risks = [true_risk_mc(task, model, cfg.loss, eval_points, eval_rng, mc_samples=mc_eval)[0]
             for task, (model, _) in zip(fresh, adapted)]
    est = float(np.mean(risks))
    se = float(np.std(risks, ddof=1) / math.sqrt(len(risks)))
    return AuditRecord(index, seed, bound, est, se, bound - est, bool(est > bound + 3.0 * se))


class TestOneTrial:
    @pytest.mark.parametrize("d", [2, 5])
    def test_equals_two_adaptation_passes_and_per_task_oracle_calls(self, d):
        """The criterion-5 trial at each seed gives the record, by ==, that
        it gave with the held-out tasks adapted in a pass of their own and
        scored one oracle call at a time."""
        cfg = TrainConfig(arch=ModelArchitecture("linear", input_dim=d),
                          loss=LossSpec("logistic_clipped"),
                          epochs_stage1=20, epochs_stage2=20, seed=0)
        spec = LinearEnvSpec(d=d)
        for k, seed in enumerate((3, 31, 314)):
            args = (spec, 5, 5, cfg, k, seed, 20, 200, 200)
            assert audit._audit_trial(*args) == _two_pass_trial(*args)


def test_negative_control_flags_the_empirical_risk_alone(monkeypatch):
    """An audit that cannot fail is no check: with the certificate cut down
    to the empirical multitask risk, no slack at all, the criterion-5
    pipeline must show more violations than delta allows."""
    real = audit.trained_bound_breakdown

    def risk_only(system, tasks, cfg):
        full = real(system, tasks, cfg)
        return replace(full, bound_thm2=full.empirical_multitask_risk)

    monkeypatch.setattr(audit, "trained_bound_breakdown", risk_only)
    cfg = TrainConfig(arch=ModelArchitecture("linear", input_dim=2),
                      loss=LossSpec("logistic_clipped"),
                      epochs_stage1=20, epochs_stage2=20, seed=0)
    trials = 100
    report = audit_bound_validity(LinearEnvSpec(d=2), 5, 5, cfg, trials,
                                  stream(12, "negative-control-audit"))
    assert report.violations > cfg.delta * trials
