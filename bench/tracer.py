"""Per-layer tracing for the benchmark's traced runs.

The tracer replaces functions of ``metabounds`` at the module attribute each
caller looks up (``audit.adapt`` and ``pipelines.adapt`` both lead to
``metalearn.adapt``), times every call, and restores the originals when the
traced run ends, so untraced runs call unmodified code. Nothing under
``src/`` is edited.

Spans are aggregated as they close rather than kept individually: each span
name accumulates its call count, inclusive time and self time (inclusive
time minus the time of traced calls made inside it). Bookkeeping done after
a call, such as counting tape nodes, is charged to no span.

Node counts read the tape that ``diff.backward`` sweeps: ``out.idx + 1``
nodes, of which the leaves are those without a ``vjp``.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module of metabounds, attribute its caller looks up, span name). A
# target missing from the module is skipped, so its metrics read 0.
TARGETS = (
    ("diff", "backward", "diff.backward"),
    ("metalearn", "train_meta", "metalearn.train_meta"),
    ("pipelines", "train_meta", "metalearn.train_meta"),
    ("metalearn", "adapt", "metalearn.adapt"),
    ("audit", "adapt", "metalearn.adapt"),
    ("pipelines", "adapt", "metalearn.adapt"),
    ("metalearn", "taped_mc_risk", "model.taped_mc_risk"),
    ("model", "mc_empirical_risk", "model.mc_empirical_risk"),
    ("metalearn", "mc_empirical_risk", "model.mc_empirical_risk"),
    ("pipelines", "mc_empirical_risk", "model.mc_empirical_risk"),
    ("env", "true_risk_mc", "env.true_risk_mc"),
    ("audit", "true_risk_mc", "env.true_risk_mc"),
    ("pipelines", "true_risk_mc", "env.true_risk_mc"),
    ("env", "sample_tasks", "env.sample_tasks"),
    ("audit", "sample_tasks", "env.sample_tasks"),
    ("pipelines", "sample_tasks", "env.sample_tasks"),
    ("cli", "sample_tasks", "env.sample_tasks"),
    ("audit", "fit_two_prior_system", "pipelines.fit_two_prior_system"),
    ("pipelines", "fit_two_prior_system", "pipelines.fit_two_prior_system"),
    ("audit", "trained_bound_breakdown", "pipelines.trained_bound_breakdown"),
    ("pipelines", "trained_bound_breakdown", "pipelines.trained_bound_breakdown"),
    ("cli", "prior_mean_point", "pipelines.prior_mean_point"),
    ("pipelines", "gaussian_sign_risk", "pipelines.gaussian_sign_risk"),
    ("pipelines", "kl_diag_gaussian", "gauss.kl_diag_gaussian"),
    ("metalearn", "kl_diag_gaussian", "gauss.kl_diag_gaussian"),
    ("pipelines", "expected_kl_under_gaussian_mean",
     "gauss.expected_kl_under_gaussian_mean"),
    ("pipelines", "theorem2_bound", "bounds.theorem2_bound"),
    ("cli", "theorem2_bound", "bounds.theorem2_bound"),
    ("audit", "kl_decomposition_check", "bounds.kl_decomposition_check"),
    ("audit", "_audit_trial", "audit.trial"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "write_csv", "cli.write_csv"),
)

# Spans whose backward passes count as one optimizer step each.
STEP_SPANS = frozenset({"metalearn.train_meta", "metalearn.adapt"})

# Per-item fields reported for each span, as in the per-layer metric names.
SPAN_FIELDS = (
    ("diff.backward", ("calls", "self_s")),
    ("metalearn.train_meta", ("calls", "incl_s", "self_s")),
    ("metalearn.adapt", ("calls", "incl_s", "self_s")),
    ("model.taped_mc_risk", ("calls", "self_s")),
    ("model.mc_empirical_risk", ("calls", "self_s")),
    ("env.true_risk_mc", ("calls", "self_s")),
    ("env.sample_tasks", ("calls", "self_s")),
    ("pipelines.fit_two_prior_system", ("incl_s",)),
    ("pipelines.trained_bound_breakdown", ("incl_s",)),
    ("pipelines.prior_mean_point", ("incl_s", "self_s")),
    ("pipelines.gaussian_sign_risk", ("calls", "self_s")),
    ("gauss.kl_diag_gaussian", ("calls", "self_s")),
    ("gauss.expected_kl_under_gaussian_mean", ("calls", "self_s")),
    ("bounds.theorem2_bound", ("calls", "self_s")),
    ("bounds.kl_decomposition_check", ("self_s",)),
    ("audit.trial", ("self_s",)),
)


@dataclass
class SpanStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    diverged: int = 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Aggregated spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        self.nodes = 0
        self.leaves = 0
        self.step_calls: Counter = Counter()
        self.step_nodes: Counter = Counter()
        self.csv_bytes = 0
        # One [span name, time of traced children] pair per open span.
        self._stack: list[list] = []
        self._after = {
            "diff.backward": self._after_backward,
            "cli.write_csv": self._after_write_csv,
        }
        self._diverged = importlib.import_module("metabounds.metalearn").TrainingDiverged

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        modules = {
            name: importlib.import_module(f"metabounds.{name}")
            for name in {target[0] for target in TARGETS}
        }
        saved = []
        try:
            for module_name, attr, span in TARGETS:
                module = modules[module_name]
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        stats = self.spans[name]
        stack = self._stack
        after = self._after.get(name)
        counts_divergence = name in STEP_SPANS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except self._diverged:
                if counts_divergence:
                    stats.diverged += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.incl_s += elapsed
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                start = clock()
                after(args, kwargs)
                if stack:
                    stack[-1][1] += clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_backward(self, args, kwargs) -> None:
        out = args[0] if args else kwargs["out"]
        count = out.idx + 1
        self.nodes += count
        self.leaves += sum(1 for node in out.tape.nodes[:count] if node.vjp is None)
        for span, _ in reversed(self._stack):
            if span in STEP_SPANS:
                self.step_calls[span] += 1
                self.step_nodes[span] += count
                break

    def _after_write_csv(self, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        self.csv_bytes += os.path.getsize(path)

    def metrics(self, items: int, speed_factor: float = 1.0) -> dict[str, float]:
        """Per-item layer metrics after ``items`` traced items.

        Times are divided by ``speed_factor``, as the benchmark's end-to-end
        times are; counts are exact.
        """
        spans = self.spans
        per_item_s = items * speed_factor
        out: dict[str, float] = {}
        for span, fields in SPAN_FIELDS:
            for field in fields:
                scale = per_item_s if field.endswith("_s") else items
                out[f"{span}.{field}"] = getattr(spans[span], field) / scale
        meta, adapt = "metalearn.train_meta", "metalearn.adapt"
        out.update({
            "diff.backward.nodes_per_call": _ratio(self.nodes, spans["diff.backward"].calls),
            "diff.backward.leaf_share": _ratio(self.leaves, self.nodes),
            "metalearn.meta_step_s": _ratio(spans[meta].incl_s / speed_factor,
                                            self.step_calls[meta]),
            "metalearn.meta_step_nodes": _ratio(self.step_nodes[meta], self.step_calls[meta]),
            "metalearn.adapt_step_s": _ratio(spans[adapt].incl_s / speed_factor,
                                             self.step_calls[adapt]),
            "metalearn.adapt_step_nodes": _ratio(self.step_nodes[adapt], self.step_calls[adapt]),
            "metalearn.diverged": (spans[meta].diverged + spans[adapt].diverged) / items,
            "cli.load_config.s": spans["cli.load_config"].incl_s / per_item_s,
            "cli.write_csv.s": spans["cli.write_csv"].incl_s / per_item_s,
            "cli.write_csv.bytes": self.csv_bytes / items,
        })
        return out
