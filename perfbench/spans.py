"""Per-layer spans timed from outside the package.

Callers inside ``oce_rcps`` look their collaborators up as module
attributes (``calibrate.py`` does ``from .bounds import oce_risk_ucb`` and
calls ``oce_risk_ucb`` through its own globals). Replacing such an
attribute with a timing wrapper therefore times every call made through
it without touching the package. Each row of ``HOOKS`` names the span, the
module whose attribute is replaced and the attribute; a row whose module
or attribute is missing leaves that layer untraced (its metrics read
null) and only warns, so refactors that delete or rename a hooked name
keep the benchmark running.

Spans are aggregated in memory per (tag, span): calls, total seconds and
self seconds (total minus the time covered by nested spans). The tag is
whatever the workload is running at the time, such as the trial's method.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


def _cells(args, kwargs, out):
    return {"risk.loss_curve_cells": out.size}


def _select_counts(args, kwargs, out):
    grid = next(a for a in (*args, *kwargs.values()) if hasattr(a, "resolution"))
    return {
        "calibrate.lambda_tested": len(out.trace),
        "calibrate.grid_cols": grid.resolution + 1,
    }


_SELECT = ("select_oce_crc", "select_oce_rcps", "select_rcps")

# (span, module, attribute, counter); counters see the call's arguments and
# result and return counter increments.
HOOKS = (
    ("datagen.generate", "oce_rcps.datagen", "generate_dataset", None),
    ("datagen.generate", "oce_rcps.cli", "generate_dataset", None),
    ("rng.beta_icdf", "oce_rcps.datagen", "beta_inverse_cdf", None),
    ("datagen.write", "oce_rcps.cli", "write_dataset_path", None),
    ("datagen.read", "oce_rcps.cli", "read_dataset_path", None),
    ("datagen.split", "oce_rcps.harness", "split_dataset", None),
    ("datagen.split", "oce_rcps.cli", "split_dataset", None),
    *(("calibrate.select", mod, name, _select_counts)
      for mod in ("oce_rcps.harness", "oce_rcps.cli") for name in _SELECT),
    ("risk.loss_curves", "oce_rcps.calibrate", "losses_at", _cells),
    ("calibrate.optimize_t", "oce_rcps.calibrate", "optimize_t", None),
    ("risk.crc_objective", "oce_rcps.calibrate", "empirical_objective", None),
    ("bounds.ucb", "oce_rcps.calibrate", "oce_risk_ucb", None),
    ("risk.eval_losses", "oce_rcps.harness", "losses_at", None),
    ("risk.eval_losses", "oce_rcps.cli", "losses_at", None),
    ("risk.rel_sizes", "oce_rcps.harness", "relative_set_sizes", None),
    ("risk.rel_sizes", "oce_rcps.cli", "relative_set_sizes", None),
    ("harness.run_trials", "oce_rcps.cli", "run_trials", None),
    ("harness.summarize", "oce_rcps.harness", "summarize", None),
    ("harness.kde", "oce_rcps.cli", "kde_density", None),
    ("harness.emit", "oce_rcps.harness", "records_to_csv", None),
    ("harness.emit", "oce_rcps.cli", "records_to_csv", None),
    ("harness.emit", "oce_rcps.cli", "kde_to_csv", None),
)


class Tracer:
    def __init__(self):
        self.active = True
        self.tag = ""
        self.stats: dict = {}  # (tag, span) -> [calls, total_s, self_s]
        self.counts: dict = {}  # (tag, counter) -> value
        self.hooked: set = {"cli.import"}  # recorded by child.py, not by a hook
        self._open: list = []  # child seconds of each open span
        self._broken: set = set()

    def call(self, span, fn, counter, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        self._open.append(0.0)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            child = self._open.pop()
            if self._open:
                self._open[-1] += dur
            self.record(span, dur, dur - child)
        if counter is not None and counter not in self._broken:
            try:
                incs = counter(args, kwargs, out)
            except Exception as e:  # a reshaped signature must not fail the run
                self._broken.add(counter)
                print(f"perfbench: counter on {span} disabled: {e!r}", file=sys.stderr)
            else:
                for name, v in incs.items():
                    self.count(name, v)
        return out

    def count(self, name, v, tag=None):
        key = (self.tag if tag is None else tag, name)
        self.counts[key] = self.counts.get(key, 0) + v

    def record(self, span, total, self_s, calls=1, tag=None):
        s = self.stats.setdefault((self.tag if tag is None else tag, span), [0, 0.0, 0.0])
        s[0] += calls
        s[1] += total
        s[2] += self_s

    def install(self):
        """Wrap every hooked attribute that exists; warn about the rest."""
        for span, mod_name, attr, counter in HOOKS:
            try:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError) as e:
                print(f"perfbench: {mod_name}.{attr} not found, {span} untraced ({e})",
                      file=sys.stderr)
                continue
            if getattr(fn, "__perfbench_span__", None) is None:
                setattr(mod, attr, self._wrap(span, fn, counter))
            self.hooked.add(span)

    def _wrap(self, span, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(span, fn, counter, args, kwargs)

        traced.__perfbench_span__ = span
        return traced

    def dump(self) -> dict:
        return {
            "hooked": sorted(self.hooked),
            "stats": [[t, s, *v] for (t, s), v in self.stats.items()],
            "counts": [[t, c, v] for (t, c), v in self.counts.items()],
        }

    def merge(self, dumped: dict) -> None:
        self.hooked.update(dumped["hooked"])
        for tag, span, calls, total, self_s in dumped["stats"]:
            self.record(span, total, self_s, calls, tag)
        for tag, name, v in dumped["counts"]:
            self.count(name, v, tag)


class Totals:
    """Span and counter sums over the tags that pass a filter."""

    def __init__(self, tracer: Tracer, keep=lambda tag: True):
        self.hooked = tracer.hooked
        self.calls, self.total, self.self_s, self.counts = {}, {}, {}, {}
        for (tag, span), (calls, total, self_s) in tracer.stats.items():
            if keep(tag):
                self.calls[span] = self.calls.get(span, 0) + calls
                self.total[span] = self.total.get(span, 0.0) + total
                self.self_s[span] = self.self_s.get(span, 0.0) + self_s
        for (tag, name), v in tracer.counts.items():
            if keep(tag):
                self.counts[name] = self.counts.get(name, 0) + v


# The end-to-end metric and workload each layer metric should move.
MOVES = {
    "datagen.generate_s": "setup_s on mc-*",
    "rng.beta_icdf_s": "setup_s on mc-*",
    "datagen.write_s": "setup_s on cli-session",
    "datagen.read_s": "calibrate_s on cli-session",
    "cli.import_s": "calibrate_s on cli-session",
    "datagen.split_ms": "trial_ms_p50 on mc-g100 and mc-g1000",
    "risk.loss_curves_ms": "trials_per_s on mc-g100",
    "risk.loss_curve_cells": "trials_per_s on mc-g100",
    "risk.eval_losses_ms": "trials_per_s on mc-g100",
    "risk.rel_sizes_ms": "trials_per_s on mc-g100",
    "risk.crc_objective_ms": "trials_per_s on mc-g1000",
    "risk.crc_objective_calls": "trials_per_s on mc-g1000",
    "calibrate.optimize_t_ms": "trials_per_s on mc-g1000",
    "calibrate.optimize_t_calls": "trials_per_s on mc-g1000",
    "bounds.ucb_ms": "trials_per_s and trial_ms_p95 on mc-g1000, not mc-g100",
    "bounds.ucb_calls": "trials_per_s and trial_ms_p95 on mc-g1000, not mc-g100",
    "bounds.ucb_us_per_call": "trials_per_s and trial_ms_p95 on mc-g1000, not mc-g100",
    "calibrate.select_ms": "trials_per_s on mc-g100 and mc-g1000",
    "calibrate.select_self_ms": "trials_per_s on mc-g1000",
    "calibrate.lambda_tested": "trials_per_s on mc-g1000",
    "calibrate.loss_cols_used_frac": "trials_per_s on mc-g100 (useful share of loss columns)",
    "harness.run_trials_s": "the report's trials_process_per_s on cli-session",
    "harness.summarize_ms": "the report's wall_s on cli-session",
    "harness.kde_ms": "the report's wall_s on cli-session",
    "harness.emit_ms": "the report's wall_s on cli-session",
    "traced.trials_per_s": "none: compared with trials_per_s (trials_process_per_s on "
                           "cli-session) it gives the tracing overhead",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_trials_per_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from the recorded spans.

    `_ms` and `_calls` metrics are per selection (one call into a selector:
    one trial on mc-*, one `calibrate` process on cli-session); `_s` metrics
    are per call of their own span, and `rng.beta_icdf_s` per generated
    pool. A span the workload never enters reads 0; a span whose hook is
    missing reads null.
    """
    t = Totals(tracer)
    sel = t.calls.get("calibrate.select", 0)

    def per_sel_ms(span):
        return _ratio(1000.0 * t.total.get(span, 0.0), sel)

    def per_sel_calls(span):
        return _ratio(t.calls.get(span, 0), sel)

    def per_call(span, scale=1.0, of=None):
        return _ratio(scale * t.total.get(span, 0.0), t.calls.get(of or span, 0))

    values = {
        "datagen.generate_s": ("datagen.generate", per_call("datagen.generate")),
        "rng.beta_icdf_s": ("rng.beta_icdf", per_call("rng.beta_icdf", of="datagen.generate")),
        "datagen.write_s": ("datagen.write", per_call("datagen.write")),
        "datagen.read_s": ("datagen.read", per_call("datagen.read")),
        "cli.import_s": ("cli.import", per_call("cli.import")),
        "datagen.split_ms": ("datagen.split", per_sel_ms("datagen.split")),
        "risk.loss_curves_ms": ("risk.loss_curves", per_sel_ms("risk.loss_curves")),
        "risk.loss_curve_cells": (
            "risk.loss_curves", _ratio(t.counts.get("risk.loss_curve_cells", 0), sel)),
        "risk.eval_losses_ms": ("risk.eval_losses", per_sel_ms("risk.eval_losses")),
        "risk.rel_sizes_ms": ("risk.rel_sizes", per_sel_ms("risk.rel_sizes")),
        "risk.crc_objective_ms": ("risk.crc_objective", per_sel_ms("risk.crc_objective")),
        "risk.crc_objective_calls": ("risk.crc_objective", per_sel_calls("risk.crc_objective")),
        "calibrate.optimize_t_ms": ("calibrate.optimize_t", per_sel_ms("calibrate.optimize_t")),
        "calibrate.optimize_t_calls": (
            "calibrate.optimize_t", per_sel_calls("calibrate.optimize_t")),
        "bounds.ucb_ms": ("bounds.ucb", per_sel_ms("bounds.ucb")),
        "bounds.ucb_calls": ("bounds.ucb", per_sel_calls("bounds.ucb")),
        "bounds.ucb_us_per_call": ("bounds.ucb", per_call("bounds.ucb", scale=1e6)),
        "calibrate.select_ms": ("calibrate.select", per_sel_ms("calibrate.select")),
        "calibrate.select_self_ms": (
            "calibrate.select", _ratio(1000.0 * t.self_s.get("calibrate.select", 0.0), sel)),
        "calibrate.lambda_tested": (
            "calibrate.select", _ratio(t.counts.get("calibrate.lambda_tested", 0), sel)),
        "calibrate.loss_cols_used_frac": (
            "calibrate.select",
            _ratio(t.counts.get("calibrate.lambda_tested", 0),
                   t.counts.get("calibrate.grid_cols", 0))),
        "harness.run_trials_s": ("harness.run_trials", per_call("harness.run_trials")),
        "harness.summarize_ms": ("harness.summarize", per_call("harness.summarize", 1000.0)),
        "harness.kde_ms": ("harness.kde", per_call("harness.kde", 1000.0)),
        "harness.emit_ms": ("harness.emit", per_call("harness.emit", 1000.0)),
    }
    out = {name: (v if span in t.hooked else None) for name, (span, v) in values.items()}
    out["traced.trials_per_s"] = traced_trials_per_s
    return out


def shares(tracer: Tracer, trial_s_by_tag: dict) -> dict:
    """Share of each tag's trial time spent in each module's spans.

    The selector counts with its self time, as `calibrate`, so the spans
    nested in it are not counted twice.
    """
    table = {}
    for tag, trial_s in sorted(trial_s_by_tag.items()):
        t = Totals(tracer, keep=lambda x, tag=tag: x == tag)
        by_mod = {}
        for span in t.total:
            part = t.total[span] if span != "calibrate.select" else t.self_s[span]
            mod = span.split(".", 1)[0]
            by_mod[mod] = by_mod.get(mod, 0.0) + part
        table[tag] = {
            "trial_ms": 1000.0 * trial_s / max(1, t.calls.get("calibrate.select", 0)),
            "loss_cols_used_frac": _ratio(t.counts.get("calibrate.lambda_tested", 0),
                                          t.counts.get("calibrate.grid_cols", 0)),
            **{m: round(v / trial_s, 4) for m, v in sorted(by_mod.items())},
        }
    return table
