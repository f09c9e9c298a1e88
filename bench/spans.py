"""Spans around calls into trimreg's public functions, and the per-layer
metrics computed from them.

The tracer swaps a module attribute for a wrapper that records a span
(name, start, end, parent span) and restores the attribute afterwards. Each
wrapper sits on the binding the caller looks up: ``harness`` imports its
generators and solvers by name, so those are wrapped in ``harness``'s
namespace, while the least-squares refits and trimmed means that ``plug_in``
makes, and the MoM descents that ``best_mom`` makes, are wrapped in
``regression``'s. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List

import trimreg.cli as cli
import trimreg.harness as harness
import trimreg.regression as regression

# (module, attribute, span name)
TRACED = (
    (cli, "run_experiment", "harness.run_experiment"),
    (cli, "summarize", "harness.summarize"),
    (cli, "emit", "harness.emit"),
    (harness, "run_trial", "harness.run_trial"),
    (harness, "gen_setup_a", "synthdata.gen_setup_a"),
    (harness, "gen_setup_b", "synthdata.gen_setup_b"),
    (harness, "contaminate_a", "synthdata.contaminate_a"),
    (harness, "contaminate_b", "synthdata.contaminate_b"),
    (harness, "fit_least_squares", "regression.ols"),
    (harness, "aasd", "regression.aasd"),
    (harness, "plug_in", "regression.plug_in"),
    (harness, "best_mom", "regression.best_mom"),
    (regression, "mom_regression", "regression.mom_regression"),
    (regression, "fit_least_squares", "regression.fit_least_squares"),
    (regression, "trimmed_mean", "estimators.trimmed_mean"),
)

GENERATION = ("synthdata.gen_setup_a", "synthdata.gen_setup_b",
              "synthdata.contaminate_a", "synthdata.contaminate_b")

# name -> unit, in the order they are reported
PER_LAYER = {
    "synthdata.generate_ms": "ms",
    "regression.best_mom_ms": "ms",
    "regression.mom_ms": "ms",
    "regression.aasd_ms": "ms",
    "regression.plug_in_ms": "ms",
    "regression.lstsq_per_plug_in": "count",
    "estimators.trimmed_mean_per_plug_in": "count",
    "regression.ols_ms": "ms",
    "estimators.trimmed_mean_us": "us",
    "harness.trial_self_ms": "ms",
    "harness.trial_self_share": "ratio",
    "harness.busy_ratio": "ratio",
    "harness.pool_busy_ratio": "ratio",
    "harness.pool_trial_ms_p50": "ms",
    "harness.summarize_ms": "ms",
    "harness.emit_ms": "ms",
    "cli.main_self_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED]
        try:
            for mod, attr, name in TRACED:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")

    def layers(self) -> Dict[str, float]:
        """Per-layer metrics; a layer that never ran reads 0."""
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        self_time = list(dur)
        child_calls = Counter()
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                self_time[parent] -= dur[i]
                child_calls[(spans[parent][0], name)] += 1
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for i, span in enumerate(spans):
            total[span[0]] += dur[i]
            own[span[0]] += self_time[i]
            calls[span[0]] += 1

        def per_call(name, scale=1e3, of=total):
            return scale * of[name] / calls[name] if calls[name] else 0.0

        def per_plug_in(child):
            n = calls["regression.plug_in"]
            return child_calls[("regression.plug_in", child)] / n if n else 0.0

        trials = calls["harness.run_trial"]
        return {
            "synthdata.generate_ms":
                1e3 * sum(total[g] for g in GENERATION) / trials if trials else 0.0,
            "regression.best_mom_ms": per_call("regression.best_mom"),
            "regression.mom_ms": per_call("regression.mom_regression"),
            "regression.aasd_ms": per_call("regression.aasd"),
            "regression.plug_in_ms": per_call("regression.plug_in"),
            "regression.lstsq_per_plug_in": per_plug_in("regression.fit_least_squares"),
            "estimators.trimmed_mean_per_plug_in": per_plug_in("estimators.trimmed_mean"),
            "regression.ols_ms": per_call("regression.ols"),
            "estimators.trimmed_mean_us": per_call("estimators.trimmed_mean", 1e6),
            "harness.trial_self_ms": per_call("harness.run_trial", of=own),
            "harness.trial_self_share":
                own["harness.run_trial"] / total["harness.run_trial"] if trials else 0.0,
            "harness.summarize_ms": per_call("harness.summarize"),
            "harness.emit_ms": per_call("harness.emit"),
            "cli.main_self_ms": per_call("cli.main", of=own),
        }


def busy_ratio(records, workers: int, seconds: float) -> float:
    """Recorded fit time over workers x wall time."""
    return sum(r.wall_time for r in records) / (workers * seconds)


def trial_ms(records) -> List[float]:
    """Per trial, the summed per-method times the harness records, in ms."""
    per_trial = defaultdict(float)
    for r in records:
        per_trial[r.cell_key + (r.trial,)] += r.wall_time
    return [1e3 * v for v in per_trial.values()]


def median_trial_ms(records) -> float:
    return statistics.median(trial_ms(records))
