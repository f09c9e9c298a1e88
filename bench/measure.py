"""Timed rounds, the traced run and the set-up probe: the measurements
behind ``run.py``. Import it only once ``trimreg`` is importable."""

import contextlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from trimreg import cli

from spans import PER_LAYER, Tracer, busy_ratio, median_trial_ms, trial_ms
from workloads import Ledger, Round, same_outputs

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 7
POOL_WORKERS = 2
POOL_TRIALS = 2

E2E = {"setup_s": "s", "trials_per_s": "trial/s", "trial_ms_p50": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A failure that leaves the run without a result."""


def measure_setup(argv) -> float:
    """Median time from starting a fresh interpreter until it could begin
    the first trial of ``argv``."""
    probe = [sys.executable, os.path.join(BENCH, "setup_probe.py"), *argv]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != b"ready":
            raise BenchError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


class Runner:
    def __init__(self, workload, seed: int, out: str) -> None:
        self.workload = workload
        self.seed = seed
        self.out = out

    def round(self, index, main, tag, trials=0, workers=1):
        """Run one round's commands; time them and keep their records."""
        rnd = Round(index, [])
        # The CLI writes no per-method times; keep the records the harness
        # returns, which carry them.
        run_experiment = cli.run_experiment

        def capture(config, workers=1):
            records = run_experiment(config, workers=workers)
            rnd.records.extend(records)
            return records

        cli.run_experiment = capture
        try:
            for i, (base, argv) in enumerate(
                self.workload.commands(self.seed, index, trials, workers)
            ):
                out = os.path.join(self.out, f"{tag}{index}-{i}")
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv + ["--out", out])
                rnd.seconds += time.perf_counter() - start
                if code != 0:
                    raise BenchError(f"trimreg {' '.join(argv)} exited with {code}")
                rnd.dirs.append((base, out))
        finally:
            cli.run_experiment = run_experiment
        return rnd

    def rounds(self, tag, budget=None, count=None, tracer=None):
        """Rounds until ``budget`` seconds of round time, or ``count`` rounds."""
        main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
        done = []
        with tracer.installed() if tracer else contextlib.nullcontext():
            while (len(done) < count if count is not None
                   else not done or sum(r.seconds for r in done) < budget):
                done.append(self.round(len(done), main, tag))
        return done

    def pool_round(self, ledger):
        """Round 0 at a few trials, serially and at POOL_WORKERS workers:
        the output files must be byte-identical."""
        serial = self.round(0, cli.main, "s", POOL_TRIALS, 1)
        pool = self.round(0, cli.main, "p", POOL_TRIALS, POOL_WORKERS)
        for (_, a), (_, b) in zip(serial.dirs, pool.dirs):
            ledger.require(same_outputs(a, b),
                           f"outputs at --workers {POOL_WORKERS} differ from a serial run")
        return pool


def trials_per_s(rounds) -> float:
    """Median over rounds of trials completed per second of round time."""
    return statistics.median(len(trial_ms(r.records)) / r.seconds for r in rounds)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the result object that run.py prints."""
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(workload, seed, os.path.join(OUT, f"run-{os.getpid()}"))
    ledger = Ledger()
    try:
        if trace:
            values, units = _per_layer(runner, ledger, seconds), PER_LAYER
        else:
            values, units = _end_to_end(runner, ledger, seconds), E2E
    finally:
        shutil.rmtree(runner.out, ignore_errors=True)
    for note in ledger.notes:
        print(f"bench: note: {note}", file=sys.stderr)
    for problem in ledger.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    return {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _end_to_end(runner, ledger, seconds):
    workload = runner.workload
    setup_s = measure_setup(workload.commands(runner.seed, 0)[0][1])
    rounds = runner.rounds("u", budget=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.check(rounds, ledger)
    if workload.pool:
        runner.pool_round(ledger)
    return {
        "setup_s": setup_s,
        "trials_per_s": trials_per_s(rounds),
        "trial_ms_p50": statistics.median([ms for r in rounds for ms in trial_ms(r.records)]),
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(runner, ledger, seconds):
    workload = runner.workload
    untraced = runner.rounds("u", budget=seconds / 2)
    tracer = Tracer()
    traced = runner.rounds("t", count=len(untraced), tracer=tracer)
    workload.check(untraced, ledger)
    for u, t in zip(untraced, traced):
        ledger.require(all(same_outputs(a, b) for (_, a), (_, b) in zip(u.dirs, t.dirs)),
                       f"traced round {t.index} wrote other outputs than untraced")
    pool = runner.pool_round(ledger) if workload.pool else None
    tracer.write(os.path.join(OUT, f"spans-{workload.name}-seed{runner.seed}.csv"))
    values = tracer.layers()
    untraced_s = sum(r.seconds for r in untraced)
    values["harness.busy_ratio"] = busy_ratio(
        [rec for r in untraced for rec in r.records], 1, untraced_s)
    values["harness.pool_busy_ratio"] = (
        busy_ratio(pool.records, POOL_WORKERS, pool.seconds) if pool else 0.0)
    values["harness.pool_trial_ms_p50"] = median_trial_ms(pool.records) if pool else 0.0
    # Both passes ran the same rounds, so their trial rates differ by the
    # ratio of their round times.
    values["trace.overhead_pct"] = 100.0 * (1.0 - untraced_s / sum(r.seconds for r in traced))
    return values
