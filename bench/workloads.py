"""The benchmark's workloads: the CLI commands of one round, and the checks
of a run's outputs against computations made outside the program.

A round is a fixed set of ``trimreg`` CLI commands. Round r of a run with
``--seed s`` uses base seed ``1000 * s + r`` wherever its inputs vary with
the seed, so every run repeats whole rounds of the same operations.

An operation is one method's fit on one trial's dataset. It fails if the
harness wrote its infinite-loss marker or if one of its per-fit checks
fails. A failed whole-run check (a dataset, a summary file, the pattern
the paper reports) makes the run incorrect instead.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from trimreg import (
    GdConfig,
    active_set,
    aasd,
    best_mom,
    divisors,
    mom_regression,
    plug_in,
)
from trimreg.regression import PLUGIN_ITERS
from trimreg.synthdata import RngSeed

import reference as ref

@dataclass
class Round:
    index: int
    dirs: List[Tuple[int, str]]  # (base seed, output directory) per command
    seconds: float = 0.0
    records: list = field(default_factory=list)  # TrialRecords, wall_time kept


class Ledger:
    """Operations attempted and failed, and whole-run problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []

    def note(self, what: str) -> None:
        self.notes.append(what)

    def require(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def count(self, rows: List[ref.Row], bad: Set[tuple]) -> None:
        for row in rows:
            self.attempted += 1
            if not math.isfinite(row.loss) or (row.trial_key, row.method) in bad:
                self.failed += 1


def round_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def same_outputs(dir_a: str, dir_b: str) -> bool:
    """Both directories hold the same files with the same bytes."""
    names = sorted(os.listdir(dir_a))
    return names == sorted(os.listdir(dir_b)) and all(
        read_file(os.path.join(dir_a, f)) == read_file(os.path.join(dir_b, f))
        for f in names)


def _by_trial(rows: List[ref.Row]) -> Dict[tuple, Dict[str, ref.Row]]:
    groups: Dict[tuple, Dict[str, ref.Row]] = defaultdict(dict)
    for row in rows:
        groups[row.trial_key][row.method] = row
    return groups


def _read(rnd: Round, i: int, expected: int, ledger: Ledger):
    base, out = rnd.dirs[i]
    rows = ref.read_trials(os.path.join(out, "trials.csv"))
    ledger.require(len(rows) == expected,
                   f"round {rnd.index}: {len(rows)} trial rows in {out}, expected {expected}")
    return base, rows


def _regenerate(row: ref.Row, base: int, ledger: Ledger):
    t = ref.regenerate(row, base)
    if ledger.require(t is not None, f"seed of {row.trial_key} is not its trial seed"):
        ledger.require(ref.contamination_ok(t), f"contamination of {row.trial_key}")
    return t


def _refit_agrees(row: ref.Row, beta, t) -> bool:
    return ref.close(row.loss, ref.pop_loss(beta, t), 1e-12)


def _ols_agrees(row: ref.Row, t) -> bool:
    return ref.close(row.loss, ref.pop_loss(ref.independent_ols(t), t), 1e-7)


class Workload:
    name = ""
    trials = 0
    pool = False  # whether a run also checks round 0 at --workers 2

    def commands(self, seed: int, index: int, trials: int = 0, workers: int = 1):
        """[(base seed, argv without --out)] of round ``index``."""
        raise NotImplementedError

    def check(self, rounds: List[Round], ledger: Ledger) -> None:
        raise NotImplementedError


def _run_setup(kind: str, extra: List[str], methods: str, trials: int,
               base: int, workers: int) -> List[str]:
    return [kind, *extra, "--methods", methods, "--trials", str(trials),
            "--seed", str(base), "--workers", str(workers)]


class HeavyTailOracle(Workload):
    """The criterion-3 cell: Setup A, n=360, t1 noise, eps=0.1."""

    name = "heavy-tail-oracle"
    trials = 2
    methods = ("TM-PlugIn", "OLS", "Best-MoM")

    def commands(self, seed, index, trials=0, workers=1):
        base = round_seed(seed, index)
        return [(base, _run_setup(
            "run-setup-a",
            ["--n", "360", "--d", "20", "--rho", "0", "--error", "t1", "--eps-grid", "0.1"],
            ",".join(self.methods), trials or self.trials, base, workers))]

    def check(self, rounds, ledger):
        gd = GdConfig()
        losses = defaultdict(list)
        for rnd in rounds:
            base, rows = _read(rnd, 0, self.trials * len(self.methods), ledger)
            bad = set()
            for key, group in _by_trial(rows).items():
                t = _regenerate(group["OLS"], base, ledger)
                if t is None:
                    continue
                if not _ols_agrees(group["OLS"], t):
                    bad.add((key, "OLS"))
                if key[-1] != 0:
                    continue
                # Trial 0 of each round: refit the plug-in, and bound Best-MoM
                # by two of its own candidates, K = 1 and K = n.
                pair = plug_in(t.data, t.k, t.init, PLUGIN_ITERS)
                if not _refit_agrees(group["TM-PlugIn"], pair.beta_m, t):
                    bad.add((key, "TM-PlugIn"))
                best = group["Best-MoM"]
                for K in (1, t.data.n):
                    mom = mom_regression(t.data, K, gd, t.init, RngSeed(t.seed, ref.STREAM_MOM))
                    if not best.loss <= ref.pop_loss(mom.beta_m, t) * (1 + 1e-12):
                        bad.add((key, "Best-MoM"))
                if rnd.index == 0:
                    _, pair = best_mom(t.data, divisors(t.data.n), gd, t.init,
                                       RngSeed(t.seed, ref.STREAM_MOM),
                                       t.data.beta_star, t.data.pop_cov)
                    if not _refit_agrees(best, pair.beta_m, t):
                        bad.add((key, "Best-MoM"))
            ledger.count(rows, bad)
            for row in rows:
                losses[row.method].append(row.loss)
        med = {m: statistics.median(v) for m, v in losses.items()}
        ledger.require(
            med["TM-PlugIn"] < med["OLS"] and med["TM-PlugIn"] < 2 * med["Best-MoM"],
            f"criterion-3 pattern: median losses {med}")


class AlgsGrid(Workload):
    """``compare-algs`` at 4 trials per cell: 16 Setup-A cells, TM-AASD and TM-PlugIn."""

    name = "algs-grid"
    trials = 4
    cells = 16
    methods = ("TM-AASD", "TM-PlugIn")

    def commands(self, seed, index, trials=0, workers=1):
        base = round_seed(seed, index)
        return [(base, ["compare-algs", "--trials", str(trials or self.trials),
                        "--seed", str(base), "--workers", str(workers)])]

    def check(self, rounds, ledger):
        for rnd in rounds:
            base, rows = _read(rnd, 0, self.cells * self.trials * len(self.methods), ledger)
            bad = set()
            aasd_ratios = []
            first_cell = min(r.trial_key[:-1] for r in rows)
            for key, group in _by_trial(rows).items():
                t = _regenerate(group["TM-PlugIn"], base, ledger)
                if t is None:
                    continue
                ols_loss = ref.pop_loss(ref.independent_ols(t), t)
                if not group["TM-PlugIn"].loss < 0.1 * ols_loss:
                    bad.add((key, "TM-PlugIn"))
                # TM-AASD stops at max_iters short of convergence on a few
                # seeds, so its ratio to OLS is bounded per round, not per fit.
                aasd_ratios.append(group["TM-AASD"].loss / ols_loss)
                if key[-1] == 0:
                    pair = plug_in(t.data, t.k, t.init, PLUGIN_ITERS)
                    if not _refit_agrees(group["TM-PlugIn"], pair.beta_m, t):
                        bad.add((key, "TM-PlugIn"))
                    if key[:-1] == first_cell:
                        pair = aasd(t.data, t.k, GdConfig(), t.init)
                        if not _refit_agrees(group["TM-AASD"], pair.beta_m, t):
                            bad.add((key, "TM-AASD"))
            ledger.count(rows, bad)
            stuck = sum(r >= 0.1 for r in aasd_ratios)
            if stuck:
                ledger.note(f"round {rnd.index}: {stuck} TM-AASD fits at or above "
                            "a tenth of the OLS loss")
            ledger.require(statistics.median(aasd_ratios) < 0.1,
                           f"round {rnd.index}: median TM-AASD loss over OLS loss "
                           f"{statistics.median(aasd_ratios):.3g}")
            ledger.require(self._comparison_ok(rows, rnd.dirs[0][1]),
                           f"round {rnd.index}: comparison.csv differs from trials.csv")

    def _comparison_ok(self, rows, out) -> bool:
        """comparison.csv recomputed from trials.csv with numpy."""
        groups = defaultdict(lambda: defaultdict(list))
        for r in rows:
            groups[(r.n, r.eps, r.error_dist)][r.method].append(r.loss)
        with open(os.path.join(out, "comparison.csv"), encoding="ascii") as fh:
            lines = fh.read().splitlines()[1:]
        if len(lines) != len(groups):
            return False
        for line in lines:
            n, eps, err, *vals = line.split(",")
            cell = groups.get((int(n), float(eps), err))
            if cell is None:
                return False
            a = np.asarray(cell["TM-AASD"])
            p = np.asarray(cell["TM-PlugIn"])
            expect = [a.mean(), a.std(ddof=1), p.mean(), p.std(ddof=1)]
            if not all(ref.close(float(v), e, 1e-12) for v, e in zip(vals[:4], expect)):
                return False
            deltas = [int(100 * (expect[2] - expect[0]) / expect[0]),
                      int(100 * (expect[3] - expect[1]) / expect[1])]
            if [int(v) for v in vals[4:]] != deltas:
                return False
        return True


class MaskedSerial(Workload):
    """Setup B, n=1000, p=0.3, OLS and TM-PlugIn, run serially.

    Each round runs a cell at eps=0 on seeded inputs and a cell at eps=0.2
    on inputs fixed by base seed 0. Every TM-PlugIn fit of the eps=0.2 cell
    cycles, so those fits fail the fixed-point check in every run.
    """

    name = "masked-serial"
    pool = True
    trials = 16
    fixed_trials = 8
    fixed_seed = 0
    methods = "OLS,TM-PlugIn"
    refits_per_round = 1

    def commands(self, seed, index, trials=0, workers=1):
        base = round_seed(seed, index)
        setup_b = ["--n", "1000", "--d", "20", "--p", "0.3", "--eps-grid"]
        return [
            (base, _run_setup("run-setup-b", setup_b + ["0"], self.methods,
                              trials or self.trials, base, workers)),
            (self.fixed_seed, _run_setup("run-setup-b", setup_b + ["0.2"], self.methods,
                                         trials or self.fixed_trials, self.fixed_seed,
                                         workers)),
        ]

    def check(self, rounds, ledger):
        fixed_bad = None
        for rnd in rounds:
            base, rows = _read(rnd, 0, 2 * self.trials, ledger)
            ledger.count(rows, self._check_rows(rows, base, self.refits_per_round, ledger))
            seed, fixed_rows = _read(rnd, 1, 2 * self.fixed_trials, ledger)
            if fixed_bad is None:
                # The fixed cell is the same work in every round: check all of
                # its fits once, then require later rounds to emit the same bytes.
                fixed_bad = self._check_rows(fixed_rows, seed, self.fixed_trials, ledger)
                fixed_dir = rnd.dirs[1][1]
            else:
                ledger.require(same_outputs(fixed_dir, rnd.dirs[1][1]),
                               f"round {rnd.index}: eps=0.2 outputs differ from round 0")
            ledger.count(fixed_rows, fixed_bad)

    def _check_rows(self, rows, base, refits, ledger) -> Set[tuple]:
        bad = set()
        for key, group in _by_trial(rows).items():
            t = _regenerate(group["OLS"], base, ledger)
            if t is None:
                continue
            if not _ols_agrees(group["OLS"], t):
                bad.add((key, "OLS"))
            if key[-1] >= refits:
                continue
            # The refit must reproduce the emitted loss, and one more round
            # must leave it unchanged.
            pair = plug_in(t.data, t.k, t.init, PLUGIN_ITERS)
            again = plug_in(t.data, t.k, pair, 1)
            if not (_refit_agrees(group["TM-PlugIn"], pair.beta_m, t)
                    and np.array_equal(again.beta_m, pair.beta_m)
                    and np.array_equal(again.beta_M, pair.beta_M)):
                bad.add((key, "TM-PlugIn"))
            # The tie rule, checked at the start as well as at the result: at
            # eps=0.2 the result is (0, 0), whose loss differences are all
            # zero, while at the start the trimming boundary falls among ~900
            # exact zeros.
            ledger.require(
                all(active_set(p, t.data, t.k).tolist() == ref.python_active_set(t, p)
                    for p in (t.init, pair)),
                f"active set of {key} breaks the (value, index) tie rule")
        return bad


WORKLOADS = {w.name: w for w in (HeavyTailOracle(), AlgsGrid(), MaskedSerial())}
