"""Seeded Monte Carlo experiment runner with CSV/JSON emission.

A cell is one (setup, n, d, correlation-or-mask-rate, eps, error) choice; a
trial generates one contaminated dataset and runs every requested method on
it, scoring against the true coefficients under the population covariance.
Per-trial seeds are derived by hashing the cell identity, so any degree of
parallelism produces byte-identical output after the final sort. An eps's
trials run in chunks, and TM-AASD descends a chunk's trials as one batch in
which each trial keeps the bits it has alone, so neither the chunking nor
the worker count moves a byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._rounding import floor_int
from .regression import (
    PLUGIN_ITERS,
    GdConfig,
    RegressorPair,
    aasd,
    best_mom,
    divisors,
    fit_least_squares,
    loss_l2,
    mom_regression,
    plug_in,
)
from .synthdata import (
    OUTLIER_RESPONSE,
    Dataset,
    ErrorDist,
    RngSeed,
    contaminate_a,
    contaminate_b,
    gen_setup_a,
    gen_setup_b,
)

__all__ = [
    "METHODS",
    "CHUNK_TRIALS",
    "DEFAULT_EPS_GRID",
    "ExperimentConfig",
    "TrialRecord",
    "SummaryStats",
    "trial_seed",
    "trim_count",
    "default_mom_blocks",
    "run_trial",
    "run_experiment",
    "summarize",
    "delta_percent",
    "TRIAL_COLUMNS",
    "SUMMARY_COLUMNS",
    "COMPARISON_COLUMNS",
    "comparison_rows",
    "write_table",
    "write_text",
    "emit",
    "table_grid_configs",
]

METHODS = ("TM-AASD", "TM-PlugIn", "OLS", "MoM", "Best-MoM")

DEFAULT_EPS_GRID = (0.0, 0.025, 0.05, 0.075, 0.1, 0.2, 0.3, 0.4)

# Trials per run_experiment task. TM-AASD descends a task's trials as one
# batch, with each trial's bits the same as alone; the tasks are cut from
# each eps's trial list, whatever the worker count.
CHUNK_TRIALS = 8

# RngSeed stream indices: data generation, contamination, MoM shuffling,
# iterate initialization.
_STREAM_DATA = 0
_STREAM_CONTAM = 1
_STREAM_MOM = 2
_STREAM_INIT = 3

INIT_RULES = ("random", "zeros")

@dataclass(frozen=True)
class ExperimentConfig:
    """One fully seeded experimental grid.

    ``rho`` applies to Setup A, ``p`` to Setup B. The trimming rule is
    k = floor(eps*n) + trim_extra, with trim_extra >= 0; the true
    coefficient vector is all ones. Best-MoM's oracle access to the true
    coefficients makes it an infeasible baseline, recorded as such in
    emitted metadata.

    ``init_rule`` picks the iterate pair every descent method starts from:
    "random" draws a seeded standard-normal pair per trial, "zeros" uses
    the zero pair. An exactly equal pair makes every loss difference tie,
    so the first active set of the refit heuristic is decided purely by
    tie-breaking and keeps contaminated rows; the random default avoids
    that degeneracy while staying fully reproducible.

    ``plugin_iters`` caps the rounds of the plug-in heuristic. Each round
    keeps a refit of beta_m if it lowers the trimmed min-max objective and
    a refit of beta_M if it raises it; a refit that leaves the objective
    equal is kept only if its norm is strictly smaller than the iterate's.
    The loop stops early at the fixed point, where a round changes neither
    iterate.

    ``mom_blocks`` fixes the plain MoM bucket count; None picks
    default_mom_blocks per cell. ``outlier_response`` is the planted
    response of Setup A's contaminated rows and must be finite. A repeated
    eps or method would run and summarize its trials twice. A bad setting
    raises here, before any fit.
    """

    setup: str
    n: int
    d: int = 20
    rho: float = 0.0
    p: float = 0.3
    error_dist: ErrorDist = ErrorDist.normal()
    eps_grid: Tuple[float, ...] = DEFAULT_EPS_GRID
    methods: Tuple[str, ...] = METHODS
    trials: int = 240
    base_seed: int = 0
    trim_extra: int = 5
    mom_blocks: Optional[int] = None
    outlier_response: float = OUTLIER_RESPONSE
    gd: GdConfig = field(default_factory=GdConfig)
    plugin_iters: int = PLUGIN_ITERS
    init_rule: str = "random"

    def __post_init__(self) -> None:
        if self.init_rule not in INIT_RULES:
            raise ValueError(f"init_rule must be one of {INIT_RULES}")
        if self.setup not in ("A", "B"):
            raise ValueError(f"setup must be 'A' or 'B', got {self.setup!r}")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive integers")
        if self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if self.plugin_iters < 1:
            raise ValueError(f"plugin_iters must be >= 1, got {self.plugin_iters}")
        if self.trim_extra < 0:
            raise ValueError(f"trim_extra must be >= 0, got {self.trim_extra}")
        if self.mom_blocks is not None and not 1 <= self.mom_blocks <= self.n:
            raise ValueError(f"mom_blocks must lie in [1, n], got {self.mom_blocks}")
        if not self.eps_grid:
            raise ValueError("eps_grid must hold at least one eps")
        if any(not 0.0 <= e < 0.5 for e in self.eps_grid):
            raise ValueError("every eps must lie in [0, 1/2)")
        if len(set(self.eps_grid)) < len(self.eps_grid):  # 0.0 == -0.0
            raise ValueError(f"eps_grid repeats a value: {self.eps_grid}")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods repeats a name: {self.methods}")
        if self.setup == "A" and not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if self.setup == "A" and not math.isfinite(self.outlier_response):
            raise ValueError(
                f"outlier_response must be finite, got {self.outlier_response}"
            )
        if self.setup == "B" and not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if self.setup == "B" and self.error_dist.kind != "normal":
            raise ValueError("Setup B uses standard normal errors only")

    @property
    def rho_or_p(self) -> float:
        return self.rho if self.setup == "A" else self.p

    @property
    def beta_star(self) -> np.ndarray:
        return np.ones(self.d)


@dataclass(frozen=True)
class TrialRecord:
    """One (cell, method, trial) outcome. wall_time is informational only:
    it is excluded from emitted files and from equality comparisons."""

    setup: str
    n: int
    d: int
    rho_or_p: float
    eps: float
    error_dist: str
    method: str
    trial: int
    seed: int
    loss: float
    wall_time: float = field(default=0.0, compare=False)

    @property
    def cell_key(self) -> tuple:
        return (self.setup, self.n, self.d, self.rho_or_p, self.eps, self.error_dist)

    @property
    def sort_key(self) -> tuple:
        return self.cell_key + (self.method, self.trial)


@dataclass(frozen=True)
class SummaryStats:
    """Loss summary over the trials of one (cell, method) group."""

    mean: float
    std: float
    min: float
    q1: float
    median: float
    q3: float
    max: float

    @classmethod
    def from_losses(cls, losses) -> "SummaryStats":
        """Statistics of losses where a failed fit's loss is inf: the std is
        inf exactly when the mean is (0 for one loss), where numpy's is nan."""
        arr = np.asarray(losses, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot summarize an empty group")
        mean = float(arr.mean())
        if arr.size == 1:
            std = 0.0
        else:
            std = math.inf if math.isinf(mean) else float(arr.std(ddof=1))
        ordered = np.sort(arr)
        quartiles = (_quartile(ordered, q) for q in (0.25, 0.5, 0.75))
        return cls(mean, std, float(ordered[0]), *quartiles, float(ordered[-1]))


def _quartile(ordered: np.ndarray, q: float) -> float:
    """Type-7 quantile (numpy's default) of sorted losses, which may hold an inf.

    At an integer position it is that order statistic, and a quantile that
    interpolates toward an inf is inf, where numpy's is nan; otherwise it is
    np.percentile's.
    """
    pos = (ordered.size - 1) * q
    lo = math.floor(pos)
    if pos == lo:
        return float(ordered[lo])
    if math.isinf(ordered[lo + 1]):
        return math.inf
    return float(np.percentile(ordered, 100.0 * q))


# Columns of the experiment tables. A trial row is its record's compared
# fields (wall_time is not); a summary row is the group key, i.e. the first
# seven trial columns, followed by the statistics.
TRIAL_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.compare)
SUMMARY_COLUMNS = TRIAL_COLUMNS[:7] + tuple(f.name for f in fields(SummaryStats))
COMPARISON_COLUMNS = (
    "n", "eps", "error_dist", "aasd_mean", "aasd_std", "plugin_mean",
    "plugin_std", "delta_mean_pct", "delta_std_pct",
)


def trial_seed(
    base_seed: int,
    setup: str,
    n: int,
    d: int,
    rho_or_p: float,
    eps: float,
    error_label: str,
    trial: int,
) -> int:
    """64-bit per-trial seed from a hash of the cell identity.

    Distinct (cell, trial) pairs get distinct seeds without coordination,
    which keeps parallel scheduling irrelevant to the output.
    """
    key = "|".join(
        [
            str(int(base_seed)),
            setup,
            str(int(n)),
            str(int(d)),
            "%.17g" % rho_or_p,
            "%.17g" % eps,
            error_label,
            str(int(trial)),
        ]
    )
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def trim_count(eps: float, n: int, extra: int = ExperimentConfig.trim_extra) -> int:
    """Benchmark trimming rule: k = floor(eps*n) + extra."""
    return floor_int(eps * n) + extra


def default_mom_blocks(eps: float, n: int) -> int:
    """Bucket count for the plain MoM method: min(n, 2 floor(eps*n) + 5)."""
    return min(n, 2 * floor_int(eps * n) + 5)


def _make_trial_data(config: ExperimentConfig, eps: float, seed: int) -> Dataset:
    beta = config.beta_star
    if config.setup == "A":
        clean = gen_setup_a(
            config.n, config.d, config.rho, config.error_dist, beta,
            RngSeed(seed, _STREAM_DATA),
        )
        return contaminate_a(
            clean, eps, RngSeed(seed, _STREAM_CONTAM), config.outlier_response
        )
    clean, mask = gen_setup_b(
        config.n, config.d, config.p, beta, RngSeed(seed, _STREAM_DATA)
    )
    return contaminate_b(clean, mask, eps, RngSeed(seed, _STREAM_CONTAM))


def _initial_pair(config: ExperimentConfig, seed: int) -> RegressorPair:
    if config.init_rule == "zeros":
        return RegressorPair.zeros(config.d)
    gen = RngSeed(seed, _STREAM_INIT).generator()
    return RegressorPair(
        gen.standard_normal(config.d), gen.standard_normal(config.d)
    )


class _TrialInputs(NamedTuple):
    """What every method of one trial shares: the trial's seed, dataset,
    trimming count and starting pair."""

    seed: int
    data: Dataset
    k: int
    init: RegressorPair

    @classmethod
    def build(cls, config: ExperimentConfig, eps: float, trial: int) -> "_TrialInputs":
        seed = trial_seed(config.base_seed, *_cell(config, eps), trial)
        return cls(
            seed, _make_trial_data(config, eps, seed),
            trim_count(eps, config.n, config.trim_extra), _initial_pair(config, seed),
        )


def _cell(config: ExperimentConfig, eps: float) -> tuple:
    return (
        config.setup, config.n, config.d, config.rho_or_p, eps,
        config.error_dist.label,
    )


def _aasd_fits(config: ExperimentConfig, inputs: Sequence[_TrialInputs]):
    """Each trial's TM-AASD beta_m, or the exception its fit raised, and the
    fit time per trial.

    One aasd call descends every trial of ``inputs`` as a batch. If it
    raises, each trial is fitted alone, with the bits it has in the batch,
    so that a failure marks only the trial it belongs to.
    """
    start = time.perf_counter()
    try:
        pairs = aasd(
            [t.data for t in inputs], inputs[0].k, config.gd, [t.init for t in inputs]
        )
        fits = [pair.beta_m for pair in pairs]
    except Exception:
        fits = []
        for t in inputs:
            try:
                fits.append(aasd(t.data, t.k, config.gd, t.init).beta_m)
            except Exception as exc:
                fits.append(exc)
    return fits, (time.perf_counter() - start) / len(inputs)


def _fitted(beta):
    """``beta``, or raise it if the fit raised it."""
    if isinstance(beta, Exception):
        raise beta
    return beta


def run_trial(
    config: ExperimentConfig,
    eps: float,
    trial: int,
    inputs: Optional[_TrialInputs] = None,
    aasd_fit=None,
) -> List[TrialRecord]:
    """All requested methods on one shared contaminated dataset.

    The dataset, trimming count, starting pair and MoM stream are built once
    and shared by every method. A solver failure is recorded as an
    infinite-loss marker row rather than aborting the run.

    A chunk of run_experiment passes the trial's ``inputs``, and, when
    TM-AASD is requested, ``aasd_fit``: the trial's (beta_m or the
    exception raised, seconds) from the chunk's batched descent, whose
    seconds become the record's wall_time. A call without them builds the
    trial and fits TM-AASD on it alone.
    """
    if inputs is None:
        inputs = _TrialInputs.build(config, eps, trial)
    if aasd_fit is None and "TM-AASD" in config.methods:
        fits, seconds = _aasd_fits(config, [inputs])
        aasd_fit = (fits[0], seconds)
    data, k, init, seed = inputs.data, inputs.k, inputs.init, inputs.seed
    mom_stream = RngSeed(seed, _STREAM_MOM)
    blocks = config.mom_blocks or default_mom_blocks(eps, config.n)
    # The solvers are looked up when a fit runs, so a patched module
    # attribute (as the benchmark's tracer installs) is the one called.
    fits = {
        "OLS": lambda: fit_least_squares(data.X, data.y),
        "TM-AASD": lambda: _fitted(aasd_fit[0]),
        "TM-PlugIn": lambda: plug_in(data, k, init, config.plugin_iters).beta_m,
        "MoM": lambda: mom_regression(
            data, blocks, config.gd, init, mom_stream
        ).beta_m,
        "Best-MoM": lambda: best_mom(
            data, divisors(config.n), config.gd, init, mom_stream,
            data.beta_star, data.pop_cov,
        )[1].beta_m,
    }
    records = []
    for method in config.methods:
        start = time.perf_counter()
        try:
            loss = loss_l2(fits[method](), data.beta_star, data.pop_cov)
        except Exception:
            loss = math.inf
        wall_time = time.perf_counter() - start
        if method == "TM-AASD":
            wall_time = aasd_fit[1]
        records.append(
            TrialRecord(
                *_cell(config, eps), method, trial, seed, loss, wall_time=wall_time
            )
        )
    return records


def _run_chunk(config: ExperimentConfig, eps: float, first: int) -> List[TrialRecord]:
    """Trials first, first + 1, ... of eps, at most CHUNK_TRIALS of them.

    Without TM-AASD each trial is built and run in turn, so only one
    trial's dataset is held at a time.
    """
    trials = range(first, min(first + CHUNK_TRIALS, config.trials))
    if "TM-AASD" not in config.methods:
        return [rec for t in trials for rec in run_trial(config, eps, t)]
    inputs = [_TrialInputs.build(config, eps, t) for t in trials]
    fits, seconds = _aasd_fits(config, inputs)
    return [
        rec
        for t, trial_inputs, beta in zip(trials, inputs, fits)
        for rec in run_trial(config, eps, t, trial_inputs, (beta, seconds))
    ]


def run_experiment(config: ExperimentConfig, workers: int = 1) -> List[TrialRecord]:
    """Every trial of the config's eps grid, sorted for emission.

    The trials of each eps run in chunks of CHUNK_TRIALS, which are
    independent work units: with ``workers`` >= 2 they run in one process
    pool for the whole grid, otherwise serially.
    """
    chunks = range(0, config.trials, CHUNK_TRIALS)
    eps_seq = [eps for eps in config.eps_grid for _ in chunks]
    first_seq = [first for _ in config.eps_grid for first in chunks]
    # never more workers than trials: each one is forked when the pool starts
    workers = min(workers, config.trials * len(config.eps_grid))
    if workers <= 1:
        groups = map(_run_chunk, repeat(config), eps_seq, first_seq)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(first_seq) // (4 * workers))
            groups = list(pool.map(
                _run_chunk, repeat(config), eps_seq, first_seq, chunksize=chunk
            ))
    records = [rec for group in groups for rec in group]
    records.sort(key=attrgetter("sort_key"))
    return records


def summarize(records: Sequence[TrialRecord]) -> Dict[tuple, SummaryStats]:
    """SummaryStats per (cell, method) group, keyed by cell_key + (method,)."""
    groups: Dict[tuple, List[float]] = {}
    for rec in records:
        groups.setdefault(rec.cell_key + (rec.method,), []).append(rec.loss)
    return {
        key: SummaryStats.from_losses(losses)
        for key, losses in sorted(groups.items())
    }


def delta_percent(aasd_stat: float, plugin_stat: float) -> float:
    """Relative change of the plug-in statistic against the descent one.

    Where the ratio is undefined it is inf, -inf or nan: against a zero
    statistic a change is a signed inf and no change is nan, and an inf
    statistic gives inf or nan as float division does.
    """
    change = plugin_stat - aasd_stat
    if aasd_stat == 0.0:
        return math.copysign(math.inf, change) if change else math.nan
    return 100.0 * change / aasd_stat


def _truncate(percent: float):
    """Truncated toward zero; an undefined (non-finite) delta stays a float."""
    return int(percent) if math.isfinite(percent) else percent


def comparison_rows(stats: Dict[tuple, SummaryStats]) -> List[tuple]:
    """Rows under COMPARISON_COLUMNS: TM-AASD against TM-PlugIn per cell,
    with the percentage differences truncated toward zero."""
    rows = []
    for cell in sorted({key[:-1] for key in stats}):
        aasd_stats = stats[cell + ("TM-AASD",)]
        plug_stats = stats[cell + ("TM-PlugIn",)]
        _, n, _, _, eps, error = cell
        rows.append((
            n, eps, error,
            aasd_stats.mean, aasd_stats.std, plug_stats.mean, plug_stats.std,
            _truncate(delta_percent(aasd_stats.mean, plug_stats.mean)),
            _truncate(delta_percent(aasd_stats.std, plug_stats.std)),
        ))
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_table(path, columns: Sequence[str], rows, format: str = "csv") -> str:
    """Write ``rows`` (value tuples in ``columns`` order) and return ``path``.

    CSV has a header line; floats carry 17 significant digits, other values
    are written with ``str``. JSON is a compact list of objects with sorted
    keys.
    """
    if format == "csv":
        lines = [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        objects = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(objects, sort_keys=True, separators=(",", ":")) + "\n"
    return write_text(path, text)


def write_text(path, text: str) -> str:
    """Write ASCII ``text`` with LF line ends to ``path`` and return ``path``;
    an OSError names the path."""
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc
    return path


def emit(
    records: Sequence[TrialRecord],
    stats: Dict[tuple, SummaryStats],
    path,
    format: str = "csv",
) -> List[str]:
    """Write trials and summary files under ``path``; returns written paths.

    Columns are TRIAL_COLUMNS and SUMMARY_COLUMNS, in the format of
    write_table; rows are sorted by (cell, method, trial).
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    os.makedirs(path, exist_ok=True)
    trial_row = attrgetter(*TRIAL_COLUMNS)
    stat_values = attrgetter(*SUMMARY_COLUMNS[7:])
    trial_rows = [trial_row(r) for r in sorted(records, key=lambda r: r.sort_key)]
    summary_rows = [key + stat_values(stats[key]) for key in sorted(stats)]
    trials = os.path.join(path, f"trials.{format}")
    summary = os.path.join(path, f"summary.{format}")
    return [
        write_table(trials, TRIAL_COLUMNS, trial_rows, format),
        write_table(summary, SUMMARY_COLUMNS, summary_rows, format),
    ]


def table_grid_configs(
    trials: int = ExperimentConfig.trials,
    base_seed: int = ExperimentConfig.base_seed,
) -> List[ExperimentConfig]:
    """The algorithm-comparison grid: Setup A at the default d (20) and rho
    (0), n in {120, 360}, eps in {0.05, 0.2}, normal and Student t errors
    (nu in {1, 2, 4})."""
    configs = []
    base = ExperimentConfig(
        setup="A",
        n=120,
        eps_grid=(0.05, 0.2),
        methods=("TM-AASD", "TM-PlugIn"),
        trials=trials,
        base_seed=base_seed,
    )
    for n in (120, 360):
        for err in (
            ErrorDist.normal(),
            ErrorDist.student_t(1),
            ErrorDist.student_t(2),
            ErrorDist.student_t(4),
        ):
            configs.append(replace(base, n=n, error_dist=err))
    return configs
