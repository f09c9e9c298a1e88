import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trimreg.harness as harness
from trimreg.harness import (
    COMPARISON_COLUMNS,
    DEFAULT_EPS_GRID,
    METHODS,
    ExperimentConfig,
    SummaryStats,
    TrialRecord,
    comparison_rows,
    default_mom_blocks,
    delta_percent,
    emit,
    run_experiment,
    run_trial,
    summarize,
    table_grid_configs,
    trial_seed,
    trim_count,
    write_table,
)
from trimreg.regression import GdConfig
from trimreg.synthdata import ErrorDist


def _small_config(**kw):
    base = dict(
        setup="A",
        n=40,
        d=3,
        eps_grid=(0.0, 0.1),
        methods=("OLS", "TM-PlugIn"),
        trials=5,
        base_seed=99,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _small_config(setup="C")
        with pytest.raises(ValueError):
            _small_config(eps_grid=(0.6,))
        with pytest.raises(ValueError):
            _small_config(methods=("OLS", "RANSAC"))
        with pytest.raises(ValueError, match="methods"):
            _small_config(methods=())
        with pytest.raises(ValueError, match="eps_grid"):
            _small_config(eps_grid=())
        with pytest.raises(ValueError):
            _small_config(trials=0)
        with pytest.raises(ValueError):
            _small_config(init_rule="warm")
        with pytest.raises(ValueError, match="plugin_iters"):
            _small_config(plugin_iters=0)
        # a negative extra once ran with k = -1 and wrote every trimmed
        # loss as inf
        with pytest.raises(ValueError, match="trim_extra"):
            _small_config(trim_extra=-1)
        assert _small_config(trim_extra=0).trim_extra == 0
        for blocks in (0, 41):  # n = 40
            with pytest.raises(ValueError, match="mom_blocks"):
                _small_config(mom_blocks=blocks)
        assert _small_config(mom_blocks=40).mom_blocks == 40
        with pytest.raises(ValueError):
            ExperimentConfig(setup="B", n=10, p=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(setup="B", n=10, error_dist=ErrorDist.student_t(1))

    @pytest.mark.parametrize(
        "eps_grid", [(0.1, 0.1), (0.0, 0.2, 0.0), (0.0, -0.0), (-0.0, 0.1, 0.0)]
    )
    def test_repeated_eps_rejected(self, eps_grid):
        # a repeated eps would run each of its trials twice, with one seed
        with pytest.raises(ValueError, match="eps_grid repeats"):
            _small_config(eps_grid=eps_grid)

    @pytest.mark.parametrize(
        "methods", [("OLS", "OLS"), ("OLS", "TM-PlugIn", "OLS")]
    )
    def test_repeated_method_rejected(self, methods):
        with pytest.raises(ValueError, match="methods repeats"):
            _small_config(methods=methods)

    @pytest.mark.parametrize("response", [math.inf, -math.inf, math.nan])
    def test_non_finite_outlier_response_rejected(self, response):
        # rejected with the config, before any trial runs, at every eps
        with pytest.raises(ValueError, match="outlier_response"):
            _small_config(eps_grid=(0.0,), outlier_response=response)

    def test_default_eps_grid_matches_protocol(self):
        assert DEFAULT_EPS_GRID == (0.0, 0.025, 0.05, 0.075, 0.1, 0.2, 0.3, 0.4)

    def test_trim_rule(self):
        assert trim_count(0.05, 120) == 11
        assert trim_count(0.0, 100) == 5
        # floor must follow exact arithmetic, not float rounding
        assert trim_count(0.043, 10000) == 435

    def test_default_mom_blocks(self):
        assert default_mom_blocks(0.0, 100) == 5
        assert default_mom_blocks(0.2, 100) == 45
        assert default_mom_blocks(0.4, 10) == 10  # capped at n


class TestSeeds:
    def test_deterministic(self):
        a = trial_seed(1, "A", 100, 20, 0.0, 0.05, "normal", 7)
        b = trial_seed(1, "A", 100, 20, 0.0, 0.05, "normal", 7)
        assert a == b

    def test_pairwise_distinct_across_cells_and_trials(self):
        seeds = set()
        count = 0
        for eps in DEFAULT_EPS_GRID:
            for n in (100, 200):
                for trial in range(50):
                    seeds.add(trial_seed(0, "A", n, 20, 0.0, eps, "t1", trial))
                    count += 1
        assert len(seeds) == count


class TestRunCell:
    def test_deterministic_records(self):
        cfg = _small_config(eps_grid=(0.1,))
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_method_order_irrelevant(self):
        a = _small_config(eps_grid=(0.1,), methods=("OLS", "TM-PlugIn"))
        b = _small_config(eps_grid=(0.1,), methods=("TM-PlugIn", "OLS"))
        losses_a = {(r.method, r.trial): r.loss for r in run_experiment(a)}
        losses_b = {(r.method, r.trial): r.loss for r in run_experiment(b)}
        assert losses_a == losses_b

    def test_shared_dataset_across_methods(self):
        # OLS sees the contaminated rows, so at eps=0.2 with a clean-looking
        # trimmed fit the gap certifies both ran on the same planted data
        cfg = _small_config(
            n=100, d=5, eps_grid=(0.2,), trials=3, methods=("OLS", "TM-PlugIn")
        )
        recs = run_experiment(cfg)
        by_method = {m: [r.loss for r in recs if r.method == m] for m in cfg.methods}
        assert min(by_method["OLS"]) > 50.0
        assert max(by_method["TM-PlugIn"]) < 5.0

    def test_solver_failure_records_inf(self):
        # 2k >= n makes the trimmed methods fail; the cell must still complete
        cfg = _small_config(
            n=8, d=2, eps_grid=(0.2,), trials=2, methods=("TM-PlugIn", "OLS")
        )
        recs = run_experiment(cfg)  # k = 1 + 5 = 6, 2k = 12 >= 8
        plug = [r.loss for r in recs if r.method == "TM-PlugIn"]
        ols = [r.loss for r in recs if r.method == "OLS"]
        assert all(math.isinf(v) for v in plug)
        assert all(math.isfinite(v) for v in ols)

    def test_parallel_equals_serial(self):
        cfg = _small_config(eps_grid=(0.1,), trials=8)
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=4)

    def test_setup_b_runs(self):
        cfg = ExperimentConfig(
            setup="B", n=60, d=4, p=0.5, eps_grid=(0.1,),
            methods=("OLS", "TM-AASD", "MoM", "Best-MoM"), trials=2, base_seed=3,
        )
        recs = run_experiment(cfg)
        assert len(recs) == 8
        assert all(math.isfinite(r.loss) for r in recs)

    def test_zero_init_rule(self):
        cfg = _small_config(eps_grid=(0.0,), init_rule="zeros", trials=2)
        recs = run_experiment(cfg)
        assert all(math.isfinite(r.loss) for r in recs)


class TestPool:
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(
        setup=st.sampled_from("AB"),
        n=st.integers(12, 30),
        d=st.integers(1, 3),
        eps_grid=st.lists(
            st.sampled_from((0.0, 0.05, 0.1, 0.2)), min_size=2, max_size=3,
            unique=True,
        ),
        methods=st.lists(
            st.sampled_from(METHODS), min_size=1, max_size=3, unique=True
        ),
        trials=st.integers(1, 3),
        base_seed=st.integers(0, 2**32),
    )
    def test_pool_records_equal_serial(self, **fields):
        cfg = ExperimentConfig(
            eps_grid=tuple(fields.pop("eps_grid")),
            methods=tuple(fields.pop("methods")),
            gd=GdConfig(max_iters=30),
            **fields,
        )
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=2)

    def test_one_pool_per_run(self, monkeypatch):
        sizes = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        cfg = _small_config(eps_grid=(0.0, 0.1), trials=2)
        recs = run_experiment(cfg, workers=2)
        assert sizes == [2]
        assert recs == run_experiment(cfg)
        # a worker is forked per slot, so a pool gets no more slots than tasks
        two_tasks = _small_config(eps_grid=(0.1,), trials=2)
        assert run_experiment(two_tasks, workers=4) == run_experiment(two_tasks)
        assert sizes == [2, 2]


class TestSummarize:
    def test_single_record(self):
        rec = TrialRecord("A", 10, 2, 0.0, 0.0, "normal", "OLS", 0, 1, 3.5)
        stats = summarize([rec])
        s = stats[("A", 10, 2, 0.0, 0.0, "normal", "OLS")]
        assert s.mean == s.median == 3.5
        assert s.std == 0.0

    def test_four_records(self):
        recs = [
            TrialRecord("A", 10, 2, 0.0, 0.0, "normal", "OLS", t, t, float(v))
            for t, v in enumerate([1, 2, 3, 4])
        ]
        s = summarize(recs)[("A", 10, 2, 0.0, 0.0, "normal", "OLS")]
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.q1 == 1.75  # type-7 linear interpolation
        assert s.q3 == 3.25
        assert s.min == 1.0 and s.max == 4.0
        assert s.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_quantile_ordering_invariant(self):
        rng = np.random.default_rng(0)
        s = SummaryStats.from_losses(rng.standard_cauchy(101) ** 2)
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max

    @pytest.mark.filterwarnings("error")
    def test_failed_fit_alone(self):
        s = SummaryStats.from_losses([math.inf])
        assert (s.mean, s.std, s.min, s.max) == (math.inf, 0.0, math.inf, math.inf)
        assert (s.q1, s.median, s.q3) == (math.inf, math.inf, math.inf)

    @pytest.mark.filterwarnings("error")
    def test_failed_fit_beside_one_loss(self):
        # every quartile interpolates toward the inf
        s = SummaryStats.from_losses([1.0, math.inf])
        assert (s.q1, s.median, s.q3) == (math.inf, math.inf, math.inf)
        assert (s.min, s.max, s.std) == (1.0, math.inf, math.inf)

    @pytest.mark.filterwarnings("error")
    def test_failed_fit_keeps_order_statistics(self):
        # type-7 positions 1, 2 and 3 are integers: q3 is exactly 4
        s = SummaryStats.from_losses([1.0, 2.0, 3.0, 4.0, math.inf])
        assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
        assert (s.mean, s.std) == (math.inf, math.inf)

    @pytest.mark.filterwarnings("error")
    def test_failed_fit_above_interpolated_quartiles(self):
        # type-7 positions 0.75 and 1.5 interpolate between finite losses,
        # and 2.25 interpolates toward the inf
        s = SummaryStats.from_losses([1.0, 2.0, 3.0, math.inf])
        assert (s.q1, s.median, s.q3) == (1.75, 2.5, math.inf)
        assert (s.mean, s.std) == (math.inf, math.inf)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1e6, allow_subnormal=False),
                st.integers(0, 3).map(float),  # ties
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_finite_losses_match_numpy_bits(self, losses):
        s = SummaryStats.from_losses(losses)
        arr = np.asarray(losses)
        expected = np.percentile(arr, [25.0, 50.0, 75.0]).tolist()
        assert [s.q1, s.median, s.q3] == expected
        assert s.std == float(arr.std(ddof=1))
        assert (s.mean, s.min, s.max) == (arr.mean(), arr.min(), arr.max())

    def test_delta_percent_matches_comparison_table(self):
        assert math.trunc(delta_percent(0.725, 0.581)) == -19


class TestEmit:
    def test_csv_headers_and_precision(self, tmp_path):
        rec = TrialRecord("A", 10, 2, 0.5, 0.1, "t1", "OLS", 0, 123, 1.0 / 3.0)
        paths = emit([rec], summarize([rec]), tmp_path, "csv")
        trials = (tmp_path / "trials.csv").read_text().split("\n")
        assert trials[0] == "setup,n,d,rho_or_p,eps,error_dist,method,trial,seed,loss"
        assert "0.33333333333333331" in trials[1]
        summary = (tmp_path / "summary.csv").read_text().split("\n")
        assert summary[0] == (
            "setup,n,d,rho_or_p,eps,error_dist,method,mean,std,min,q1,median,q3,max"
        )
        assert len(paths) == 2

    def test_empty_records_header_only(self, tmp_path):
        emit([], {}, tmp_path, "csv")
        assert (tmp_path / "trials.csv").read_text().count("\n") == 1

    def test_json_round_trip(self, tmp_path):
        cfg = _small_config(trials=3)
        recs = run_experiment(cfg)
        emit(recs, summarize(recs), tmp_path, "json")
        with open(tmp_path / "trials.json", encoding="ascii") as fh:
            back = [TrialRecord(**row) for row in json.load(fh)]
        assert back == recs

    def test_rerun_byte_identical(self, tmp_path):
        cfg = _small_config(trials=4)
        for sub, workers in (("a", 1), ("b", 3)):
            recs = run_experiment(cfg, workers=workers)
            emit(recs, summarize(recs), tmp_path / sub, "csv")
        for name in ("trials.csv", "summary.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_rows_sorted(self, tmp_path):
        cfg = _small_config(trials=3)
        recs = run_experiment(cfg)
        emit(list(reversed(recs)), summarize(recs), tmp_path, "csv")
        lines = (tmp_path / "trials.csv").read_text().strip().split("\n")[1:]
        keys = [
            (ln.split(",")[4], ln.split(",")[6], int(ln.split(",")[7]))
            for ln in lines
        ]
        assert keys == sorted(keys)

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], {}, tmp_path, "yaml")

    def test_golden_bytes(self, tmp_path):
        # Hand-built rows, no solver: a loss of 1/3, an inf loss, a seed of
        # 2^63 + 5, eps 0.0 and one Setup-B row, given out of order.
        seed = 2**63 + 5
        recs = [
            TrialRecord("B", 40, 3, 0.3, 0.2, "normal", "OLS", 1, 7, 2.0),
            TrialRecord("A", 10, 2, 0.5, 0.0, "t1", "TM-PlugIn", 0, seed, math.inf,
                        wall_time=0.25),
            TrialRecord("A", 10, 2, 0.5, 0.0, "t1", "OLS", 0, seed, 1.0 / 3.0),
        ]
        third, inf = 1.0 / 3.0, math.inf
        stats = {
            ("B", 40, 3, 0.3, 0.2, "normal", "OLS"):
                SummaryStats(1.5, 0.25, 1.0, 1.25, 1.5, 1.75, 2.0),
            ("A", 10, 2, 0.5, 0.0, "t1", "TM-PlugIn"):
                SummaryStats(inf, 0.0, inf, inf, inf, inf, inf),
            ("A", 10, 2, 0.5, 0.0, "t1", "OLS"):
                SummaryStats(third, 0.0, third, third, third, third, third),
        }
        emit(recs, stats, tmp_path, "csv")
        emit(recs, stats, tmp_path, "json")
        t = "0.33333333333333331"
        expected = {
            "trials.csv": (
                "setup,n,d,rho_or_p,eps,error_dist,method,trial,seed,loss\n"
                f"A,10,2,0.5,0,t1,OLS,0,9223372036854775813,{t}\n"
                "A,10,2,0.5,0,t1,TM-PlugIn,0,9223372036854775813,inf\n"
                "B,40,3,0.29999999999999999,0.20000000000000001,normal,OLS,1,7,2\n"
            ),
            "summary.csv": (
                "setup,n,d,rho_or_p,eps,error_dist,method,"
                "mean,std,min,q1,median,q3,max\n"
                f"A,10,2,0.5,0,t1,OLS,{t},0,{t},{t},{t},{t},{t}\n"
                "A,10,2,0.5,0,t1,TM-PlugIn,inf,0,inf,inf,inf,inf,inf\n"
                "B,40,3,0.29999999999999999,0.20000000000000001,normal,OLS,"
                "1.5,0.25,1,1.25,1.5,1.75,2\n"
            ),
            "trials.json": (
                '[{"d":2,"eps":0.0,"error_dist":"t1","loss":0.3333333333333333,'
                '"method":"OLS","n":10,"rho_or_p":0.5,"seed":9223372036854775813,'
                '"setup":"A","trial":0},'
                '{"d":2,"eps":0.0,"error_dist":"t1","loss":Infinity,'
                '"method":"TM-PlugIn","n":10,"rho_or_p":0.5,'
                '"seed":9223372036854775813,"setup":"A","trial":0},'
                '{"d":3,"eps":0.2,"error_dist":"normal","loss":2.0,'
                '"method":"OLS","n":40,"rho_or_p":0.3,"seed":7,"setup":"B","trial":1}]\n'
            ),
            "summary.json": (
                '[{"d":2,"eps":0.0,"error_dist":"t1","max":0.3333333333333333,'
                '"mean":0.3333333333333333,"median":0.3333333333333333,'
                '"method":"OLS","min":0.3333333333333333,"n":10,'
                '"q1":0.3333333333333333,"q3":0.3333333333333333,'
                '"rho_or_p":0.5,"setup":"A","std":0.0},'
                '{"d":2,"eps":0.0,"error_dist":"t1","max":Infinity,'
                '"mean":Infinity,"median":Infinity,"method":"TM-PlugIn",'
                '"min":Infinity,"n":10,"q1":Infinity,"q3":Infinity,'
                '"rho_or_p":0.5,"setup":"A","std":0.0},'
                '{"d":3,"eps":0.2,"error_dist":"normal","max":2.0,"mean":1.5,'
                '"median":1.5,"method":"OLS","min":1.0,"n":40,"q1":1.25,'
                '"q3":1.75,"rho_or_p":0.3,"setup":"B","std":0.25}]\n'
            ),
        }
        for name, text in expected.items():
            assert (tmp_path / name).read_bytes() == text.encode("ascii"), name

    def test_comparison_row_truncates_toward_zero(self, tmp_path):
        cell = ("A", 120, 20, 0.0, 0.05, "t1")
        stats = {
            cell + ("TM-AASD",): SummaryStats(0.725, 0.5, 0.1, 0.2, 0.7, 0.9, 1.5),
            cell + ("TM-PlugIn",): SummaryStats(0.581, 0.25, 0.1, 0.2, 0.5, 0.7, 1.0),
        }
        path = write_table(
            tmp_path / "comparison.csv", COMPARISON_COLUMNS, comparison_rows(stats)
        )
        assert (tmp_path / "comparison.csv").read_bytes() == (
            b"n,eps,error_dist,aasd_mean,aasd_std,plugin_mean,plugin_std,"
            b"delta_mean_pct,delta_std_pct\n"
            b"120,0.050000000000000003,t1,0.72499999999999998,0.5,"
            b"0.58099999999999996,0.25,-19,-50\n"
        )
        assert path == tmp_path / "comparison.csv"

    @pytest.mark.filterwarnings("error")
    def test_comparison_row_writes_undefined_deltas(self, tmp_path):
        # A failed fit (inf loss) in either method's group, and TM-AASD
        # groups whose std is 0: every undefined delta is written as a
        # non-finite float, the defined ones as truncated integers.
        failed = SummaryStats.from_losses([1.0, math.inf])
        equal = SummaryStats.from_losses([2.0, 2.0])
        cells = [("A", 120, 20, 0.0, eps, "t1") for eps in (0.05, 0.1, 0.2)]
        stats = {}
        for cell, (aasd_stats, plug_stats) in zip(
            cells, [(failed, equal), (equal, failed), (equal, equal)]
        ):
            stats[cell + ("TM-AASD",)] = aasd_stats
            stats[cell + ("TM-PlugIn",)] = plug_stats
        write_table(tmp_path / "comparison.csv", COMPARISON_COLUMNS, comparison_rows(stats))
        assert (tmp_path / "comparison.csv").read_bytes() == (
            b"n,eps,error_dist,aasd_mean,aasd_std,plugin_mean,plugin_std,"
            b"delta_mean_pct,delta_std_pct\n"
            b"120,0.050000000000000003,t1,inf,inf,2,0,nan,nan\n"
            b"120,0.10000000000000001,t1,2,0,inf,inf,inf,inf\n"
            b"120,0.20000000000000001,t1,2,0,2,0,0,nan\n"
        )

    def test_delta_percent_against_zero(self):
        assert delta_percent(0.0, 0.5) == math.inf
        assert delta_percent(0.0, -0.5) == -math.inf
        assert math.isnan(delta_percent(0.0, 0.0))


def test_wall_time_ignored_in_equality():
    a = TrialRecord("A", 10, 2, 0.0, 0.0, "normal", "OLS", 0, 1, 2.0, wall_time=0.5)
    b = TrialRecord("A", 10, 2, 0.0, 0.0, "normal", "OLS", 0, 1, 2.0, wall_time=0.9)
    assert a == b


def test_table_grid_configs_cover_comparison_grid():
    configs = table_grid_configs(trials=2)
    cells = {(c.n, c.error_dist.label) for c in configs}
    assert cells == {
        (n, e) for n in (120, 360) for e in ("normal", "t1", "t2", "t4")
    }
    assert all(c.eps_grid == (0.05, 0.2) for c in configs)
    assert all(c.methods == ("TM-AASD", "TM-PlugIn") for c in configs)


def test_run_trial_wall_time_positive():
    cfg = _small_config(trials=1)
    recs = run_trial(cfg, 0.0, 0)
    assert all(r.wall_time > 0 for r in recs)


class TestChunks:
    """run_experiment runs each eps's trials in chunks; TM-AASD descends a
    chunk as one batch."""

    @staticmethod
    def _aasd_config(**kw):
        return _small_config(
            eps_grid=(0.1,), methods=("TM-AASD", "OLS"),
            gd=GdConfig(max_iters=30), **kw,
        )

    def test_one_aasd_call_per_chunk(self, monkeypatch):
        calls = []
        real = harness.aasd

        def counting(data, *args):
            calls.append(len(data))
            return real(data, *args)

        monkeypatch.setattr(harness, "aasd", counting)
        cfg = self._aasd_config(trials=harness.CHUNK_TRIALS + 3)
        recs = run_experiment(cfg)
        assert calls == [harness.CHUNK_TRIALS, 3]
        assert sorted(r.trial for r in recs if r.method == "TM-AASD") == list(
            range(cfg.trials)
        )

    def test_records_do_not_depend_on_chunking(self, monkeypatch):
        cfg = self._aasd_config(trials=7)
        whole = run_experiment(cfg)
        monkeypatch.setattr(harness, "CHUNK_TRIALS", 3)
        assert run_experiment(cfg) == whole
        assert run_experiment(cfg, workers=2) == whole

    def test_failed_aasd_fit_marks_only_its_trial(self, monkeypatch):
        cfg = self._aasd_config(trials=4)
        assert cfg.trials <= harness.CHUNK_TRIALS  # one chunk
        clean = {(r.method, r.trial): r.loss for r in run_experiment(cfg)}
        make = harness._make_trial_data
        bad_seed = trial_seed(
            cfg.base_seed, "A", cfg.n, cfg.d, cfg.rho, 0.1, "normal", 2
        )

        def overflowing(config, eps, seed):
            # residuals of order 1e200 overflow when squared, so the
            # descent's loss differences are NaN and its fit raises
            data = make(config, eps, seed)
            if seed == bad_seed:
                data = replace(data, y=1e200 + data.y)
            return data

        monkeypatch.setattr(harness, "_make_trial_data", overflowing)
        with np.errstate(over="ignore", invalid="ignore"):
            recs = run_experiment(cfg)
        aasd_losses = {r.trial: r.loss for r in recs if r.method == "TM-AASD"}
        assert math.isinf(aasd_losses.pop(2))
        assert aasd_losses == {t: clean[("TM-AASD", t)] for t in (0, 1, 3)}
        others = {(r.method, r.trial): r.loss for r in recs if r.trial != 2}
        assert others == {key: loss for key, loss in clean.items() if key[1] != 2}
