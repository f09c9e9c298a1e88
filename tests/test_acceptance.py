"""Acceptance gate: every headline criterion at its stated tolerance.

Each check prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py
-v -s`` to see them live). The Monte Carlo checks use the shipped harness
defaults: 240 trials per cell, trimming k = floor(eps*n) + 5, seeded random
initial iterate pair, and the population covariance loss.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from trimreg.bounds import c_epsilon, c_j_epsilon_curve, chernoff_coupling_bound
from trimreg.bounds import MomentProfile, RegressionBoundInputs, UniformBoundInputs
from trimreg.bounds import phi_p_regression, phi_p_uniform, phi_regression
from trimreg.estimators import TrimSpec, phi_uniform, trimmed_mean
from trimreg.harness import (
    ExperimentConfig,
    _initial_pair,
    _make_trial_data,
    emit,
    run_cell,
    run_experiment,
    summarize,
    trial_seed,
    trim_count,
)
from trimreg.regression import (
    GdConfig,
    RegressorPair,
    _loss_diffs,
    aasd,
    active_set,
    fit_least_squares,
    loss_l2,
    plug_in,
)
from trimreg.synthdata import Dataset, ErrorDist, RngSeed, gen_setup_a

WORKERS = min(8, os.cpu_count() or 1)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _run_one_cell(setup, n, error, eps, methods, **kw):
    cfg = ExperimentConfig(
        setup=setup,
        n=n,
        d=20,
        error_dist=error,
        eps_grid=(eps,),
        methods=methods,
        trials=240,
        base_seed=0,
        **kw,
    )
    start = time.perf_counter()
    records = run_cell(cfg, eps, workers=WORKERS)
    elapsed = time.perf_counter() - start
    losses = {
        m: np.array([r.loss for r in records if r.method == m]) for m in methods
    }
    return losses, elapsed


# --- Criterion 1: algorithm-comparison table reproduction ------------------


@pytest.fixture(scope="module")
def cell_plugin_n360_normal():
    return _run_one_cell("A", 360, ErrorDist.normal(), 0.05, ("TM-PlugIn",))


def test_criterion_1a_plugin_n360_normal(cell_plugin_n360_normal):
    losses, elapsed = cell_plugin_n360_normal
    mean = losses["TM-PlugIn"].mean()
    ok = 0.25 <= mean <= 0.38 and elapsed < 120
    _report("criterion-1a", ok, f"plug-in n=360 normal mean={mean:.4f} "
            f"in [0.25, 0.38], {elapsed:.0f}s < 120s")
    assert 0.25 <= mean <= 0.38
    assert elapsed < 120


def test_criterion_1b_plugin_n120_normal():
    losses, _ = _run_one_cell("A", 120, ErrorDist.normal(), 0.05, ("TM-PlugIn",))
    mean = losses["TM-PlugIn"].mean()
    ok = 0.46 <= mean <= 0.70
    _report("criterion-1b", ok, f"plug-in n=120 normal mean={mean:.4f} in [0.46, 0.70]")
    assert ok


def test_criterion_1c_plugin_n120_student1():
    # The difference ranking multiplies each row's noise by
    # x^T(beta_m - beta_M), so a huge-noise row near a zero crossing of that
    # direction can survive trimming. Unchecked refits on the frozen active
    # set let such rows into the fit (trial 27: beta_m's loss went
    # 1.46 -> 18.49 -> 2.27 over three refits; the cell mean was 1.645 at 2
    # refits and 148.2 at 50). plug_in keeps a refit of beta_m only if it
    # lowers the trimmed objective over all rows, and of beta_M only if it
    # raises it (a refit that leaves it equal only if it shrinks the norm),
    # and stops at the fixed point.
    losses, _ = _run_one_cell("A", 120, ErrorDist.student_t(1), 0.05, ("TM-PlugIn",))
    mean = losses["TM-PlugIn"].mean()
    median = float(np.median(losses["TM-PlugIn"]))
    ok = 0.85 <= mean <= 1.45
    _report(
        "criterion-1c", ok,
        f"plug-in n=120 t1 mean={mean:.4f} in [0.85, 1.45] (median={median:.4f})",
    )
    assert ok


def test_criterion_1d_aasd_n120_normal():
    losses, _ = _run_one_cell("A", 120, ErrorDist.normal(), 0.05, ("TM-AASD",))
    mean = losses["TM-AASD"].mean()
    ok = 0.45 <= mean <= 1.1
    _report("criterion-1d", ok, f"aasd n=120 normal mean={mean:.4f} in [0.45, 1.1]")
    assert ok


# --- Criterion 2: clean-data least-squares risk oracle ----------------------


def test_criterion_2_ols_clean_risk():
    start = time.perf_counter()
    losses, _ = _run_one_cell("A", 360, ErrorDist.normal(), 0.0, ("OLS",))
    elapsed = time.perf_counter() - start
    mean_sq = float((losses["OLS"] ** 2).mean())
    target = 20.0 / 339.0  # exact Gaussian OLS risk: sigma^2 d / (n - d - 1)
    ok = abs(mean_sq - target) <= 0.15 * target and elapsed < 30
    _report(
        "criterion-2", ok,
        f"OLS mean squared loss {mean_sq:.5f} within 15% of {target:.5f}, "
        f"{elapsed:.0f}s < 30s",
    )
    assert abs(mean_sq - target) <= 0.15 * target
    assert elapsed < 30


# --- Criterion 3: robust methods beat OLS under heavy tails ----------------


def test_criterion_3_heavy_tail_pattern():
    losses, elapsed = _run_one_cell(
        "A", 360, ErrorDist.student_t(1), 0.1, ("TM-PlugIn", "OLS", "Best-MoM")
    )
    med_tm = float(np.median(losses["TM-PlugIn"]))
    med_ols = float(np.median(losses["OLS"]))
    med_mom = float(np.median(losses["Best-MoM"]))
    ok = med_tm < med_ols and med_tm < 2 * med_mom and elapsed < 300
    _report(
        "criterion-3", ok,
        f"medians: plug-in {med_tm:.3f} < OLS {med_ols:.1f} and "
        f"< 2x Best-MoM {med_mom:.3f}, {elapsed:.0f}s < 300s",
    )
    assert med_tm < med_ols
    assert med_tm < 2 * med_mom
    assert elapsed < 300


# --- Criterion 4: masked design favors plain least squares -----------------


def test_criterion_4_masked_design_pattern():
    losses, elapsed = _run_one_cell(
        "B", 1000, ErrorDist.normal(), 0.2, ("TM-AASD", "OLS"), p=0.3
    )
    med_ols = float(np.median(losses["OLS"]))
    med_tm = float(np.median(losses["TM-AASD"]))
    ok = med_ols <= med_tm and elapsed < 180
    _report(
        "criterion-4", ok,
        f"median OLS {med_ols:.3f} <= median TM {med_tm:.3f}, "
        f"{elapsed:.0f}s < 180s",
    )
    assert med_ols <= med_tm
    assert elapsed < 180


def test_criterion_4_companion_aasd_stays_at_start():
    # What criterion 4 measures for TM-AASD: in its cell every active row
    # at the seeded start has X = 0, so the active-set gradient is zero and
    # the descent returns its start. Trimming discards the informative rows.
    n, eps = 1000, 0.2
    config = ExperimentConfig(setup="B", n=n, p=0.3, eps_grid=(eps,))
    k = trim_count(eps, n)
    zero_rows = at_start = 0
    for trial in range(8):
        seed = trial_seed(0, "B", n, config.d, config.p, eps, "normal", trial)
        data = _make_trial_data(config, eps, seed)
        init = _initial_pair(config, seed)
        zero_rows += not data.X[active_set(init, data, k)].any()
        pair = aasd(data, k, config.gd, init)
        at_start += np.array_equal(pair.beta_m, init.beta_m) and np.array_equal(
            pair.beta_M, init.beta_M
        )
    ok = zero_rows == at_start == 8
    _report(
        "criterion-4-companion", ok,
        f"all-zero active rows at the start in {zero_rows}/8 trials, "
        f"TM-AASD returns its start in {at_start}/8",
    )
    assert zero_rows == 8
    assert at_start == 8


# --- Criterion 5: constants ---------------------------------------------------


def test_criterion_5_constants():
    exact = all(c_epsilon(e) == 768.0 for e in (0.01, 0.1, 0.2, 0.25))
    grid = np.arange(0.2525, 0.49, 0.0025)
    curve = [v for _, v in c_j_epsilon_curve(grid)]
    finite = all(math.isfinite(v) for v in curve)
    increasing = all(b > a for a, b in zip(curve, curve[1:]))
    ok = exact and finite and increasing
    _report(
        "criterion-5", ok,
        "c_epsilon == 768 on {0.01,0.1,0.2,0.25}; family-constant curve "
        "finite and strictly increasing on (0.25, 0.49)",
    )
    assert exact and finite and increasing


# --- Criterion 6: coupling bound is conservative ----------------------------


def test_criterion_6_chernoff_coupling():
    start = time.perf_counter()
    bound = chernoff_coupling_bound(200, 0.05, 0.15)
    gen = RngSeed(606).generator()
    hits = 0
    for _ in range(2000):
        hits += int(gen.binomial(200, 0.05) <= 0.15 * 200)
    freq = hits / 2000
    elapsed = time.perf_counter() - start
    ok = freq >= bound - 0.02 and elapsed < 5
    _report(
        "criterion-6", ok,
        f"empirical {freq:.4f} >= bound {bound:.4f} - 0.02, {elapsed:.2f}s < 5s",
    )
    assert freq >= bound - 0.02
    assert elapsed < 5


# --- Criterion 7: property suites -------------------------------------------


def test_criterion_7a_trimmed_mean_invariants():
    rng = np.random.default_rng(700)
    for _ in range(1000):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, (n - 1) // 2 + 1))
        spec = TrimSpec(k, n)
        x = rng.standard_normal(n)
        # permutation invariance
        assert trimmed_mean(x, spec) == trimmed_mean(x[rng.permutation(n)], spec)
        # affine equivariance
        a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-5, 5))
        assert trimmed_mean(a * x + b, spec) == pytest.approx(
            a * trimmed_mean(x, spec) + b, rel=1e-10, abs=1e-10
        )
        # bounded influence: huge corruption level is irrelevant bitwise
        m = int(rng.integers(1, k + 1))
        where = rng.choice(n, size=m, replace=False)
        signs = rng.choice([-1.0, 1.0], size=m)
        lo, hi = x.copy(), x.copy()
        lo[where], hi[where] = signs * 1e6, signs * 1e12
        assert trimmed_mean(lo, spec) == trimmed_mean(hi, spec)
        # monotonicity in any single entry
        bumped = x.copy()
        bumped[int(rng.integers(0, n))] += float(rng.uniform(0, 10))
        assert trimmed_mean(bumped, spec) >= trimmed_mean(x, spec) - 1e-12
    _report("criterion-7a", True, "trimmed-mean invariants, 1000 cases each")


def test_criterion_7b_active_set_consistency():
    rng = np.random.default_rng(701)
    for _ in range(200):
        n = int(rng.integers(4, 50))
        d = int(rng.integers(1, 6))
        data = Dataset(X=rng.standard_normal((n, d)), y=rng.standard_normal(n))
        k = int(rng.integers(0, (n - 1) // 2 + 1))
        pair = RegressorPair(rng.standard_normal(d), rng.standard_normal(d))
        idx = active_set(pair, data, k)
        assert idx.size == n - 2 * k
        diffs = _loss_diffs(data.X, data.y, pair.beta_m, pair.beta_M)
        assert diffs[idx].mean() == pytest.approx(
            trimmed_mean(diffs, TrimSpec(k, n)), rel=1e-10, abs=1e-12
        )
    _report("criterion-7b", True, "active-set cardinality and trimmed-mean consistency")


def test_criterion_7c_least_squares_orthogonality():
    rng = np.random.default_rng(702)
    for _ in range(100):
        n = int(rng.integers(5, 80))
        d = int(rng.integers(1, min(n, 10) + 1))
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        beta = fit_least_squares(X, y)
        assert np.abs(X.T @ (y - X @ beta)).max() <= 1e-8 * (
            1.0 + np.abs(X.T @ y).max()
        )
    _report("criterion-7c", True, "normal-equation residual <= 1e-8 relative, 100 systems")


def test_criterion_7d_descent_methods_match_ols_untrimmed():
    cfg = GdConfig(tol_delta=1e-6, max_iters=5000)
    for seed in range(20):
        data_rng = RngSeed(7000 + seed)
        data = gen_setup_a(100, 5, 0.0, ErrorDist.normal(), np.ones(5), data_rng)
        ols = fit_least_squares(data.X, data.y)
        gd = aasd(data, 0, cfg, RegressorPair.zeros(5))
        refit = plug_in(data, 0, RegressorPair.zeros(5), iters=2)
        assert loss_l2(gd.beta_m, ols, data.pop_cov) < 1e-4
        assert loss_l2(refit.beta_m, ols, data.pop_cov) < 1e-4
    _report("criterion-7d", True, "aasd(k=0) and plug_in(k=0) within 1e-4 of OLS, 20 instances")


def test_criterion_7e_byte_determinism_serial_vs_parallel(tmp_path):
    cfg = ExperimentConfig(
        setup="A",
        n=60,
        d=5,
        eps_grid=(0.0, 0.1),
        methods=("OLS", "TM-PlugIn", "MoM"),
        trials=16,
        base_seed=77,
    )
    for sub, workers in (("serial", 1), ("parallel", 8)):
        records = run_experiment(cfg, workers=workers)
        emit(records, summarize(records), tmp_path / sub, "csv")
    same = all(
        (tmp_path / "serial" / name).read_bytes()
        == (tmp_path / "parallel" / name).read_bytes()
        for name in ("trials.csv", "summary.csv")
    )
    _report("criterion-7e", same, "emitted bytes identical, serial vs 8 workers")
    assert same


# --- Criterion 8: bound-formula oracles --------------------------------------


def test_criterion_8_phi_formula_oracles():
    # independent evaluation with exact rational arithmetic for the
    # floor/ceil parts and the log evaluated directly
    n, eps, alpha = 1000, Fraction(1, 20), Fraction(1, 20)
    uniform_count = math.floor(eps * n) + max(
        math.ceil(math.log(2 / float(alpha))),
        math.ceil(min(Fraction(1, 2) - eps, eps) / 2 * n),
    )
    regression_count = math.floor(eps * n) + max(
        math.ceil(math.log(3 / float(alpha))), math.ceil(eps * n / 2)
    )
    assert uniform_count == 75 and regression_count == 75
    got_u = phi_uniform(1000, 0.05, 0.05)
    got_r = phi_regression(1000, 0.05, 0.05).phi
    ok = got_u == uniform_count / n == 0.075 and got_r == regression_count / n
    _report(
        "criterion-8a", ok,
        f"phi_uniform={got_u}, phi_regression={got_r}, both 0.075 by exact oracle",
    )
    assert ok


def test_criterion_8_monotonicity_grids():
    nu = MomentProfile(((1.0, 1.0), (2.0, 1.0), (4.0, 1.0)))
    n_grid = np.unique(np.logspace(1, 5, 20).astype(int))
    eps_grid = np.linspace(0.0, 0.45, 20)
    uni = np.array(
        [
            [
                phi_p_uniform(UniformBoundInputs(0.1, nu, int(n), float(e), 0.05))
                for e in eps_grid
            ]
            for n in n_grid
        ]
    )
    reg = np.array(
        [
            [
                phi_p_regression(
                    RegressionBoundInputs(1.5, 0.2, 0.1, nu, int(n), float(e), 0.05)
                )
                for e in eps_grid
            ]
            for n in n_grid
        ]
    )
    ok = True
    for mat in (uni, reg):
        ok &= bool(np.all(np.diff(mat, axis=1) >= -1e-9))  # nondecreasing in eps
        ok &= bool(np.all(np.diff(mat, axis=0) <= 1e-9))  # nonincreasing in n
    _report("criterion-8b", ok, "20x20 (n, eps) monotonicity grids for both bounds")
    assert ok
