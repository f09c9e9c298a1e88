import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trimreg.estimators import TrimSpec, trimmed_mean
from trimreg.harness import (
    ExperimentConfig,
    _initial_pair,
    _make_trial_data,
    trial_seed,
    trim_count,
)
import trimreg.regression as regression
from trimreg.regression import (
    CONCENTRATION_CAP,
    GRAM_COND_MAX,
    LINE_SEARCH_CAP,
    THETA,
    ZERO_DIFF_RTOL,
    GdConfig,
    RegressorPair,
    _armijo_step,
    _bucket_gradients,
    _bucket_grams,
    _bucket_layout,
    _descend,
    _evaluate,
    _loss_diffs,
    _median_buckets,
    _mom_descent,
    _mom_layout,
    _select_active,
    _squared_residuals,
    _take_steps,
    aasd,
    active_set,
    best_mom,
    divisors,
    fit_least_squares,
    loss_l2,
    mom_regression,
    plug_in,
)
from trimreg.synthdata import (
    Dataset,
    ErrorDist,
    RngSeed,
    contaminate_a,
    contaminate_b,
    gen_setup_a,
    gen_setup_b,
)


def _clean_data(n=100, d=5, seed=0):
    beta = np.arange(1.0, d + 1.0)
    return gen_setup_a(n, d, 0.0, ErrorDist.normal(), beta, RngSeed(seed))


# Largest max-norm difference, relative to the max norm of lstsq's answer,
# allowed between fit_least_squares and lstsq where the normal equations
# solve; systems of every spectrum up to the guard have kept within 7e-11.
LSTSQ_RTOL = 1e-9


def _agrees_with_lstsq(beta, X, y) -> bool:
    want = np.linalg.lstsq(X, y, rcond=None)[0]
    return np.abs(beta - want).max() <= LSTSQ_RTOL * np.abs(want).max()


def _meets_residual_bound(beta, X, y) -> bool:
    # the normal-equation residual bound of fit_least_squares' docstring
    return np.abs(X.T @ (y - X @ beta)).max() <= 1e-8 * (1.0 + np.abs(X.T @ y).max())


def _spectrum_system(s, m, seed):
    """An m-by-len(s) design with singular values s, and a response."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, len(s))))[0]
    V = np.linalg.qr(rng.standard_normal((len(s), len(s))))[0]
    return (U * s) @ V.T, rng.standard_normal(m)


def _guard_system(bound):
    """A 12-by-3 system whose Gram matrix has tr(G) * tr(G^-1) = bound.

    Singular values (1, 1, s) give (2 + s^2)(2 + 1/s^2) = 5 + 2 s^2 + 2/s^2,
    which is ``bound`` at the smaller root s^2 of 2 s^4 + (5 - bound) s^2 + 2.
    """
    c = bound - 5.0
    s2 = (c - math.sqrt(c * c - 16.0)) / 4.0
    return _spectrum_system(np.array([1.0, 1.0, math.sqrt(s2)]), 12, 11)


def _lstsq_calls(X, y):
    """fit_least_squares(X, y) and how many times it called lstsq."""
    calls = []
    real = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", spy)
        beta = fit_least_squares(X, y)
    return beta, len(calls)


class TestFitLeastSquares:
    def test_exact_interpolation(self):
        beta = fit_least_squares(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
        assert beta == pytest.approx([2.0])

    def test_zero_response_gives_zero(self):
        X = np.random.default_rng(0).standard_normal((6, 3))
        assert np.array_equal(fit_least_squares(X, np.zeros(6)), np.zeros(3))

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 60))
            d = int(rng.integers(1, min(n, 8) + 1))
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            beta = fit_least_squares(X, y)
            resid = np.abs(X.T @ (y - X @ beta)).max()
            assert resid <= 1e-8 * (1.0 + np.abs(X.T @ y).max())

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 4))
        y = rng.standard_normal(40)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.allclose(fit_least_squares(X, y), oracle, rtol=1e-8)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.standard_normal((30, 4))
            y = rng.standard_normal(30)
            v = rng.standard_normal(4)
            base = fit_least_squares(X, y)
            shifted = fit_least_squares(X, y + X @ v)
            assert np.allclose(shifted, base + v, atol=1e-8)

    def test_rank_deficient_minimum_norm(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([2.0, 4.0, 6.0])
        beta = fit_least_squares(X, y)
        assert np.allclose(beta, [1.0, 1.0], atol=1e-10)  # min-norm solution

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fit_least_squares(np.array([[np.inf]]), np.array([1.0]))
        for bad in (np.nan, np.inf, -np.inf):
            X, y = np.eye(3), np.ones(3)
            X[1, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                fit_least_squares(X, y)
            X, y = np.eye(3), np.ones(3)
            y[2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                fit_least_squares(X, y)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        d=st.integers(1, 6),
        zeros=st.integers(1, 40),
        y_scale=st.floats(0.0, 1e6),
    )
    def test_zero_rows_leave_the_solution(self, seed, m, d, zeros, y_scale):
        # an exactly-zero row adds y_i^2 to the SSE whatever beta is, so
        # inserting such rows with any responses keeps the min-norm minimizer
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, d))
        y = rng.standard_normal(m)
        base = fit_least_squares(X, y)
        assert _agrees_with_lstsq(base, X, y)
        at = rng.integers(0, m + 1, size=zeros)
        Xz = np.insert(X, at, 0.0, axis=0)
        yz = np.insert(y, at, y_scale * rng.standard_normal(zeros))
        assert np.allclose(fit_least_squares(Xz, yz), base, rtol=1e-9, atol=1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(0, 12),
        d=st.integers(1, 8),
        zeros=st.integers(1, 30),
        y_scale=st.sampled_from([0.0, 1.0, 1e-300, 1e6, 1e300]),
    )
    def test_zero_rows_change_no_bit(self, seed, m, d, zeros, y_scale):
        # the solve on the rows that carry covariates is the whole solve, so
        # plug_in may hand over only those; m < d and m = 0 (every row zero,
        # answer the zero vector) are drawn too, and the zeros carry either sign
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, d))
        y = rng.standard_normal(m)
        base = fit_least_squares(X, y) if m else np.zeros(d)
        at = rng.integers(0, m + 1, size=zeros)
        signed = np.where(rng.random((zeros, d)) < 0.5, 0.0, -0.0)
        Xz = np.insert(X, at, signed, axis=0)
        yz = np.insert(y, at, y_scale * rng.standard_normal(zeros))
        assert np.array_equal(fit_least_squares(Xz, yz), base)

    def test_rank_cutoff_is_that_of_the_rows_solved(self):
        # sigma_2 / sigma_1 = 1e-14 lies between eps * 2 and eps * 1002: a
        # cutoff taken over the zero rows as well would drop it
        X = np.array([[1.0, 0.0], [0.0, 1e-14]])
        y = np.array([1.0, 1.0])
        base = fit_least_squares(X, y)
        assert np.array_equal(base, np.linalg.lstsq(X, y, rcond=None)[0])
        assert base[1] == pytest.approx(1e14)
        Xz = np.vstack([X, np.zeros((1000, 2))])
        yz = np.concatenate([y, np.ones(1000)])
        assert np.array_equal(fit_least_squares(Xz, yz), base)

    def test_normal_equations_on_well_conditioned_draws(self):
        # Gaussian draws, and Setup-A and Setup-B designs with d = 20 (whole,
        # and row subsets as a refit gets them), solve from the normal
        # equations and agree with lstsq
        rng = np.random.default_rng(12)
        systems = []
        for _ in range(60):
            d = int(rng.integers(1, 21))
            m = int(rng.integers(2 * d, 6 * d + 1))
            systems.append((rng.standard_normal((m, d)), rng.standard_normal(m)))
        beta = np.ones(20)
        designs = []
        for seed in range(4):
            for n in (120, 360):
                clean = gen_setup_a(n, 20, 0.5, ErrorDist.student_t(1), beta, RngSeed(seed))
                designs.append(contaminate_a(clean, 0.1, RngSeed(seed, 1)))
            clean, mask = gen_setup_b(1000, 20, 0.3, beta, RngSeed(seed))
            designs.append(contaminate_b(clean, mask, 0.2, RngSeed(seed, 1)))
            designs.append(gen_setup_b(200, 20, 0.6, beta, RngSeed(seed))[0])
        for ds in designs:
            rows = np.sort(rng.permutation(ds.n)[: ds.n // 2])
            systems += [(ds.X, ds.y), (ds.X[rows], ds.y[rows])]
        for X, y in systems:
            got, lstsq_calls = _lstsq_calls(X, y)
            assert lstsq_calls == 0
            assert _agrees_with_lstsq(got, X, y)
            assert _meets_residual_bound(got, X, y)

    @pytest.mark.parametrize(
        "case",
        ["fewer_rows", "square_near_singular", "collinear", "gram_overflow", "past_guard"],
    )
    def test_fallbacks_give_lstsq_bits(self, case):
        rng = np.random.default_rng(13)
        if case == "fewer_rows":
            X, y = rng.standard_normal((4, 6)), rng.standard_normal(4)
        elif case == "square_near_singular":
            X, y = _spectrum_system(np.array([1.0, 0.5, 0.2, 1e-9]), 4, 13)
        elif case == "collinear":
            X, y = rng.standard_normal((30, 4)), rng.standard_normal(30)
            X[:, 3] = 2.0 * X[:, 1]
        elif case == "gram_overflow":
            X, y = 1e160 * rng.standard_normal((30, 4)), rng.standard_normal(30)
            assert np.all(np.isfinite(X)) and not np.all(np.isfinite(X.T @ X))
        else:
            X, y = _guard_system(GRAM_COND_MAX * 1.001)
        got, lstsq_calls = _lstsq_calls(X, y)
        assert lstsq_calls == 1
        assert np.array_equal(got, np.linalg.lstsq(X, y, rcond=None)[0])

    def test_normal_equations_just_inside_the_guard(self):
        # the system of the past_guard case above, a little better conditioned
        X, y = _guard_system(GRAM_COND_MAX * 0.999)
        got, lstsq_calls = _lstsq_calls(X, y)
        assert lstsq_calls == 0
        assert _agrees_with_lstsq(got, X, y)
        assert _meets_residual_bound(got, X, y)

    def test_all_zero_rows_give_zeros(self):
        y = np.random.default_rng(5).standard_normal(7)
        for X in (np.zeros((7, 3)), np.full((7, 3), -0.0)):
            beta = fit_least_squares(X, y)
            assert beta.shape == (3,)
            assert np.array_equal(beta, np.zeros(3))


class TestActiveSet:
    def test_hand_example(self):
        # d=1: x=[1,1,1,1], y=[0,1,2,10]; diffs are 2y-1 = [-1,1,3,19];
        # k=1 drops -1 and 19
        data = Dataset(X=np.ones((4, 1)), y=np.array([0.0, 1.0, 2.0, 10.0]))
        pair = RegressorPair(np.array([0.0]), np.array([1.0]))
        idx = active_set(pair, data, 1)
        assert idx.tolist() == [1, 2]

    def test_all_ties_keeps_middle(self):
        data = _clean_data(10, 3)
        pair = RegressorPair(np.ones(3), np.ones(3))
        idx = active_set(pair, data, 2)
        assert idx.tolist() == [2, 3, 4, 5, 6, 7]

    def test_k_zero_is_everything(self):
        data = _clean_data(12, 3)
        pair = RegressorPair.zeros(3)
        assert active_set(pair, data, 0).tolist() == list(range(12))

    def test_cardinality_and_trimmed_mean_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            d = int(rng.integers(1, 5))
            data = Dataset(X=rng.standard_normal((n, d)), y=rng.standard_normal(n))
            k = int(rng.integers(0, (n - 1) // 2 + 1))
            pair = RegressorPair(rng.standard_normal(d), rng.standard_normal(d))
            idx = active_set(pair, data, k)
            assert idx.size == n - 2 * k
            assert np.all(np.diff(idx) > 0)
            diffs = _loss_diffs(data.X, data.y, pair.beta_m, pair.beta_M)
            assert diffs[idx].mean() == pytest.approx(
                trimmed_mean(diffs, TrimSpec(k, n)), rel=1e-10, abs=1e-12
            )

    def test_rejects_overtrimming(self):
        data = _clean_data(6, 2)
        with pytest.raises(ValueError):
            active_set(RegressorPair.zeros(2), data, 3)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 120),
        d=st.integers(1, 3),
        levels=st.integers(1, 3),
        zeroed=st.floats(0.0, 0.8),
        k_frac=st.floats(0.0, 1.0),
    )
    def test_matches_python_trim_of_value_index_pairs(
        self, seed, n, d, levels, zeroed, k_frac
    ):
        # integer data with zeroed rows, as Setup B's masked rows give: loss
        # differences are exact integers and tie often
        rng = np.random.default_rng(seed)
        X = rng.integers(-levels, levels + 1, size=(n, d)).astype(float)
        X[rng.random(n) < zeroed] = 0.0
        y = rng.integers(-levels, levels + 1, size=n).astype(float)
        pair = RegressorPair(
            rng.integers(-1, 2, size=d).astype(float),
            rng.integers(-1, 2, size=d).astype(float),
        )
        k = int(k_frac * ((n - 1) // 2))
        data = Dataset(X=X, y=y)
        diffs = _loss_diffs(X, y, pair.beta_m, pair.beta_M).tolist()
        ranked = sorted(range(n), key=lambda i: (diffs[i], i))
        assert active_set(pair, data, k).tolist() == sorted(ranked[k : n - k])

    def test_overflowing_residuals_raise(self):
        # squared residuals that overflow leave inf - inf loss differences,
        # which rank nowhere
        data = Dataset(X=np.ones((6, 1)), y=np.full(6, 1e200))
        pair = RegressorPair(np.array([0.0]), np.array([1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="NaN"):
                active_set(pair, data, 1)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        k_frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        levels=st.integers(0, 4),
        straddles=st.lists(
            st.sampled_from(["none", "lo", "hi", "both", "lo == hi"]),
            min_size=1,
            max_size=5,
        ),
        below=st.integers(1, 12),
        above=st.integers(1, 12),
    )
    def test_selection_matches_python_rank_of_value_index_pairs(
        self, seed, n, k_frac, levels, straddles, below, above
    ):
        # a stack of rows, one per straddle kind: integer values tie often;
        # a run of one value is laid across the lower cut (between ranks
        # k-1 and k), the upper cut (between ranks n-k-1 and n-k), both, or
        # from one cut to the other; zeros come as 0.0 and -0.0 mixed
        rng = np.random.default_rng(seed)
        k = int(k_frac * ((n - 1) // 2))
        stack = []
        for straddle in straddles:
            ranked = np.sort(rng.integers(-levels, levels + 1, size=n).astype(float))
            runs = {
                "none": [],
                "lo": [(k - below, k + above)],
                "hi": [(n - k - below, n - k + above)],
                "both": [(k - below, k + above), (n - k - below, n - k + above)],
                "lo == hi": [(k - below, n - k + above)],
            }[straddle]
            for start, stop in runs:
                start, stop = max(start, 0), min(stop, n)
                # a block of a sorted vector set to one of its own values
                # stays sorted
                ranked[start:stop] = ranked[rng.integers(start, stop)]
            row = rng.permutation(ranked)
            zeros = np.flatnonzero(row == 0.0)
            row[zeros] = rng.choice([0.0, -0.0], size=zeros.size)
            stack.append(row)
        diffs = np.array(stack)

        values, got = _select_active(diffs, k)
        m = n - 2 * k
        assert got.dtype == np.intp
        assert got.shape == (len(stack) * m,)
        for t, row in enumerate(diffs):
            order = sorted(range(n), key=lambda i: (row[i], i))
            want = sorted(order[k : n - k])
            assert (got[t * m : (t + 1) * m] - t * n).tolist() == want
            assert np.array_equal(values[t], np.sort(row))

    def test_fits_keep_the_bits_of_a_stable_argsort_selection(self):
        # reference selection: the middle of a stable argsort of each row,
        # which ranks by (value, index)
        def argsort_selection(diffs, k):
            T, n = diffs.shape
            order = np.argsort(diffs, axis=1, kind="stable")
            rows = np.sort(order[:, k : n - k], axis=1) + n * np.arange(T)[:, None]
            return np.sort(diffs, axis=1), rows.ravel()

        def fits(fit, k, problems):
            pairs = [fit(data, k, init=init) for data, init in problems]
            if fit is aasd:
                # the batched descent, and the descent at k = 0, select too
                datasets, inits = map(list, zip(*problems))
                pairs += aasd(datasets, k, init=inits)
                pairs += aasd(datasets, 0, GdConfig(max_iters=50), inits)
            return pairs

        t1, t2 = ErrorDist.student_t(1), ErrorDist.student_t(2)
        cells = [
            (aasd, ExperimentConfig(setup="A", n=120, error_dist=t2), 0.2),
            (aasd, ExperimentConfig(setup="A", n=360, error_dist=t1), 0.05),
            (aasd, ExperimentConfig(setup="B", n=200, p=0.3), 0.1),
            (plug_in, ExperimentConfig(setup="B", n=1000, p=0.3), 0.0),
            (plug_in, ExperimentConfig(setup="B", n=1000, p=0.3), 0.2),
            (plug_in, ExperimentConfig(setup="A", n=120, error_dist=t1), 0.1),
        ]
        for fit, config, eps in cells:
            k = trim_count(eps, config.n)
            problems = []
            for trial in range(2):
                seed = trial_seed(
                    0, config.setup, config.n, config.d, config.rho_or_p, eps,
                    config.error_dist.label, trial,
                )
                problems.append(
                    (_make_trial_data(config, eps, seed), _initial_pair(config, seed))
                )
            got = fits(fit, k, problems)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(regression, "_select_active", argsort_selection)
                want = fits(fit, k, problems)
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g.beta_m, w.beta_m)
                assert np.array_equal(g.beta_M, w.beta_M)


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestOneSortEvaluation:
    """_evaluate's one sort of the values gives the bits of a trimmed mean
    and an active set each computed from their own sort, after differences
    within the tolerance of zero are set to zero."""

    @staticmethod
    def _two_sorts(diffs, k, tol):
        # the active set is the middle of a stable argsort, which ranks by
        # (value, index)
        diffs = np.where(np.abs(diffs) <= tol, 0.0, diffs)
        order = np.argsort(diffs, kind="stable")
        return (
            trimmed_mean(diffs, TrimSpec(k, diffs.size)),
            np.sort(order[k : diffs.size - k]),
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 80),
        d=st.integers(1, 3),
        levels=st.integers(1, 3),
        zeroed=st.floats(0.0, 0.9),
        k_frac=st.floats(0.0, 1.0),
        same_pair=st.booleans(),
        tol=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    )
    def test_same_bits_on_masked_integer_data(
        self, seed, n, d, levels, zeroed, k_frac, same_pair, tol
    ):
        # integer data with zeroed rows: loss differences tie exactly, and
        # runs of exact zeros straddle the trimming boundary
        rng = np.random.default_rng(seed)
        X = rng.integers(-levels, levels + 1, size=(n, d)).astype(float)
        X[rng.random(n) < zeroed] = 0.0
        y = rng.integers(-levels, levels + 1, size=n).astype(float)
        beta_m = rng.integers(-1, 2, size=d).astype(float)
        beta_M = beta_m.copy() if same_pair else rng.integers(-1, 2, size=d).astype(float)
        k = int(k_frac * ((n - 1) // 2))
        losses_m = _squared_residuals(X, y, beta_m)
        losses_M = _squared_residuals(X, y, beta_M)
        value, idx = _evaluate(TrimSpec(k, n), losses_m, losses_M, tol)
        diffs = _loss_diffs(X, y, beta_m, beta_M)
        want_value, want_idx = self._two_sorts(diffs, k, tol)
        assert _bits(value) == _bits(want_value)
        assert np.array_equal(idx, want_idx)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        diffs=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                st.floats(-1e6, 1e6, allow_subnormal=True),
            ),
            min_size=1,
            max_size=60,
        ),
        k_frac=st.floats(0.0, 1.0),
        tol=st.sampled_from([0.0, 0.5, 1e3]),
    )
    def test_same_bits_on_signed_zeros_and_ties(self, diffs, k_frac, tol):
        # loss differences of squares never come out -0.0, so the vector is
        # fed to _evaluate as beta_m's losses against zero losses for
        # beta_M; subtracting +0.0 leaves every value's bits, -0.0 too
        diffs = np.array(diffs)
        n = diffs.size
        k = int(k_frac * ((n - 1) // 2))
        value, idx = _evaluate(TrimSpec(k, n), diffs, np.zeros(n), tol)
        want_value, want_idx = self._two_sorts(diffs, k, tol)
        assert _bits(value) == _bits(want_value)
        assert np.array_equal(idx, want_idx)


def _gradient(X, y, beta):
    """The SSE gradient at beta, with the ||g||^2 and ||X g||^2 of _armijo_step."""
    grad = -2.0 * (X.T @ (y - X @ beta))
    Xg = X @ grad
    return grad, float(grad @ grad), float(Xg @ Xg)


class TestArmijoStep:
    # _armijo_step grows the step it is given by 1/THETA first, so a test
    # that starts the search from s passes s * THETA.
    def test_accepted_step_never_increases_sse(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n, d = int(rng.integers(3, 30)), int(rng.integers(1, 5))
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            beta = rng.standard_normal(d)
            step = float(rng.uniform(0.01, 10))
            before = float(((X @ beta - y) ** 2).sum())
            grad, g2, xg2 = _gradient(X, y, beta)
            taken, _ = _armijo_step(step * THETA, g2, xg2)
            new = beta - taken * grad
            after = float(((X @ new - y) ** 2).sum())
            assert after <= before

    def test_zero_gradient_keeps_iterate(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, 2.0])
        beta = np.array([1.0, 2.0])
        grad, g2, xg2 = _gradient(X, y, beta)
        taken, step = _armijo_step(4.0 * THETA, g2, xg2)
        new = beta - taken * grad
        assert np.array_equal(new, beta)
        assert step == 4.0


def _sse_backtrack(XI, yI, beta, step):
    """Reference line search: evaluates the SSE at every tried step.

    Also returns the tried steps, so callers can see how close each came to
    the Armijo boundary.
    """
    resid = yI - XI @ beta
    grad = -2.0 * (XI.T @ resid)
    sse0 = float(resid @ resid)
    tried = []
    for _ in range(LINE_SEARCH_CAP + 1):
        tried.append(step)
        cand = beta - step * grad
        r = XI @ cand - yI
        if float(r @ r) <= sse0:
            return cand, step, tried
        step *= THETA
    return beta, step, tried


# Bounded so the property tests add seconds, not minutes, to the suite.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


class TestArmijoProperties:
    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        d=st.integers(1, 5),
        log_step=st.floats(-8.0, 8.0),
    )
    def test_closed_form_matches_sse_backtrack(self, seed, n, d, log_step):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        beta = rng.standard_normal(d)
        step = float(np.exp(log_step))
        ref_beta, ref_step, tried = _sse_backtrack(X, y, beta, step)
        grad, g2, xg2 = _gradient(X, y, beta)
        sse0 = float(((X @ beta - y) ** 2).sum())
        # SSE(beta - s g) - SSE(beta) = s (s ||Xg||^2 - ||g||^2); skip draws
        # where a tried step lands within rounding of that boundary
        assume(all(s * abs(s * xg2 - g2) > 1e-9 * (1.0 + sse0) for s in tried))
        taken, new_step = _armijo_step(step * THETA, g2, xg2)
        new_beta = beta - taken * grad
        assert new_step == ref_step
        assert np.array_equal(new_beta, ref_beta)


class TestTakeSteps:
    """_take_steps is _armijo_step and the stay rule, row by row."""

    def test_rows_match_armijo_step_and_stay_rule(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            T, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            B = rng.standard_normal((T, d))
            G = rng.standard_normal((T, d))
            g2 = (G * G).sum(axis=1).tolist()
            # curvatures up to 2^70 times ||G||^2 run some line searches out
            xg2 = [g * 2.0 ** rng.uniform(-4, 70) for g in g2]
            steps = rng.uniform(0.01, 10, size=T).tolist()
            new, carried, movement = _take_steps(B, G, g2, xg2, steps)
            for t in range(T):
                taken, step = _armijo_step(steps[t], g2[t], xg2[t])
                want = B[t] - taken * G[t] if taken > 0.0 else B[t]
                moved = B[t] - want
                assert np.array_equal(new[t], want)
                assert carried[t] == step
                assert movement[t] == np.sqrt(moved @ moved)

    def test_line_search_that_runs_out_stays(self):
        B = np.array([[1.0, -2.0], [3.0, 0.5]])
        G = np.array([[0.5, 0.25], [1.0, 1.0]])
        steps = [4.0, 1.0]
        new, carried, movement = _take_steps(B, G, [0.0, 2.0], [1.0, 1.0], steps)
        assert np.array_equal(new[0], B[0])
        assert movement[0] == 0.0
        assert carried[0] == 4.0 * 2.0**-60
        assert movement[1] > 0.0

    def test_zero_gradient_takes_the_grown_step_in_place(self):
        B = np.array([[1.0, -2.0]])
        G = np.zeros((1, 2))
        new, carried, movement = _take_steps(B, G, [0.0], [0.0], [4.0])
        assert np.array_equal(new, B)
        assert carried[0] == 4.0 / THETA
        assert movement[0] == 0.0


class _Quadratics:
    """A stub kernel for _descend: both players of member t descend
    a[t] * (b - c[t])**2 in one dimension. It follows which members are in
    the batch from the masks that ``leave`` gets, logs every member's rows
    after each update, and checks that the rows and residuals the driver
    hands it are those of the members it follows."""

    def __init__(self, a, c):
        self.a, self.c = np.asarray(a, dtype=float), np.asarray(c, dtype=float)
        self.members = np.arange(self.a.size)
        self.rows = [[[] for _ in a] for _ in (0, 1)]  # rows[p][t], in order
        self.updates = 0  # losses calls; they alternate beta_m, beta_M
        self.half_steps = 0  # gradients calls; they alternate too
        self.masks = []

    def _latest(self, p):
        return [self.rows[p][t][-1] for t in self.members]

    def losses(self, B):
        p = self.updates % 2
        self.updates += 1
        for t, b in zip(self.members, B[:, 0]):
            self.rows[p][t].append(b)
        return B.copy()

    def gradients(self, L, B):
        p = self.half_steps % 2
        self.half_steps += 1
        assert 0 < B.shape[0] == self.members.size
        assert np.array_equal(B[:, 0], self._latest(p))
        for q in (0, 1):
            assert np.array_equal(L[q][:, 0], self._latest(q))
        a, c = self.a[self.members], self.c[self.members]
        G = 2.0 * a * (B[:, 0] - c)
        return G[:, None], (G * G).tolist(), (a * G * G).tolist()

    def leave(self, go):
        assert go.any() and not go.all()
        self.masks.append(go.copy())
        self.members = self.members[go]


class TestDescend:
    """_descend records each member at the iteration where it stops, with
    that iteration's rows, and drops members by the mask ``leave`` gets."""

    # Steps grow to the largest power of 2 at most 1/a, so each a < 1 or
    # a > 1 contracts at its own rate; a = 1 jumps from b to 2c - b forever.
    A = [0.3, 0.7, 3.0, 1.2, 1.0, 0.3]
    C = [1.0, -2.0, 0.5, 4.0, 1.0, -3.0]
    START = [[0.0, 5.0, -1.0, 2.0, 3.0, 100.0], [2.0, 1.0, 0.0, -7.0, -1.0, 0.5]]

    def _descend(self, cfg):
        stub = _Quadratics(self.A, self.C)
        B = [np.array(rows)[:, None] for rows in self.START]
        out = _descend(B, cfg, stub.losses, stub.gradients, stub.leave)
        return stub, out

    @pytest.mark.parametrize(
        "tol_delta, cap", [(1e-4, 1000), (1e-2, 12), (0.5, 8), (1e-3, 40)]
    )
    def test_member_is_recorded_where_it_stops(self, tol_delta, cap):
        stub, out = self._descend(GdConfig(tol_delta=tol_delta, max_iters=cap))
        stops = []
        for t in range(len(self.A)):
            history = [np.array(stub.rows[p][t]) for p in (0, 1)]
            # the movement of iteration j is the larger of the two players'
            moved = np.maximum(*(np.abs(np.diff(h)) for h in history))
            small = (moved <= tol_delta).nonzero()[0]
            stop = small[0] if small.size else cap - 1
            assert stop < cap
            assert moved.size == stop + 1  # not moved after it stopped
            for p in (0, 1):
                assert out[p][t, 0] == history[p][stop + 1]
            stops.append(stop)
        # a = 1 runs to the cap, after every other member has left; each
        # earlier iteration where members stop calls leave once
        assert stops[4] == cap - 1 > max(stops[:4] + stops[5:])
        assert len(stub.masks) == len(set(stops)) - 1

    def test_members_leaving_together_end_the_loop(self):
        # on the cap, or all at once at a tol_delta equal to the largest
        # movement of the first iteration: one iteration, every member
        # recorded, and neither leave nor gradients on no members
        first, _ = self._descend(GdConfig(max_iters=1))
        largest = max(abs(r[1] - r[0]) for p in (0, 1) for r in first.rows[p])
        for cfg in (GdConfig(max_iters=1), GdConfig(tol_delta=largest)):
            stub, out = self._descend(cfg)
            assert stub.half_steps == 2
            assert stub.masks == []
            for p in (0, 1):
                assert np.array_equal(out[p][:, 0], [r[1] for r in stub.rows[p]])


class TestAasd:
    def test_ols_is_fixed_point(self):
        data = _clean_data(60, 4, seed=6)
        ols = fit_least_squares(data.X, data.y)
        pair = aasd(data, 0, GdConfig(), RegressorPair(ols.copy(), ols.copy()))
        assert np.allclose(pair.beta_m, ols, atol=1e-9)
        assert np.allclose(pair.beta_M, ols, atol=1e-9)

    def test_k_zero_converges_to_ols(self):
        # movement tolerance well below the 1e-4 accuracy target
        cfg = GdConfig(tol_delta=1e-6, max_iters=5000)
        for seed in range(20):
            data = _clean_data(100, 5, seed=seed)
            ols = fit_least_squares(data.X, data.y)
            pair = aasd(data, 0, cfg, RegressorPair.zeros(5))
            assert loss_l2(pair.beta_m, ols, data.pop_cov) < 1e-4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GdConfig(tol_delta=0.0)
        with pytest.raises(ValueError):
            GdConfig(max_iters=0)

    @pytest.mark.xfail(
        strict=True, reason="aasd cycles here and returns where max_iters lands"
    )
    def test_two_point_cycle_leaves_start(self):
        # X = 1 and y = 1 on every row, k = 0. Each player's largest step
        # that passes the Armijo test leaves its SSE equal, which reflects
        # it through the minimizer 1: the pair goes (0, 3) -> (2, -1) ->
        # (0, 3) and never stops, so an even max_iters ends at the start.
        data = Dataset(X=np.ones((4, 1)), y=np.ones(4))
        start = RegressorPair([0.0], [3.0])
        pair = aasd(data, 0, GdConfig(max_iters=1000), start)
        assert not (
            np.array_equal(pair.beta_m, start.beta_m)
            and np.array_equal(pair.beta_M, start.beta_M)
        )


class TestPlugIn:
    def test_k_zero_is_ols_after_one_iteration(self):
        data = _clean_data(50, 4, seed=7)
        ols = fit_least_squares(data.X, data.y)
        pair = plug_in(data, 0, iters=1)
        assert np.allclose(pair.beta_m, ols, atol=1e-12)
        assert np.allclose(pair.beta_M, ols, atol=1e-12)

    def test_contamination_robustness_gap(self):
        # with gross outliers the trimmed refit stays usable while OLS blows up
        beta = np.ones(20)
        clean = gen_setup_a(200, 20, 0.0, ErrorDist.normal(), beta, RngSeed(8))
        data = contaminate_a(clean, 0.2, RngSeed(8, 1))
        k = 45  # floor(0.2*200) + 5
        g = RngSeed(8, 3).generator()
        init = RegressorPair(g.standard_normal(20), g.standard_normal(20))
        pair = plug_in(data, k, init, iters=2)
        tm_loss = loss_l2(pair.beta_m, beta, data.pop_cov)
        ols_loss = loss_l2(fit_least_squares(data.X, data.y), beta, data.pop_cov)
        assert tm_loss < 5.0
        assert ols_loss > 100.0

    def test_rejects_bad_iters(self):
        data = _clean_data(10, 2)
        with pytest.raises(ValueError):
            plug_in(data, 1, iters=0)

    def test_accepted_refits_move_objective_their_players_way(self):
        # Trial 27 of acceptance cell 1c (Setup A, n=120, Student-t(1) noise,
        # eps=0.05, base seed 0). Refitting on a frozen active set without a
        # check once took beta_m from loss 1.46 to 18.49 by letting a
        # |xi| = 297.5 row into the fit. A run capped at r rounds stops where
        # a longer run stands after round r, so each round is checked alone.
        n, eps = 120, 0.05
        config = ExperimentConfig(
            setup="A", n=n, error_dist=ErrorDist.student_t(1), eps_grid=(eps,)
        )
        seed = trial_seed(0, "A", n, config.d, 0.0, eps, "t1", 27)
        data = _make_trial_data(config, eps, seed)
        init = _initial_pair(config, seed)
        k = trim_count(eps, n)

        def objective(beta_m, beta_M):
            diffs = _loss_diffs(data.X, data.y, beta_m, beta_M)
            return trimmed_mean(diffs, TrimSpec(k, n))

        prev = init
        for rounds in range(1, 11):
            pair = plug_in(data, k, init, iters=rounds)
            before = objective(prev.beta_m, prev.beta_M)
            after_m = objective(pair.beta_m, prev.beta_M)
            assert after_m <= before  # beta_m minimizes the objective
            assert objective(pair.beta_m, pair.beta_M) >= after_m  # beta_M maximizes
            prev = pair
        assert not np.array_equal(pair.beta_m, init.beta_m)

    def test_setup_b_ends_at_fixed_point(self):
        # Setup B (n=1000, p=0.3), base seed 0. The active rows are mostly
        # all-zero, so the objective is flat over wide regions; a rule that
        # keeps every refit leaving it equal cycles there until the round
        # cap in all 8 eps=0.2 fits, off a fixed point.
        n = 1000
        config = ExperimentConfig(setup="B", n=n, p=0.3)
        for eps in (0.1, 0.2):
            k = trim_count(eps, n)
            for trial in range(8):
                seed = trial_seed(0, "B", n, config.d, config.p, eps, "normal", trial)
                data = _make_trial_data(config, eps, seed)
                init = _initial_pair(config, seed)
                result = plug_in(data, k, init)
                again = plug_in(data, k, result, iters=1)
                assert np.array_equal(again.beta_m, result.beta_m)
                assert np.array_equal(again.beta_M, result.beta_M)
                assert not np.array_equal(result.beta_m, init.beta_m)

    @pytest.mark.xfail(
        strict=True, reason="plug_in cycles here and returns where the round cap lands"
    )
    def test_setup_b_result_does_not_depend_on_round_cap(self):
        # Setup B, n=200, p=0.3, eps=0.1, base seed 0: trial 13 cycles with
        # period 5 and trial 15 with period 2, so 100 and 101 rounds end on
        # different members of the cycle.
        n, eps = 200, 0.1
        config = ExperimentConfig(setup="B", n=n, p=0.3)
        k = trim_count(eps, n)
        for trial in (13, 15):
            seed = trial_seed(0, "B", n, config.d, config.p, eps, "normal", trial)
            data = _make_trial_data(config, eps, seed)
            init = _initial_pair(config, seed)
            a = plug_in(data, k, init, iters=100)
            b = plug_in(data, k, init, iters=101)
            assert np.array_equal(a.beta_m, b.beta_m)
            assert np.array_equal(a.beta_M, b.beta_M)

    def test_flat_objective_stops_at_fixed_point(self):
        # k=2 of n=5 keeps one row, and the objective is 0 at every pair
        # below. A rule that keeps each refit leaving it equal goes round
        # the cycle (0, 0) -> (-2, 0) -> (0, -2) -> (0, 0) until the round
        # cap; the refit to -2 grows the norm, so plug_in refuses it.
        X = np.array([[0.0], [1.0], [-1.0], [-1.0], [-1.0]])
        y = np.array([1.0, 1.0, 2.0, -2.0, 2.0])
        data, k = Dataset(X=X, y=y), 2
        for beta_m, beta_M in ((1.0, -1.0), (0.0, 0.0), (-2.0, 0.0), (0.0, -2.0)):
            diffs = _loss_diffs(X, y, np.array([beta_m]), np.array([beta_M]))
            assert trimmed_mean(diffs, TrimSpec(k, 5)) == 0.0
        result = plug_in(data, k, RegressorPair([1.0], [-1.0]))
        assert (result.beta_m.tolist(), result.beta_M.tolist()) == ([0.0], [0.0])
        again = plug_in(data, k, result, iters=1)
        assert np.array_equal(again.beta_m, result.beta_m)
        assert np.array_equal(again.beta_M, result.beta_M)

    def test_setup_b_end_point_survives_refit_rounding(self):
        # Setup B (n=200), base seed 0. Refits that interpolate a few
        # nonzero rows leave loss differences of ~1e-33 where exact
        # arithmetic gives zero, and their signs once picked the active set
        # and decided ties: solving with zero rows added, which changes only
        # the last bits of each refit, moved 9 of these 32 fits to another
        # fixed point, with losses off by up to 6x. plug_in hands the solver
        # only rows that carry covariates, so the patch adds zero rows back.
        def full_solve(X, y):
            Xz = np.vstack([X, np.zeros((700, X.shape[1]))])
            yz = np.concatenate([y, np.ones(700)])
            return np.linalg.lstsq(Xz, yz, rcond=None)[0]

        n = 200
        for p, eps in ((0.3, 0.1), (0.6, 0.2)):
            config = ExperimentConfig(setup="B", n=n, p=p)
            k = trim_count(eps, n)
            for trial in range(16):
                seed = trial_seed(0, "B", n, config.d, p, eps, "normal", trial)
                data = _make_trial_data(config, eps, seed)
                init = _initial_pair(config, seed)
                got = plug_in(data, k, init)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(regression, "fit_least_squares", full_solve)
                    want = plug_in(data, k, init)
                assert np.allclose(got.beta_m, want.beta_m, rtol=1e-9, atol=1e-12)
                assert np.allclose(got.beta_M, want.beta_M, rtol=1e-9, atol=1e-12)

    @staticmethod
    def _cache_cells():
        """(data, k, init) of the first 4 trials of Setup B (n=1000, p=0.3)
        at eps 0 and 0.2, and Setup A (n=120, t1 noise) at eps 0 and 0.1,
        base seed 0."""
        t1 = ErrorDist.student_t(1)
        cells = [
            (ExperimentConfig(setup="B", n=1000, p=0.3), (0.0, 0.2)),
            (ExperimentConfig(setup="A", n=120, error_dist=t1), (0.0, 0.1)),
        ]
        for config, eps_grid in cells:
            for eps in eps_grid:
                k = trim_count(eps, config.n)
                for trial in range(4):
                    seed = trial_seed(
                        0, config.setup, config.n, config.d, config.rho_or_p, eps,
                        config.error_dist.label, trial,
                    )
                    data = _make_trial_data(config, eps, seed)
                    yield data, k, _initial_pair(config, seed)

    def test_one_solve_per_row_set(self):
        # A refit on a row set that the same call has solved reuses that
        # solution, and the result keeps its bits.
        calls = []

        def recording(X, y):
            calls.append((X.shape, X.tobytes(), y.tobytes()))
            return fit_least_squares(X, y)

        solves = 0
        for data, k, init in self._cache_cells():
            want = plug_in(data, k, init)
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(regression, "fit_least_squares", recording)
                got = plug_in(data, k, init)
            assert len(set(calls)) == len(calls)
            solves += len(calls)
            assert np.array_equal(got.beta_m, want.beta_m)
            assert np.array_equal(got.beta_M, want.beta_M)
        assert solves > 0

    def test_one_evaluation_per_pair(self):
        # A pair that the same call has evaluated reuses its objective and
        # active set, and the result keeps its bits; recomputing them
        # repeated 3, 8, 2 and 6 evaluations in the four cells. A pair is
        # told by its two iterates' squared residuals, which _evaluate gets.
        keys = []

        def recording(spec, losses_m, losses_M, tol):
            keys.append(losses_m.tobytes() + losses_M.tobytes())
            return _evaluate(spec, losses_m, losses_M, tol)

        for data, k, init in self._cache_cells():
            want = plug_in(data, k, init)
            keys.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(regression, "_evaluate", recording)
                got = plug_in(data, k, init)
            assert keys
            assert len(set(keys)) == len(keys)
            assert np.array_equal(got.beta_m, want.beta_m)
            assert np.array_equal(got.beta_M, want.beta_M)

    def test_one_residual_product_per_iterate(self):
        # Each iterate's squared residuals are computed once per call and
        # serve every pair it belongs to; each distinct pair evaluated gets
        # one trimmed mean, and the result keeps its bits.
        products = []  # iterate bytes, one per product
        iterate = {}  # id of a product's output -> its iterate's bytes
        pairs = []  # (beta_m bytes, beta_M bytes) per evaluation
        means = []

        def squared(X, y, beta):
            out = _squared_residuals(X, y, beta)
            products.append(beta.tobytes())
            iterate[id(out)] = products[-1]
            return out

        def evaluate(spec, losses_m, losses_M, tol):
            pairs.append((iterate[id(losses_m)], iterate[id(losses_M)]))
            return _evaluate(spec, losses_m, losses_M, tol)

        def mean(values, spec):
            means.append(values.size)
            return trimmed_mean(values, spec)

        for data, k, init in self._cache_cells():
            want = plug_in(data, k, init)
            products.clear()
            iterate.clear()
            pairs.clear()
            means.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(regression, "_squared_residuals", squared)
                mp.setattr(regression, "_evaluate", evaluate)
                mp.setattr(regression, "trimmed_mean", mean)
                got = plug_in(data, k, init)
            assert pairs
            assert len(set(products)) == len(products)
            assert set(products) == {b for pair in pairs for b in pair}
            assert len(means) == len(set(pairs))
            assert np.array_equal(got.beta_m, want.beta_m)
            assert np.array_equal(got.beta_M, want.beta_M)


def _reference_active(X, y, beta_m, beta_M, k):
    n = y.shape[0]
    if k == 0:
        return np.arange(n)
    order = np.argsort(_loss_diffs(X, y, beta_m, beta_M), kind="stable")
    keep = order[k : n - k]
    keep.sort()
    return keep


def _reference_half_step(XI, yI, beta, step):
    """One gradient step on the active-set SSE, backtracked from ``step``
    with the closed-form test written out here; returns (beta, carried)."""
    grad, g2, xg2 = _gradient(XI, yI, beta)
    for _ in range(LINE_SEARCH_CAP + 1):
        if step * xg2 <= g2:
            return beta - step * grad, step
        step *= THETA
    return beta, step


def _reference_aasd(data, k, cfg, init):
    """Reference descent: every half-step recomputes both players' loss
    differences."""
    X, y = data.X, data.y
    beta_m = init.beta_m.copy()
    beta_M = init.beta_M.copy()
    eta = xi = 1.0
    for _ in range(cfg.max_iters):
        eta /= THETA
        idx = _reference_active(X, y, beta_m, beta_M, k)
        new_m, eta = _reference_half_step(X[idx], y[idx], beta_m, eta)

        xi /= THETA
        idx = _reference_active(X, y, new_m, beta_M, k)
        new_M, xi = _reference_half_step(X[idx], y[idx], beta_M, xi)

        delta = max(
            float(np.linalg.norm(beta_m - new_m)),
            float(np.linalg.norm(beta_M - new_M)),
        )
        beta_m, beta_M = new_m, new_M
        if delta <= cfg.tol_delta:
            break
    return beta_m, beta_M


def _reference_plug_in(data, k, init, iters):
    """Reference plug-in heuristic: each pair's objective and active set are
    computed apart, each from its own loss differences, with those within
    ZERO_DIFF_RTOL times the mean squared response set to zero. A refit is
    taken if it moves the objective strictly its player's way, or leaves it
    equal with a strictly smaller norm; a first refit bit-equal to the
    iterate keeps the iterate."""
    X, y = data.X, data.y
    n = y.shape[0]
    tol = ZERO_DIFF_RTOL * float(y @ y) / n

    def diffs(beta_m, beta_M):
        raw = _loss_diffs(X, y, beta_m, beta_M)
        return np.where(np.abs(raw) <= tol, 0.0, raw)

    def objective(beta_m, beta_M):
        return trimmed_mean(diffs(beta_m, beta_M), TrimSpec(k, n))

    def active(beta_m, beta_M):
        if k == 0:
            return np.arange(n)
        return np.sort(np.argsort(diffs(beta_m, beta_M), kind="stable")[k : n - k])

    def refit(beta, other, minimize, value):
        sign = 1.0 if minimize else -1.0

        def as_pair(b):
            return (b, other) if minimize else (other, b)

        point, point_value = beta, value
        for step in range(CONCENTRATION_CAP):
            idx = active(*as_pair(point))
            cand = fit_least_squares(X[idx], y[idx])
            if step == 0 and np.array_equal(cand, beta):
                return beta, value
            cand_value = objective(*as_pair(cand))
            better = sign * cand_value < sign * value
            if better or (cand_value == value and cand @ cand < beta @ beta):
                return cand, cand_value
            if step > 0 and sign * cand_value >= sign * point_value:
                break
            point, point_value = cand, cand_value
        return beta, value

    beta_m = init.beta_m.copy()
    beta_M = init.beta_M.copy()
    value = objective(beta_m, beta_M)
    for _ in range(iters):
        new_m, value = refit(beta_m, beta_M, True, value)
        new_M, value = refit(beta_M, new_m, False, value)
        fixed = np.array_equal(new_m, beta_m) and np.array_equal(new_M, beta_M)
        beta_m, beta_M = new_m, new_M
        if fixed:
            break
    return beta_m, beta_M


def _masked_problem(seed, n, d):
    # Setup B at p=0.3, eps=0.2: most rows are zero and their loss
    # differences tie exactly
    beta = np.ones(d)
    clean, mask = gen_setup_b(n, d, 0.3, beta, RngSeed(seed))
    data = contaminate_b(clean, mask, 0.2, RngSeed(seed, 1))
    g = RngSeed(seed, 3).generator()
    return data, RegressorPair(g.standard_normal(d), g.standard_normal(d))


class TestOneEvaluationPerPair:
    """aasd and plug_in give the same bits as the loops that recompute every
    pair's loss differences, whether they stop at the tolerance or fixed
    point, at the cap, or after a single round."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(12, 80),
        d=st.integers(1, 4),
        masked=st.booleans(),
        k_frac=st.floats(0.0, 1.0),
        cap=st.integers(1, 40),
        tol_delta=st.sampled_from([1e-4, 1e-1]),
    )
    def test_same_bits_as_recomputing_loops(
        self, seed, n, d, masked, k_frac, cap, tol_delta
    ):
        make = _masked_problem if masked else _heavy_tailed_problem
        data, init = make(seed, n, d)
        k = int(k_frac * ((n - 1) // 2))
        cfg = GdConfig(tol_delta=tol_delta, max_iters=cap)
        got = aasd(data, k, cfg, init)
        want_m, want_M = _reference_aasd(data, k, cfg, init)
        assert np.array_equal(got.beta_m, want_m)
        assert np.array_equal(got.beta_M, want_M)
        got = plug_in(data, k, init, iters=cap)
        want_m, want_M = _reference_plug_in(data, k, init, cap)
        assert np.array_equal(got.beta_m, want_m)
        assert np.array_equal(got.beta_M, want_M)


class TestBatchedAasd:
    """aasd over a list of datasets gives each trial the bits of its
    one-trial call, whichever trials share the batch and whenever each
    stops."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
        masked=st.lists(st.booleans(), min_size=6, max_size=6),
        n=st.integers(12, 80),
        d=st.integers(1, 4),
        k_frac=st.sampled_from([0.0, 0.0, 0.3, 1.0]),
        cap=st.integers(1, 60),
        tol_delta=st.sampled_from([1e-4, 1e-2, 1e-1, 1.0]),
    )
    def test_batch_has_the_bits_of_one_trial_calls(
        self, seeds, masked, n, d, k_frac, cap, tol_delta
    ):
        problems = [
            (_masked_problem if tie_heavy else _heavy_tailed_problem)(seed, n, d)
            for seed, tie_heavy in zip(seeds, masked)
        ]
        k = int(k_frac * ((n - 1) // 2))
        cfg = GdConfig(tol_delta=tol_delta, max_iters=cap)
        batch = aasd([p[0] for p in problems], k, cfg, [p[1] for p in problems])
        assert len(batch) == len(problems)
        for (data, init), got in zip(problems, batch):
            alone = aasd(data, k, cfg, init)
            assert np.array_equal(got.beta_m, alone.beta_m)
            assert np.array_equal(got.beta_M, alone.beta_M)

    def test_trials_that_stop_leave_the_batch(self):
        # The X = y = 1 pair cycles until the cap; the linear fit stops on
        # the tolerance well before it, in the middle of the batch.
        cycle = (Dataset(X=np.ones((4, 1)), y=np.ones(4)), RegressorPair([0.0], [3.0]))
        x = np.arange(1.0, 5.0)[:, None]
        line = (Dataset(X=x, y=2.0 * x[:, 0]), RegressorPair([0.0], [0.5]))
        cfg = GdConfig(max_iters=1000)
        stopped = aasd(line[0], 0, GdConfig(max_iters=999), line[1])
        assert np.array_equal(stopped.beta_m, aasd(line[0], 0, cfg, line[1]).beta_m)
        problems = [cycle, line, cycle]
        batch = aasd([p[0] for p in problems], 0, cfg, [p[1] for p in problems])
        for (data, init), got in zip(problems, batch):
            alone = aasd(data, 0, cfg, init)
            assert np.array_equal(got.beta_m, alone.beta_m)
            assert np.array_equal(got.beta_M, alone.beta_M)

    def test_batch_arguments(self):
        data, init = _heavy_tailed_problem(0, 20, 2)
        other, _ = _heavy_tailed_problem(1, 21, 2)
        assert aasd([], 3) == []
        with pytest.raises(ValueError, match="share n and d"):
            aasd([data, other], 3)
        with pytest.raises(ValueError, match="one starting pair"):
            aasd([data, data], 3, init=[init])
        # no init is the zero pair, as for a one-trial call
        zero = aasd(data, 3, GdConfig(max_iters=5))
        (got,) = aasd([data], 3, GdConfig(max_iters=5))
        assert np.array_equal(got.beta_m, zero.beta_m)

    def test_nan_loss_differences_raise(self):
        # residuals that overflow leave inf - inf loss differences
        data, init = _heavy_tailed_problem(0, 20, 2)
        huge = Dataset(X=data.X, y=1e200 * np.ones(20))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="NaN"):
                aasd(huge, 3, GdConfig(max_iters=5), init)
            with pytest.raises(ValueError, match="NaN"):
                aasd([data, huge], 3, GdConfig(max_iters=5), [init, init])


class TestMomRegression:
    def test_single_bucket_matches_full_descent(self):
        data = _clean_data(80, 4, seed=9)
        ols = fit_least_squares(data.X, data.y)
        pair = mom_regression(data, 1, GdConfig(), RegressorPair.zeros(4), RngSeed(10))
        assert loss_l2(pair.beta_m, ols, data.pop_cov) < 1e-3

    def test_one_point_buckets_run(self):
        data = _clean_data(30, 3, seed=11)
        pair = mom_regression(data, 30, GdConfig(max_iters=50), rng=RngSeed(12))
        assert np.all(np.isfinite(pair.beta_m))

    def test_deterministic_given_seed(self):
        data = _clean_data(40, 3, seed=13)
        a = mom_regression(data, 5, rng=RngSeed(14))
        b = mom_regression(data, 5, rng=RngSeed(14))
        assert np.array_equal(a.beta_m, b.beta_m)

    def test_bucket_count_range(self):
        data = _clean_data(20, 2)
        with pytest.raises(ValueError):
            mom_regression(data, 0, rng=RngSeed(0))
        with pytest.raises(ValueError):
            mom_regression(data, 21, rng=RngSeed(0))

    def test_oracle_bucket_sweep_beats_ols_under_heavy_tails(self):
        # Cauchy noise, no contamination: sweeping the bucket count with
        # oracle selection typically lands closer to the truth than plain
        # least squares (the sweep contains the K=1 full-sample descent, so
        # it can only help)
        n, d = 120, 20
        beta = np.ones(d)
        bm_losses, ols_losses = [], []
        for t in range(30):
            data = gen_setup_a(
                n, d, 0.0, ErrorDist.student_t(1), beta, RngSeed(4000 + t)
            )
            g = RngSeed(4000 + t, 3).generator()
            init = RegressorPair(g.standard_normal(d), g.standard_normal(d))
            _, pair = best_mom(
                data, divisors(n), GdConfig(), init, RngSeed(4000 + t, 2),
                beta, data.pop_cov,
            )
            bm_losses.append(loss_l2(pair.beta_m, beta, data.pop_cov))
            ols = fit_least_squares(data.X, data.y)
            ols_losses.append(loss_l2(ols, beta, data.pop_cov))
        assert np.median(bm_losses) < np.median(ols_losses)


def _heavy_tailed_problem(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = X @ np.ones(d) + rng.standard_t(1, n)
    init = RegressorPair(rng.standard_normal(d), rng.standard_normal(d))
    return Dataset(X=X, y=y), init


class TestBatchedMom:
    def test_bucket_layout_matches_array_split(self):
        # contiguous buckets, the first n % K of them one longer, exactly
        # as np.array_split splits
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            K = int(rng.integers(1, n + 1))
            x = rng.standard_cauchy(n)
            starts, sizes = _bucket_layout(n, K)
            blocks = [x[s : s + z] for s, z in zip(starts, sizes)]
            expected = np.array_split(x, K)
            assert len(blocks) == len(expected) == K
            for got, want in zip(blocks, expected):
                assert np.array_equal(got, want)

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        d=st.integers(1, 4),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
        cap=st.integers(1, 60),
        tol_delta=st.sampled_from([1e-4, 1e-2, 1e-1, 1.0]),
    )
    def test_columns_match_single_candidate_runs(
        self, seed, n, d, picks, cap, tol_delta
    ):
        # candidates leave the batch at many iterations, so the bucket
        # slots and layout of those that stay are taken again each time
        data, init = _heavy_tailed_problem(seed, n, d)
        Ks = [1 + p % n for p in picks]
        cfg = GdConfig(tol_delta=tol_delta, max_iters=cap)
        Bm, BM = _mom_descent(data, Ks, cfg, init, RngSeed(seed))
        for c, K in enumerate(Ks):
            bm, bM = _mom_descent(data, [K], cfg, init, RngSeed(seed))
            assert np.array_equal(Bm[c], bm[0])
            assert np.array_equal(BM[c], bM[0])

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
        levels=st.integers(1, 3),
    )
    def test_median_bucket_matches_brute_force_with_ties(self, seed, n, picks, levels):
        # few distinct values and a block of zeroed rows (as Setup B's
        # masked rows give), so bucket means tie exactly and often
        rng = np.random.default_rng(seed)
        Ks = [1 + p % n for p in picks]
        diffs = rng.integers(-levels, levels + 1, size=(len(Ks), n)).astype(float)
        diffs[:, : n // 3] = 0.0
        starts, sizes, owner, median = _mom_layout(n, Ks)
        chosen = _median_buckets(diffs, starts, sizes, owner, median)
        first = np.cumsum(Ks) - Ks
        for c, K in enumerate(Ks):
            st_K, sz_K = _bucket_layout(n, K)
            means = np.add.reduceat(diffs[c], st_K) / sz_K
            ranked = sorted(range(K), key=lambda j: (means[j], j))
            assert chosen[c] - first[c] == ranked[(K - 1) // 2]

    def test_stopped_candidates_stay_frozen(self):
        # K=1 stops within 100 iterations while K=n is still moving at 400;
        # the stopped column must still equal its own one-candidate run
        data, init = _heavy_tailed_problem(4, 30, 3)
        early, late = (
            _mom_descent(data, [1, 30], GdConfig(max_iters=it), init, RngSeed(4))
            for it in (100, 400)
        )
        assert np.array_equal(early[0][0], late[0][0])
        assert not np.array_equal(early[0][1], late[0][1])
        bm, bM = _mom_descent(data, [1], GdConfig(max_iters=400), init, RngSeed(4))
        assert np.array_equal(late[0][0], bm[0])
        assert np.array_equal(late[1][0], bM[0])

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        d=st.integers(2, 6),
        picks=st.lists(st.integers(0, 10**6), max_size=4),
    )
    def test_table_gradients_match_masked_rows(self, seed, n, d, picks):
        # K = 1, K = n (one-row buckets, fewer rows than d) and K = n - 1,
        # which does not divide n, so its first bucket is one row longer
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        y = rng.standard_cauchy(n)
        Ks = [1, n, n - 1] + [1 + p % n for p in picks]
        XtX, Xty = _bucket_grams(X, y, Ks)
        B = rng.standard_normal((XtX.shape[0], d))
        G, g2, xg2 = _bucket_gradients(XtX, Xty, B)
        j = 0
        for K in Ks:
            # a candidate's entries have the bits of its own table
            alone = _bucket_grams(X, y, [K])
            assert np.array_equal(XtX[j : j + K], alone[0])
            assert np.array_equal(Xty[j : j + K], alone[1])
            for start, size in zip(*_bucket_layout(n, K)):
                mask = np.zeros(n)
                mask[start : start + size] = 1.0
                grad = 2.0 * X.T @ (mask * (X @ B[j] - y))
                curv = float(np.sum((mask * (X @ grad)) ** 2))
                assert np.linalg.norm(G[j] - grad) <= 1e-10 * np.linalg.norm(grad)
                assert g2[j] == pytest.approx(float(grad @ grad), rel=1e-10, abs=0)
                assert xg2[j] == pytest.approx(curv, rel=1e-10, abs=0)
                j += 1
        assert j == XtX.shape[0]


class TestBestMom:
    def test_single_candidate_on_clean_data(self):
        data = _clean_data(60, 4, seed=15)
        ols = fit_least_squares(data.X, data.y)
        K, pair = best_mom(
            data, [1], rng=RngSeed(16), beta_star=data.beta_star, Sigma=data.pop_cov
        )
        assert K == 1
        assert loss_l2(pair.beta_m, ols, data.pop_cov) < 1e-3

    def test_never_worse_than_any_single_candidate(self):
        data = _clean_data(60, 4, seed=17)
        candidates = divisors(60)
        _, pair = best_mom(
            data,
            candidates,
            rng=RngSeed(18),
            beta_star=data.beta_star,
            Sigma=data.pop_cov,
        )
        best_loss = loss_l2(pair.beta_m, data.beta_star, data.pop_cov)
        for K in candidates:
            single = mom_regression(data, K, rng=RngSeed(18))
            assert best_loss <= loss_l2(
                single.beta_m, data.beta_star, data.pop_cov
            ) + 1e-12

    def test_requires_oracle_arguments(self):
        data = _clean_data(10, 2)
        with pytest.raises(ValueError):
            best_mom(data, [1], rng=RngSeed(0))

    def test_rejects_empty_candidates(self):
        data = _clean_data(10, 2)
        with pytest.raises(ValueError):
            best_mom(data, [], rng=RngSeed(0), beta_star=data.beta_star, Sigma=data.pop_cov)


class TestRegressorPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegressorPair(np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            RegressorPair(np.array([np.nan, 1.0]), np.zeros(2))
        pair = RegressorPair.zeros(4)
        assert pair.beta_m.shape == pair.beta_M.shape == (4,)


class TestLossL2:
    def test_zero_at_truth(self):
        assert loss_l2(np.ones(3), np.ones(3), np.eye(3)) == 0.0

    def test_euclidean_special_case(self):
        assert loss_l2(np.array([3.0, 4.0]), np.zeros(2), np.eye(2)) == 5.0

    def test_quadratic_form(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert loss_l2(np.ones(2), np.zeros(2), sigma) == pytest.approx(np.sqrt(3.0))

    def test_rejects_asymmetric_sigma(self):
        with pytest.raises(ValueError):
            loss_l2(np.ones(2), np.zeros(2), np.array([[1.0, 0.3], [0.0, 1.0]]))
        # a NaN equals nothing, itself included, on or off the diagonal
        for cell in ((0, 1), (1, 1)):
            sigma = np.eye(2)
            sigma[cell] = np.nan
            with pytest.raises(ValueError, match="symmetric"):
                loss_l2(np.ones(2), np.zeros(2), sigma)

    def test_accepts_sigma_asymmetric_within_tolerance(self):
        # not exactly symmetric, but within allclose's tolerance, so the
        # value is that of the quadratic form of the matrix as given
        sigma = np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]])
        assert not np.array_equal(sigma, sigma.T)
        diff = np.array([1.0, -2.0])
        want = math.sqrt(float(diff @ sigma @ diff))
        assert loss_l2(diff, np.zeros(2), sigma) == want

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loss_l2(np.ones(2), np.ones(3), np.eye(3))


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(120) == [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120]
    with pytest.raises(ValueError):
        divisors(0)
