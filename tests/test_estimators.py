import math

import numpy as np
import pytest

from trimreg.estimators import (
    TrimSpec,
    exceedance_count,
    median_of_means,
    phi_uniform,
    trimmed_mean,
    truncate,
    uniform_trimmed_estimate,
)


class TestTrimSpec:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            TrimSpec(k=-1, n=5)
        with pytest.raises(ValueError):
            TrimSpec(k=2, n=4)
        with pytest.raises(ValueError):
            TrimSpec(k=0, n=0)

    def test_allows_boundary(self):
        TrimSpec(k=2, n=5)
        TrimSpec(k=0, n=1)


class TestTrimmedMean:
    def test_drops_one_from_each_tail(self):
        assert trimmed_mean([1, 2, 3, 100], TrimSpec(k=1, n=4)) == 2.5

    def test_k_zero_is_sample_mean(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(31)
        assert trimmed_mean(x, TrimSpec(0, 31)) == pytest.approx(x.mean(), rel=1e-14)

    def test_constant_sample(self):
        assert trimmed_mean([5, 5, 5, 5, 5], TrimSpec(k=2, n=5)) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            trimmed_mean([1, 2, 3], TrimSpec(k=0, n=4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            trimmed_mean([1.0, np.nan, 2.0], TrimSpec(k=0, n=3))
        with pytest.raises(ValueError):
            trimmed_mean([1.0, np.inf, 2.0], TrimSpec(k=1, n=3))

    def test_within_sample_range(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, (n + 1) // 2)) if n > 1 else 0
            x = rng.standard_cauchy(n)
            tm = trimmed_mean(x, TrimSpec(k, n))
            assert x.min() <= tm <= x.max()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(0, (n - 1) // 2 + 1))
            x = rng.standard_normal(n)
            spec = TrimSpec(k, n)
            perm = rng.permutation(n)
            assert trimmed_mean(x, spec) == trimmed_mean(x[perm], spec)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(0, (n - 1) // 2 + 1))
            x = rng.standard_normal(n)
            a = float(rng.uniform(-3, 3))
            b = float(rng.uniform(-5, 5))
            spec = TrimSpec(k, n)
            assert trimmed_mean(a * x + b, spec) == pytest.approx(
                a * trimmed_mean(x, spec) + b, rel=1e-10, abs=1e-10
            )

    def test_bounded_influence_bit_identical(self):
        # corrupting up to k entries with magnitude 1e6 vs 1e12 cannot change
        # the trimmed mean at all: the corrupted points always land in the
        # trimmed tails
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(1, (n - 1) // 2 + 1))
            m = int(rng.integers(1, k + 1))
            x = rng.standard_normal(n)
            signs = rng.choice([-1.0, 1.0], size=m)
            where = rng.choice(n, size=m, replace=False)
            lo, hi = x.copy(), x.copy()
            lo[where] = signs * 1e6
            hi[where] = signs * 1e12
            spec = TrimSpec(k, n)
            assert trimmed_mean(lo, spec) == trimmed_mean(hi, spec)

    def test_monotone_in_each_entry(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(2, 25))
            k = int(rng.integers(0, (n - 1) // 2 + 1))
            x = rng.standard_normal(n)
            i = int(rng.integers(0, n))
            bumped = x.copy()
            bumped[i] += float(rng.uniform(0, 10))
            spec = TrimSpec(k, n)
            assert trimmed_mean(bumped, spec) >= trimmed_mean(x, spec) - 1e-12


class TestTruncate:
    def test_clamps(self):
        assert truncate(3, 2) == 2.0
        assert truncate(-5, 2) == -2.0
        assert truncate(1.5, 2) == 1.5

    def test_rejects_bad_level(self):
        for m in (0, -1, math.nan, math.inf):
            with pytest.raises(ValueError):
                truncate(1.0, m)

    def test_idempotent_and_lipschitz(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            m = float(rng.uniform(0.1, 5))
            x, y = rng.standard_cauchy(2) * 3
            tx = truncate(x, m)
            assert truncate(tx, m) == tx
            assert abs(tx - truncate(y, m)) <= abs(x - y) + 1e-15

    def test_vector_input(self):
        out = truncate(np.array([-3.0, 0.5, 7.0]), 1.0)
        assert np.array_equal(out, [-1.0, 0.5, 1.0])


class TestExceedanceCount:
    def test_counts_strictly_larger(self):
        assert exceedance_count([1, -3, 0.5, 10], 2) == 2
        assert exceedance_count([0, 0, 0], 1) == 0
        assert exceedance_count([2, -2], 2) == 0

    def test_zero_iff_truncation_is_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            x = rng.standard_cauchy(int(rng.integers(1, 20)))
            m = float(rng.uniform(0.5, 4))
            unchanged = np.array_equal(truncate(x, m), x)
            assert (exceedance_count(x, m) == 0) == unchanged


class TestMedianOfMeans:
    def test_blockwise_example(self):
        x = [0, 0, 0, 9, 9, 9, 100, 100, 100]
        assert median_of_means(x, 3) == 9.0

    def test_single_block_is_mean(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(17)
        assert median_of_means(x, 1) == pytest.approx(x.mean(), rel=1e-14)

    def test_even_block_count_averages_middles(self):
        assert median_of_means([1, 3], 2) == 2.0

    def test_unbalanced_blocks(self):
        # n=5, K=2: blocks (3, 2)
        assert median_of_means([1, 1, 1, 4, 4], 2) == pytest.approx((1 + 4) / 2)

    def test_rejects_bad_block_count(self):
        with pytest.raises(ValueError):
            median_of_means([1, 2, 3], 0)
        with pytest.raises(ValueError):
            median_of_means([1, 2, 3], 4)

    def test_within_block_mean_range(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            num_blocks = int(rng.integers(1, n + 1))
            x = rng.standard_cauchy(n)
            means = [b.mean() for b in np.array_split(x, num_blocks)]
            mom = median_of_means(x, num_blocks)
            assert min(means) - 1e-12 <= mom <= max(means) + 1e-12

    def test_matches_array_split_blocks(self):
        # the shared bucket layout splits exactly as np.array_split does, and
        # each block mean is the same arithmetic, so results are bit-equal
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            num_blocks = int(rng.integers(1, n + 1))
            x = rng.standard_cauchy(n)
            means = [float(b.mean()) for b in np.array_split(x, num_blocks)]
            assert median_of_means(x, num_blocks) == float(np.median(means))


class TestPhiUniform:
    def test_reference_values(self):
        assert phi_uniform(1000, 0.05, 0.05) == 0.075
        assert phi_uniform(100, 0.0, 0.05) == 0.04

    def test_too_contaminated_raises(self):
        with pytest.raises(ValueError, match="1/2"):
            phi_uniform(10, 0.45, 0.01)

    def test_argument_ranges(self):
        with pytest.raises(ValueError):
            phi_uniform(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            phi_uniform(100, 0.5, 0.1)
        with pytest.raises(ValueError):
            phi_uniform(100, 0.1, 1.0)

    def test_monotone_grid(self):
        n = 4000
        eps_grid = np.linspace(0.0, 0.2, 21)
        alpha_grid = np.linspace(0.01, 0.3, 15)
        for alpha in alpha_grid:
            phis = [phi_uniform(n, e, alpha) for e in eps_grid]
            assert all(b >= a for a, b in zip(phis, phis[1:]))
        for eps in eps_grid:
            phis = [phi_uniform(n, eps, a) for a in alpha_grid]
            assert all(b <= a for a, b in zip(phis, phis[1:]))


class TestUniformTrimmedEstimate:
    def test_columnwise_example(self):
        mat = [[1, 10], [2, 20], [3, 30]]
        out = uniform_trimmed_estimate(mat, TrimSpec(k=1, n=3))
        assert np.array_equal(out, [2.0, 20.0])

    def test_k_zero_is_column_means(self):
        rng = np.random.default_rng(31)
        mat = rng.standard_normal((10, 4))
        out = uniform_trimmed_estimate(mat, TrimSpec(0, 10))
        assert np.allclose(out, mat.mean(axis=0), rtol=1e-14)

    def test_constant_columns(self):
        mat = np.tile([2.0, -7.0, 0.5], (9, 1))
        out = uniform_trimmed_estimate(mat, TrimSpec(3, 9))
        assert np.array_equal(out, [2.0, -7.0, 0.5])

    def test_matches_scalar_trimmed_mean_per_column(self):
        rng = np.random.default_rng(37)
        mat = rng.standard_cauchy((25, 3))
        spec = TrimSpec(4, 25)
        out = uniform_trimmed_estimate(mat, spec)
        for j in range(3):
            assert out[j] == pytest.approx(trimmed_mean(mat[:, j], spec), rel=1e-14)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            uniform_trimmed_estimate(np.zeros(5), TrimSpec(1, 5))
        with pytest.raises(ValueError):
            uniform_trimmed_estimate(np.zeros((4, 2)), TrimSpec(1, 5))
