import numpy as np
import pytest

from trimreg.bounds import phi_uniform
from trimreg.estimators import TrimSpec, trimmed_mean


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
        # samples already in ascending order, which are not sorted again
        for values in (
            [1.0, 2.0, np.inf], [-np.inf, 1.0, 2.0], [1.0, 2.0, np.nan], [np.nan]
        ):
            with pytest.raises(ValueError):
                trimmed_mean(values, TrimSpec(k=0, n=len(values)))

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
            assert trimmed_mean(x, spec) == trimmed_mean(np.sort(x), spec)

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
