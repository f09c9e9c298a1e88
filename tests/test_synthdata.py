import math

import numpy as np
import pytest

from trimreg.synthdata import (
    Dataset,
    ErrorDist,
    RngSeed,
    contaminate_a,
    contaminate_b,
    gen_setup_a,
    gen_setup_b,
    make_sigma,
)


class TestRngSeed:
    def test_same_seed_same_stream(self):
        a = RngSeed(123, 4).generator().standard_normal(8)
        b = RngSeed(123, 4).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngSeed(123, 0).generator().standard_normal(8)
        b = RngSeed(123, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)


class TestErrorDist:
    def test_labels_round_trip(self):
        for label in ("normal", "t1", "t2", "t4"):
            assert ErrorDist.from_label(label).label == label

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorDist("student_t", 0)
        # a float nu was once labelled t1.5, and only its draw raised
        for nu in (1.5, 2.0, None):
            with pytest.raises(ValueError, match="integer nu"):
                ErrorDist("student_t", nu)
        with pytest.raises(ValueError):
            ErrorDist("weibull")
        with pytest.raises(ValueError):
            ErrorDist.from_label("cauchy")


class TestMakeSigma:
    def test_rho_zero_is_identity(self):
        assert np.array_equal(make_sigma(0.0, 3), np.eye(3))

    def test_two_by_two(self):
        assert np.array_equal(make_sigma(0.5, 2), [[1.0, 0.5], [0.5, 1.0]])

    def test_power_decay(self):
        sigma = make_sigma(0.5, 3)
        assert sigma[0, 2] == 0.25
        assert np.array_equal(sigma, sigma.T)
        assert np.array_equal(np.diag(sigma), np.ones(3))

    def test_range_check(self):
        with pytest.raises(ValueError):
            make_sigma(1.0, 2)
        with pytest.raises(ValueError):
            make_sigma(-0.1, 2)


class TestSetupA:
    def test_deterministic(self):
        beta = np.ones(4)
        a = gen_setup_a(50, 4, 0.5, ErrorDist.normal(), beta, RngSeed(1, 0))
        b = gen_setup_a(50, 4, 0.5, ErrorDist.normal(), beta, RngSeed(1, 0))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_independent_covariates_lln(self):
        data = gen_setup_a(10_000, 5, 0.0, ErrorDist.normal(), np.zeros(5), RngSeed(2))
        emp = data.X.T @ data.X / data.n
        assert np.max(np.abs(emp - np.eye(5))) < 0.1

    def test_ar1_covariance_matches_population(self):
        rho = 0.5
        data = gen_setup_a(10_000, 5, rho, ErrorDist.normal(), np.zeros(5), RngSeed(3))
        emp = data.X.T @ data.X / data.n
        assert np.max(np.abs(emp - make_sigma(rho, 5))) < 0.1
        assert np.array_equal(data.pop_cov, make_sigma(rho, 5))

    def test_zero_beta_gives_standard_normal_response(self):
        data = gen_setup_a(100_000, 3, 0.0, ErrorDist.normal(), np.zeros(3), RngSeed(4))
        assert abs(data.y.mean()) < 0.05
        assert abs(data.y.var() - 1.0) < 0.05

    def test_response_is_linear_model(self):
        beta = np.array([1.0, -2.0, 0.5])
        data = gen_setup_a(200, 3, 0.3, ErrorDist.student_t(2), beta, RngSeed(5))
        assert np.allclose(data.y, data.X @ beta + data.noise)


class TestContaminateA:
    def _data(self, n=100, seed=6):
        return gen_setup_a(n, 4, 0.0, ErrorDist.normal(), np.ones(4), RngSeed(seed))

    def test_eps_zero_is_identity(self):
        data = self._data()
        out = contaminate_a(data, 0.0, RngSeed(7, 1))
        assert np.array_equal(out.X, data.X) and np.array_equal(out.y, data.y)

    def test_exact_replacement_count(self):
        data = self._data(100)
        out = contaminate_a(data, 0.05, RngSeed(8, 1))
        changed = np.flatnonzero(np.any(out.X != data.X, axis=1) | (out.y != data.y))
        assert changed.size == 5
        assert np.all(out.y[changed] == 10000.0)
        assert np.all(out.X[changed] == np.ones(4))

    def test_small_sample_count(self):
        data = self._data(10)
        out = contaminate_a(data, 0.2, RngSeed(9, 1))
        changed = np.flatnonzero(out.y != data.y)
        assert changed.size == 2
        assert len(set(changed.tolist())) == 2

    def test_requires_beta_star(self):
        bare = Dataset(X=np.zeros((4, 2)), y=np.zeros(4))
        with pytest.raises(ValueError):
            contaminate_a(bare, 0.1, RngSeed(0))

    def test_custom_outlier_response(self):
        data = self._data(20)
        out = contaminate_a(data, 0.1, RngSeed(10, 1), outlier_response=-3.0)
        assert np.count_nonzero(out.y == -3.0) == 2

    def test_input_unchanged(self):
        data = self._data(50)
        snapshot = data.y.copy()
        contaminate_a(data, 0.2, RngSeed(11, 1))
        assert np.array_equal(data.y, snapshot)

    @pytest.mark.parametrize("response", [math.inf, math.nan])
    def test_non_finite_outlier_response_rejected(self, response):
        # the planted rows pass through the Dataset check like any other
        with pytest.raises(ValueError, match="non-finite"):
            contaminate_a(self._data(20), 0.1, RngSeed(12, 1), response)


class TestSetupB:
    def test_p_one_has_no_zero_rows(self):
        data, mask = gen_setup_b(200, 3, 1.0, np.ones(3), RngSeed(12))
        assert mask.all()
        assert not np.any(np.all(data.X == 0.0, axis=1))

    def test_zero_row_fraction(self):
        data, mask = gen_setup_b(10_000, 3, 0.3, np.ones(3), RngSeed(13))
        zero_rows = np.all(data.X == 0.0, axis=1)
        assert abs(zero_rows.mean() - 0.7) < 0.02
        assert np.array_equal(zero_rows, ~mask)

    def test_masked_rows_have_pure_noise_response(self):
        data, mask = gen_setup_b(500, 4, 0.4, np.ones(4), RngSeed(14))
        assert np.array_equal(data.y[~mask], data.noise[~mask])

    def test_isotropic_second_moment(self):
        data, _ = gen_setup_b(100_000, 5, 0.3, np.zeros(5), RngSeed(15))
        emp = data.X.T @ data.X / data.n
        assert np.max(np.abs(emp - np.eye(5))) < 0.05

    def test_identity_population_covariance(self):
        data, _ = gen_setup_b(10, 3, 0.5, np.ones(3), RngSeed(16))
        assert np.array_equal(data.pop_cov, np.eye(3))

    def test_p_range(self):
        with pytest.raises(ValueError):
            gen_setup_b(10, 2, 0.0, np.ones(2), RngSeed(0))
        with pytest.raises(ValueError):
            gen_setup_b(10, 2, 1.5, np.ones(2), RngSeed(0))


class TestContaminateB:
    def _data(self, n=100, p=0.5, seed=17):
        return gen_setup_b(n, 3, p, np.ones(3), RngSeed(seed))

    def test_eps_zero_is_identity(self):
        data, mask = self._data()
        out = contaminate_b(data, mask, 0.0, RngSeed(18, 1))
        assert np.array_equal(out.X, data.X) and np.array_equal(out.y, data.y)

    def test_zeroed_rows_keep_their_noise(self):
        data, mask = self._data(200, 0.5)
        out = contaminate_b(data, mask, 0.1, RngSeed(19, 1))
        changed = np.flatnonzero(np.any(out.X != data.X, axis=1))
        assert changed.size == 20
        assert np.all(mask[changed])
        assert np.all(out.X[changed] == 0.0)
        assert np.array_equal(out.y[changed], data.noise[changed])

    def test_capped_by_available_rows(self):
        data, mask = self._data(40, 0.5, seed=20)
        ones = int(mask.sum())
        sparse_mask = mask.copy()
        sparse_mask[np.flatnonzero(mask)[3:]] = False
        data.X[~sparse_mask] = 0.0
        out = contaminate_b(data, sparse_mask, 0.25, RngSeed(21, 1))
        changed = np.flatnonzero(np.any(out.X != data.X, axis=1))
        assert changed.size == 3  # floor(0.25*40)=10 capped at 3 eligible
        assert ones >= 3

    def test_high_eps_wipes_all_unmasked_rows(self):
        # for p=0.05, eps=0.15 the contamination budget exceeds the number
        # of unmasked rows with overwhelming probability, so the output is
        # indistinguishable from a dataset generated with beta_star = 0
        data, mask = self._data(2000, 0.05, seed=22)
        assert mask.sum() <= 0.15 * 2000
        out = contaminate_b(data, mask, 0.15, RngSeed(23, 1))
        assert np.all(out.X == 0.0)
        assert np.array_equal(out.y, data.noise)

    def test_mask_length_mismatch(self):
        data, mask = self._data(30)
        with pytest.raises(ValueError):
            contaminate_b(data, mask[:-1], 0.1, RngSeed(0))

    def test_requires_stored_noise(self):
        data, mask = self._data(30)
        bare = Dataset(X=data.X, y=data.y, beta_star=data.beta_star)
        with pytest.raises(ValueError, match="noise"):
            contaminate_b(bare, mask, 0.1, RngSeed(0))


def _student_t(nu, seed, size):
    return ErrorDist.student_t(nu).draw(RngSeed(seed).generator(), size)


class TestStudentT:
    def test_deterministic(self):
        assert np.array_equal(_student_t(3, 24, 5), _student_t(3, 24, 5))

    def test_cauchy_quartiles(self):
        draws = _student_t(1, 25, 100_000)
        q1, med, q3 = np.percentile(draws, [25, 50, 75])
        assert abs(med) < 0.05
        assert abs((q3 - q1) - 2.0) < 0.1  # Cauchy quartiles are +/-1

    def test_nu4_variance(self):
        draws = _student_t(4, 26, 100_000)
        assert abs(draws.var() - 2.0) < 0.2  # var = nu/(nu-2) = 2

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            ErrorDist.student_t(0)


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((3, 2)), y=np.zeros(4))
        with pytest.raises(ValueError):
            Dataset(X=np.full((2, 2), np.nan), y=np.zeros(2))
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((2, 2)), y=np.zeros(2), pop_cov=np.array([[1, 2], [0, 1]]))
