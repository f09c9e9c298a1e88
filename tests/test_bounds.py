import math

import numpy as np
import pytest

from trimreg.bounds import (
    MomentProfile,
    RegressionBoundInputs,
    UniformBoundInputs,
    c_epsilon,
    c_j_epsilon,
    c_j_epsilon_curve,
    chernoff_coupling_bound,
    critical_radii_linear,
    default_eps_bar,
    delta_m_default,
    delta_q_default,
    phi_p_regression,
    phi_p_uniform,
    phi_regression,
)


class TestMomentProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            MomentProfile(())
        with pytest.raises(ValueError):
            MomentProfile(((0.5, 1.0),))
        with pytest.raises(ValueError):
            MomentProfile(((2.0, 1.0), (2.0, 2.0)))
        with pytest.raises(ValueError):
            MomentProfile(((2.0, -1.0),))
        with pytest.raises(ValueError):
            MomentProfile(((3.0, 1.0),))  # nothing in [1, 2]

    @pytest.mark.parametrize(
        "entries", [((2.0, math.nan),), ((math.nan, 1.0), (2.0, 1.0))]
    )
    def test_rejects_nan(self, entries):
        with pytest.raises(ValueError):
            MomentProfile(entries)

    def test_infinite_moment_gives_no_finite_bound(self):
        nu = MomentProfile(((2.0, math.inf),))
        assert phi_p_uniform(UniformBoundInputs(0.0, nu, 100, 0.05, 0.05)) == math.inf

    def test_terms(self):
        prof = MomentProfile(((1.0, 2.0), (2.0, 1.0), (4.0, 3.0)))
        # fluctuation: only p in [1,2]; ratio=0.01: min(2*0.01^0, 1*0.1) = 0.1
        assert prof.fluctuation_term(0.01) == pytest.approx(0.1)
        # contamination at eps=0.01: min(2*1, 1*0.1, 3*0.01^0.75)
        expected = min(2.0, 0.1, 3.0 * 0.01**0.75)
        assert prof.contamination_term(0.01) == pytest.approx(expected)

    def test_p1_at_zero_contamination_uses_zero_power_convention(self):
        prof = MomentProfile(((1.0, 2.0),))
        assert prof.contamination_term(0.0) == 2.0  # 0^0 == 1


class TestCEpsilon:
    def test_reference_values(self):
        assert c_epsilon(0.1) == 768.0
        assert c_epsilon(0.0) == 768.0
        assert c_epsilon(0.4) == pytest.approx(384.0 * (1 + 0.4 / 0.1), rel=1e-12)

    def test_constant_up_to_quarter(self):
        for eps in (0.01, 0.1, 0.2, 0.25):
            assert c_epsilon(eps) == 768.0
        for eps in np.linspace(1e-6, 0.25, 64):
            assert c_epsilon(float(eps)) == pytest.approx(768.0, rel=1e-12)

    def test_strictly_increasing_past_quarter(self):
        grid = np.linspace(0.2501, 0.499, 60)
        vals = [c_epsilon(float(e)) for e in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_range_check(self):
        with pytest.raises(ValueError):
            c_epsilon(0.5)
        with pytest.raises(ValueError):
            c_epsilon(-0.01)


class TestCJEpsilon:
    def test_single_family(self):
        # one family, eps_bar = eps: 192 * (1 + 1 + 1)
        assert c_j_epsilon([3], 0, 0.1, 0.1) == 576.0

    def test_two_families_at_zero_contamination(self):
        assert c_j_epsilon([2, 4], 0, 0.0, 0.0) == 768.0  # 192*(1+3+0)

    def test_errors(self):
        with pytest.raises(ValueError):
            c_j_epsilon([], 0, 0.1, 0.1)
        with pytest.raises(ValueError):
            c_j_epsilon([1], 0, 0.1, 0.0)
        with pytest.raises(ValueError):
            c_j_epsilon([1], 1, 0.1, 0.1)
        with pytest.raises(ValueError):
            c_j_epsilon([1], 0, math.nan, 0.1)
        with pytest.raises(ValueError):
            c_j_epsilon([1], 0, 0.1, math.nan)

    def test_default_eps_bar(self):
        assert default_eps_bar(0.1, 1) == pytest.approx(0.05)
        assert default_eps_bar(0.4, 1) == pytest.approx(0.05)

    def test_curve_flat_then_increasing(self):
        low = [v for _, v in c_j_epsilon_curve(np.linspace(0.0, 0.25, 26))]
        assert all(v == pytest.approx(768.0, rel=1e-12) for v in low)
        high_eps = np.linspace(0.2501, 0.49, 40)
        high = [v for _, v in c_j_epsilon_curve(high_eps)]
        assert all(math.isfinite(v) for v in high)
        assert all(b > a for a, b in zip(high, high[1:]))

    def test_curve_diverges_toward_half(self):
        (_, near_half), = c_j_epsilon_curve([0.499])
        assert near_half > 100_000.0

    def test_curve_calls_c_j_epsilon(self):
        t, j, b = (2, 3), 1, 2
        grid = [0.01, 0.1, 0.25, 0.3, 0.45]
        for eps, value in c_j_epsilon_curve(grid, t, j, b):
            assert value == c_j_epsilon(t, j, eps, default_eps_bar(eps, b))
        (_, at_zero), = c_j_epsilon_curve([0.0], t, j, b)
        assert at_zero == 192.0 * (1.0 + 5 / 3 + 3.0)  # limit from above
        with pytest.raises(ValueError):
            c_j_epsilon_curve([0.1], t, 2, b)
        with pytest.raises(ValueError):
            c_j_epsilon_curve([0.0], (1, 0), 0, b)


class TestPhiRegression:
    def test_reference_value(self):
        assert phi_regression(1000, 0.05, 0.05) == 0.075

    def test_zero_contamination(self):
        # phi*n = ceil(ln(3/alpha)) exactly
        for alpha in (0.01, 0.05, 0.3, 0.9):
            phi = phi_regression(500, 0.0, alpha)
            assert phi * 500 == pytest.approx(math.ceil(math.log(3 / alpha)))

    def test_independent_formula_oracle(self):
        n, eps, alpha = 730, 0.073, 0.11
        count = math.floor(eps * n) + max(
            math.ceil(math.log(3 / alpha)), math.ceil(eps * n / 2)
        )
        assert phi_regression(n, eps, alpha) == pytest.approx(count / n)


class TestPhiPUniform:
    def test_reference_value(self):
        inputs = UniformBoundInputs(
            emp=0.0,
            nu=MomentProfile(((2.0, 1.0),)),
            n=100,
            eps=0.0,
            alpha=3.0 / math.e,  # ln(3/alpha) = 1
        )
        assert phi_p_uniform(inputs) == pytest.approx(76.8)

    def test_rejects_nan_expectation(self):
        with pytest.raises(ValueError):
            UniformBoundInputs(math.nan, MomentProfile(((2.0, 1.0),)), 100, 0.05, 0.05)

    def test_zero_inputs_give_zero(self):
        inputs = UniformBoundInputs(
            emp=0.0, nu=MomentProfile(((2.0, 0.0),)), n=50, eps=0.1, alpha=0.05
        )
        assert phi_p_uniform(inputs) == 0.0

    def test_grid_refinement_never_increases(self):
        base = MomentProfile(((2.0, 1.0),))
        finer = MomentProfile(((2.0, 1.0), (1.5, 0.9), (4.0, 2.0)))
        for eps in (0.0, 0.05, 0.2):
            a = phi_p_uniform(UniformBoundInputs(0.3, base, 200, eps, 0.05))
            b = phi_p_uniform(UniformBoundInputs(0.3, finer, 200, eps, 0.05))
            assert b <= a + 1e-12

    def test_monotone_in_eps_and_n(self):
        prof = MomentProfile(((1.0, 1.0), (2.0, 1.0), (4.0, 1.0)))
        eps_grid = np.linspace(0.0, 0.45, 20)
        n_grid = np.unique(np.logspace(1, 5, 20).astype(int))
        for n in n_grid:
            vals = [
                phi_p_uniform(UniformBoundInputs(0.1, prof, int(n), float(e), 0.05))
                for e in eps_grid
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for eps in eps_grid:
            vals = [
                phi_p_uniform(UniformBoundInputs(0.1, prof, int(n), float(eps), 0.05))
                for n in n_grid
            ]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestPhiPRegression:
    def _inputs(self, **kw):
        base = dict(
            theta0=1.0,
            r_q=0.0,
            r_m=0.0,
            kappa=MomentProfile(((2.0, 0.0),)),
            n=100,
            eps=0.0,
            alpha=0.05,
        )
        base.update(kw)
        return RegressionBoundInputs(**base)

    def test_all_zero_gives_zero(self):
        assert phi_p_regression(self._inputs()) == 0.0

    def test_radius_bracket(self):
        assert phi_p_regression(self._inputs(r_q=1.0)) == 49152.0
        assert phi_p_regression(self._inputs(r_m=1.0)) == 49152.0 * 16.0

    def test_delta_defaults(self):
        assert delta_q_default(2.0) == pytest.approx(1 / 64)
        assert delta_m_default(2.0) == pytest.approx(1 / 1792)

    def test_theta0_must_exceed_one(self):
        with pytest.raises(ValueError):
            self._inputs(theta0=0.9)

    @pytest.mark.parametrize("field", ["theta0", "r_q", "r_m"])
    def test_rejects_nan(self, field):
        with pytest.raises(ValueError):
            self._inputs(**{field: math.nan})

    def test_monotone_in_eps_and_n(self):
        prof = MomentProfile(((1.0, 1.0), (2.0, 1.0)))
        for n in (50, 500, 5000):
            vals = [
                phi_p_regression(
                    self._inputs(kappa=prof, n=n, eps=float(e), theta0=1.5)
                )
                for e in np.linspace(0, 0.45, 20)
            ]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class TestCriticalRadii:
    def test_boundary_case(self):
        radii = critical_radii_linear(20.0, 1.0, 2000, 0.1, 0.1)
        assert radii.r_q == 0.0
        assert radii.r_m_bound == pytest.approx(1.0)

    def test_small_sample_flags_possibly_infinite(self):
        radii = critical_radii_linear(20.0, 1.0, 1999, 0.1, 0.1)
        assert math.isinf(radii.r_q)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            critical_radii_linear(0.0, 1.0, 10, 0.1, 0.1)
        with pytest.raises(ValueError):
            critical_radii_linear(1.0, 1.0, 10, 0.0, 0.1)


class TestChernoffCoupling:
    def test_reference_value(self):
        expected = 1.0 - math.exp(-((0.15 - 0.05) ** 2) * 200 / (2 * 0.05 * 0.95 + 2 * 0.15))
        got = chernoff_coupling_bound(200, 0.05, 0.15)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.99368, abs=1e-4)

    def test_monotone_in_n(self):
        vals = [chernoff_coupling_bound(n, 0.05, 0.15) for n in (1, 10, 100, 1000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] < 0.05  # n -> 0 sends the bound to 0

    def test_clamped_to_unit_interval(self):
        assert 0.0 <= chernoff_coupling_bound(1, 0.05, 0.06) <= 1.0
        assert chernoff_coupling_bound(10**9, 0.05, 0.45) <= 1.0

    def test_requires_eps_above_p(self):
        with pytest.raises(ValueError):
            chernoff_coupling_bound(100, 0.2, 0.2)
        with pytest.raises(ValueError):
            chernoff_coupling_bound(100, 0.2, math.nan)
