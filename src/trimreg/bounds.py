"""Closed-form theoretical quantities: constants, trimming levels, and bounds.

Everything here is a deterministic formula evaluation. Moment parameters and
critical radii are not computable without distributional access, so they
enter as caller-supplied inputs; infima over moment exponents are taken over
the supplied finite grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

from ._rounding import ceil_int, floor_int

__all__ = [
    "MomentProfile",
    "UniformBoundInputs",
    "RegressionBoundInputs",
    "c_epsilon",
    "default_eps_bar",
    "c_j_epsilon",
    "c_j_epsilon_curve",
    "phi_uniform",
    "phi_regression",
    "phi_p_uniform",
    "phi_p_regression",
    "delta_q_default",
    "delta_m_default",
    "CriticalRadii",
    "critical_radii_linear",
    "chernoff_coupling_bound",
]


@dataclass(frozen=True)
class MomentProfile:
    """Moment values on a finite grid of exponents: ((p, value), ...).

    Exponents must be distinct and >= 1, with at least one in [1, 2] so the
    fluctuation infimum over q in [1, 2] is well defined.
    """

    entries: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        entries = tuple((float(p), float(v)) for p, v in self.entries)
        if not entries:
            raise ValueError("moment profile must be nonempty")
        ps = [p for p, _ in entries]
        if len(set(ps)) != len(ps):
            raise ValueError("moment exponents must be distinct")
        # written as `not x >= bound` so that NaN fails; an infinite moment
        # passes, and means the bound is not finite
        if not all(p >= 1.0 for p in ps):
            raise ValueError("moment exponents must be >= 1")
        if not all(v >= 0.0 for _, v in entries):
            raise ValueError("moment values must be nonnegative")
        if not any(1.0 <= p <= 2.0 for p in ps):
            raise ValueError("need at least one exponent in [1, 2]")
        object.__setattr__(self, "entries", entries)

    def fluctuation_term(self, ratio: float) -> float:
        """inf over grid exponents q in [1,2] of value * ratio^(1 - 1/q)."""
        return min(
            v * ratio ** (1.0 - 1.0 / p)
            for p, v in self.entries
            if 1.0 <= p <= 2.0
        )

    def contamination_term(self, eps: float) -> float:
        """inf over all grid exponents p of value * eps^(1 - 1/p)."""
        return min(v * eps ** (1.0 - 1.0 / p) for p, v in self.entries)


@dataclass(frozen=True)
class UniformBoundInputs:
    """Inputs to the uniform-estimation error bound."""

    emp: float
    nu: MomentProfile
    n: int
    eps: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.emp >= 0.0:
            raise ValueError("empirical-process expectation must be nonnegative")
        _check_nea(self.n, self.eps, self.alpha, formula_only=True)


@dataclass(frozen=True)
class RegressionBoundInputs:
    """Inputs to the regression error bound.

    The critical radii must be evaluated at delta_q = 1/(32 theta0) and
    delta_m = 1/(448 theta0^2); supplying radii at other deltas silently
    changes the meaning of the bound, and no rescaling is attempted.
    """

    theta0: float
    r_q: float
    r_m: float
    kappa: MomentProfile
    n: int
    eps: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.theta0 >= 1.0:
            raise ValueError("theta0 is an L2/L1 ratio and must be >= 1")
        if not (self.r_q >= 0.0 and self.r_m >= 0.0):
            raise ValueError("critical radii must be nonnegative")
        _check_nea(self.n, self.eps, self.alpha, formula_only=True)


def _check_nea(n: int, eps: float, alpha: float, formula_only: bool = False) -> None:
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    # the error-level formulas only need ln(3/alpha) > 0; the confidence
    # reading additionally needs alpha < 1
    upper = 3.0 if formula_only else 1.0
    if not 0.0 < alpha < upper:
        raise ValueError(f"alpha must lie in (0, {upper}), got {alpha}")


def c_epsilon(eps: float) -> float:
    """384 * (1 + eps / min(eps, 1/2 - eps)); 768 at eps = 0 by continuity.

    Constant 768 on (0, 1/4], strictly increasing on (1/4, 1/2).
    """
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    if eps == 0.0:
        return 768.0
    return 384.0 * (1.0 + eps / min(eps, 0.5 - eps))


def default_eps_bar(eps: float, num_unbounded: int = 1) -> float:
    """Per-family contamination share: min(1/2 - eps, eps) / (1 + b)."""
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    if num_unbounded < 0:
        raise ValueError("number of unbounded families must be nonnegative")
    return min(0.5 - eps, eps) / (1 + num_unbounded)


def c_j_epsilon(t: Sequence[int], j: int, eps: float, eps_bar: float) -> float:
    """192 * (1 + sum(t)/t[j] + eps/eps_bar), with eps/eps_bar := 0 at eps = 0.

    ``j`` indexes the family whose constant is wanted (0-based).
    """
    t = [int(v) for v in t]
    if not t or any(v <= 0 for v in t):
        raise ValueError("t must be a nonempty list of positive integers")
    if not 0 <= j < len(t):
        raise ValueError(f"index j={j} out of range for {len(t)} families")
    if not eps >= 0.0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if eps > 0.0 and not eps_bar > 0.0:
        raise ValueError("eps_bar must be positive")
    ratio = 0.0 if eps == 0.0 else eps / eps_bar
    return 192.0 * (1.0 + sum(t) / t[j] + ratio)


def c_j_epsilon_curve(
    eps_grid: Sequence[float],
    t: Sequence[int] = (1,),
    j: int = 0,
    num_unbounded: int = 1,
):
    """(eps, constant) pairs with the default per-family share.

    For eps below 1/4 the share is eps/(1+b), making the ratio constant at
    1+b; the curve is flat there and blows up as eps approaches 1/2. eps = 0
    uses the same one-sided continuity convention.
    """
    rows = []
    for eps in eps_grid:
        eps_bar = default_eps_bar(eps, num_unbounded)  # also checks eps and b
        # At eps = 0 take the limit from above, where eps/eps_bar = 1 + b.
        terms = (1.0 + num_unbounded, 1.0) if eps == 0.0 else (eps, eps_bar)
        rows.append((float(eps), c_j_epsilon(t, j, *terms)))
    return rows


def _trim_level(n: int, eps: float, log_term: float, share: float) -> float:
    """(floor(eps*n) + max(ceil(log_term), ceil(share*n))) / n."""
    count = floor_int(eps * n) + max(ceil_int(log_term), ceil_int(share * n))
    return count / n


def phi_uniform(n: int, eps: float, alpha: float) -> float:
    """Trimming level for the uniform-error guarantee.

    phi = (floor(eps*n) + max(ceil(ln(2/alpha)), ceil(min(1/2-eps, eps)/2 * n))) / n

    Raises if phi >= 1/2: the sample is too small, or the contamination too
    high, for the uniform guarantee to apply.
    """
    _check_nea(n, eps, alpha)
    phi = _trim_level(n, eps, math.log(2.0 / alpha), min(0.5 - eps, eps) / 2.0)
    if phi >= 0.5:
        raise ValueError(
            f"phi = {phi} >= 1/2: sample too small or contamination too high "
            "for the uniform guarantee"
        )
    return phi


def phi_regression(n: int, eps: float, alpha: float) -> float:
    """Trimming level for the regression guarantee.

    phi = (floor(eps*n) + max(ceil(ln(3/alpha)), ceil(eps*n/2))) / n.
    """
    _check_nea(n, eps, alpha)
    return _trim_level(n, eps, math.log(3.0 / alpha), eps / 2.0)


def phi_p_uniform(inputs: UniformBoundInputs) -> float:
    """Uniform-estimation error level:

    C_eps * (8*Emp + inf_q nu_q (ln(3/alpha)/n)^(1-1/q) + inf_p nu_p eps^(1-1/p)).
    """
    ratio = math.log(3.0 / inputs.alpha) / inputs.n
    return c_epsilon(inputs.eps) * (
        8.0 * inputs.emp
        + inputs.nu.fluctuation_term(ratio)
        + inputs.nu.contamination_term(inputs.eps)
    )


def phi_p_regression(inputs: RegressionBoundInputs) -> float:
    """Regression error level:

    49152 * max(r_q, 16 r_m)
      + 49152 theta0^2 * (inf_q kappa_q (ln(3/alpha)/n)^(1-1/q)
                          + inf_p kappa_p eps^(1-1/p)).
    """
    ratio = math.log(3.0 / inputs.alpha) / inputs.n
    radius_part = 49152.0 * max(inputs.r_q, 16.0 * inputs.r_m)
    moment_part = (
        49152.0
        * inputs.theta0**2
        * (
            inputs.kappa.fluctuation_term(ratio)
            + inputs.kappa.contamination_term(inputs.eps)
        )
    )
    return radius_part + moment_part


def delta_q_default(theta0: float) -> float:
    """delta at which the quadratic-process radius must be evaluated."""
    return 1.0 / (32.0 * theta0)


def delta_m_default(theta0: float) -> float:
    """delta at which the multiplier-process radius must be evaluated."""
    return 1.0 / (448.0 * theta0**2)


class CriticalRadii(NamedTuple):
    r_q: float
    r_m_bound: float


def critical_radii_linear(
    trace_sigma: float,
    sigma_noise: float,
    n: int,
    delta_q: float,
    delta_m: float,
) -> CriticalRadii:
    """Closed-form critical radii for the linear class.

    r_q = 0 once n >= tr(Sigma)/delta_q^2, and may be infinite below that
    threshold (returned as math.inf); the multiplier radius is bounded by
    (sigma/delta_m) * sqrt(tr(Sigma)/n).
    """
    if not (trace_sigma > 0 and sigma_noise > 0 and n > 0):
        raise ValueError("trace_sigma, sigma_noise and n must be positive")
    if not (delta_q > 0 and delta_m > 0):
        raise ValueError("delta_q and delta_m must be positive")
    threshold = trace_sigma / delta_q**2
    r_q = 0.0 if n >= threshold * (1.0 - 1e-12) else math.inf
    r_m = (sigma_noise / delta_m) * math.sqrt(trace_sigma / n)
    return CriticalRadii(r_q, r_m)


def chernoff_coupling_bound(n: int, p: float, eps: float) -> float:
    """Lower bound on P{sum B_i <= eps*n} for B_i iid Ber(p):

    1 - exp(-(eps - p)^2 n / (2 p (1 - p) + 2 eps)), clamped to [0, 1].
    Meaningful only for eps > p.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not eps > p:
        raise ValueError(f"need eps > p for the bound, got eps={eps}, p={p}")
    exponent = (eps - p) ** 2 * n / (2.0 * p * (1.0 - p) + 2.0 * eps)
    return min(1.0, max(0.0, 1.0 - math.exp(-exponent)))
