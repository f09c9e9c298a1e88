"""Seeded generators for the two synthetic regression benchmarks.

Setup A: Gaussian covariates with AR(1) covariance, light- or heavy-tailed
noise, and gross outlier rows planted at a fixed response value.

Setup B: Bernoulli-masked isotropic covariates (a caricature of missing
data), contaminated by zeroing as many unmasked rows as the budget allows.

Every generator is a pure function of its parameters and an RngSeed; repeat
calls agree bitwise within one build of this package.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._rounding import floor_int

__all__ = [
    "OUTLIER_RESPONSE",
    "RngSeed",
    "ErrorDist",
    "Dataset",
    "make_sigma",
    "gen_setup_a",
    "contaminate_a",
    "gen_setup_b",
    "contaminate_b",
]

# Planted response value for Setup A outlier rows.
OUTLIER_RESPONSE = 10000.0

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream_index) pair that fully determines one random stream.

    Distinct stream indices under the same seed give independent streams,
    so concurrent trial generation never shares generator state.
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            [self.seed & _MASK64, self.stream_index & _MASK64]
        )
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class ErrorDist:
    """Noise distribution for synthetic responses: Normal(0,1) or Student t."""

    kind: str
    nu: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind == "normal":
            if self.nu is not None:
                raise ValueError("normal errors take no degrees of freedom")
        elif self.kind == "student_t":
            if not isinstance(self.nu, numbers.Integral) or self.nu < 1:
                raise ValueError(f"student_t requires integer nu >= 1, got {self.nu!r}")
        else:
            raise ValueError(f"unknown error kind {self.kind!r}")

    @classmethod
    def normal(cls) -> "ErrorDist":
        return cls("normal")

    @classmethod
    def student_t(cls, nu: int) -> "ErrorDist":
        return cls("student_t", int(nu))

    @classmethod
    def from_label(cls, label: str) -> "ErrorDist":
        """Parse 'normal' or 't<nu>' (e.g. 't1', 't4')."""
        if label == "normal":
            return cls.normal()
        if label.startswith("t") and label[1:].isdigit():
            return cls.student_t(int(label[1:]))
        raise ValueError(f"unknown error distribution label {label!r}")

    @property
    def label(self) -> str:
        return "normal" if self.kind == "normal" else f"t{self.nu}"

    def draw(self, gen: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "normal":
            return gen.standard_normal(size)
        return _student_t_draw(gen, self.nu, size)


@dataclass
class Dataset:
    """Covariates, responses, and optional ground truth for benchmarks.

    ``noise`` keeps the regression residuals drawn at generation time; the
    Setup B contamination needs the exact residual of each zeroed row.
    """

    X: np.ndarray
    y: np.ndarray
    beta_star: Optional[np.ndarray] = None
    pop_cov: Optional[np.ndarray] = None
    noise: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.y.ndim != 1:
            raise ValueError("X must be n-by-d and y a length-n vector")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"row mismatch: X has {self.X.shape[0]} rows, y has {self.y.shape[0]}"
            )
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset contains non-finite entries")
        if self.beta_star is not None:
            self.beta_star = np.asarray(self.beta_star, dtype=float)
            if self.beta_star.shape != (self.X.shape[1],):
                raise ValueError("beta_star length must match covariate dimension")
        if self.pop_cov is not None:
            self.pop_cov = np.asarray(self.pop_cov, dtype=float)
            _check_psd(self.pop_cov, self.X.shape[1])
        if self.noise is not None:
            self.noise = np.asarray(self.noise, dtype=float)
            if self.noise.shape != self.y.shape:
                raise ValueError("noise length must match y")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _check_psd(sigma: np.ndarray, d: int) -> None:
    if sigma.shape != (d, d):
        raise ValueError(f"pop_cov must be {d}x{d}, got {sigma.shape}")
    if not np.allclose(sigma, sigma.T, rtol=1e-10, atol=1e-12):
        raise ValueError("pop_cov must be symmetric")
    if np.linalg.eigvalsh(sigma).min() < -1e-8:
        raise ValueError("pop_cov must be positive semidefinite")


def make_sigma(rho: float, d: int) -> np.ndarray:
    """AR(1) covariance matrix with entry (i, j) = rho^|i-j|."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    idx = np.arange(d)
    return rho ** np.abs(idx[:, None] - idx[None, :]).astype(float)


def _ar1_normal(gen: np.random.Generator, n: int, d: int, rho: float) -> np.ndarray:
    """Rows i.i.d. Normal(0, Sigma(rho)) via the stationary AR(1) recursion."""
    z = gen.standard_normal((n, d))
    if rho == 0.0 or d == 1:
        return z
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, d):
        x[:, j] = rho * x[:, j - 1] + scale * z[:, j]
    return x


def gen_setup_a(
    n: int,
    d: int,
    rho: float,
    err: ErrorDist,
    beta_star,
    rng: RngSeed,
) -> Dataset:
    """Gaussian-design linear model: X ~ Normal(0, Sigma(rho)), y = X beta + xi."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    beta = np.asarray(beta_star, dtype=float)
    if beta.shape != (d,):
        raise ValueError(f"beta_star must have length {d}")
    sigma = make_sigma(rho, d)
    gen = rng.generator()
    X = _ar1_normal(gen, n, d, rho)
    xi = err.draw(gen, n)
    y = X @ beta + xi
    return Dataset(X=X, y=y, beta_star=beta, pop_cov=sigma, noise=xi)


def contaminate_a(
    data: Dataset,
    eps: float,
    rng: RngSeed,
    outlier_response: float = OUTLIER_RESPONSE,
) -> Dataset:
    """Replace floor(eps*n) uniformly chosen rows by (beta_star, outlier_response).

    Returns a new Dataset; a non-finite planted response raises ValueError.
    """
    if data.beta_star is None:
        raise ValueError("contaminate_a requires beta_star on the dataset")
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    count = floor_int(eps * data.n)
    X, y = data.X.copy(), data.y.copy()
    if count:
        chosen = rng.generator().choice(data.n, size=count, replace=False)
        X[chosen] = data.beta_star
        y[chosen] = outlier_response
    return replace(data, X=X, y=y)


def gen_setup_b(n: int, d: int, p: float, beta_star, rng: RngSeed):
    """Bernoulli-masked isotropic design; returns (Dataset, mask).

    Each row is B_i * X'_i / sqrt(p) with B_i ~ Ber(p) and X'_i standard
    normal, so the covariates are isotropic. Responses use standard normal
    noise. The Bernoulli mask is returned alongside for the contamination
    step.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    beta = np.asarray(beta_star, dtype=float)
    if beta.shape != (d,):
        raise ValueError(f"beta_star must have length {d}")
    gen = rng.generator()
    mask = gen.random(n) < p
    xprime = gen.standard_normal((n, d))
    X = np.where(mask[:, None], xprime / np.sqrt(p), 0.0)
    xi = gen.standard_normal(n)
    y = X @ beta + xi
    data = Dataset(X=X, y=y, beta_star=beta, pop_cov=np.eye(d), noise=xi)
    return data, mask


def contaminate_b(data: Dataset, mask, eps: float, rng: RngSeed) -> Dataset:
    """Zero out min(floor(eps*n), #unmasked) rows chosen among the mask's ones.

    A zeroed row keeps its original residual: the new response is exactly
    the xi_i drawn at generation time, so the dataset must carry the noise
    that gen_setup_b stores. Returns a new Dataset.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (data.n,):
        raise ValueError(f"mask length {mask.shape} != sample size {data.n}")
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    if data.noise is None:
        raise ValueError("contaminate_b needs the noise stored at generation")
    eligible = np.flatnonzero(mask)
    count = min(floor_int(eps * data.n), eligible.size)
    X, y = data.X.copy(), data.y.copy()
    if count:
        chosen = rng.generator().choice(eligible, size=count, replace=False)
        X[chosen] = 0.0
        y[chosen] = data.noise[chosen]
    return replace(data, X=X, y=y)


def _student_t_draw(gen: np.random.Generator, nu: int, size: int) -> np.ndarray:
    numer = gen.standard_normal(size)
    chisq = np.sum(gen.standard_normal((size, nu)) ** 2, axis=1)
    return numer / np.sqrt(chisq / nu)
