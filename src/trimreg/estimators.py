"""The scalar trimmed mean and its trimming specification.

The trimming-level rule behind the uniform estimation guarantee,
``phi_uniform``, lives in ``bounds``. All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrimSpec",
    "as_sample",
    "trimmed_mean",
]


@dataclass(frozen=True)
class TrimSpec:
    """Trim ``k`` points from each tail of an ``n``-point sample.

    Requires 0 <= k and 2k < n, so the trimmed mean always averages at
    least one value.
    """

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"sample size must be positive, got n={self.n}")
        if self.k < 0:
            raise ValueError(f"trim count must be nonnegative, got k={self.k}")
        if 2 * self.k >= self.n:
            raise ValueError(f"need 2k < n, got k={self.k}, n={self.n}")


def as_sample(values) -> np.ndarray:
    """Coerce to a 1-D float array, rejecting NaN and infinities."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sample, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


def trimmed_mean(values, spec: TrimSpec) -> float:
    """Mean of the middle n - 2k order statistics.

    Equals the sample mean when k = 0. Ties among equal values are
    immaterial for the mean; sorting is stable regardless.
    """
    arr = as_sample(values)
    if arr.size != spec.n:
        raise ValueError(f"sample length {arr.size} != spec.n {spec.n}")
    middle = np.sort(arr, kind="stable")[spec.k : spec.n - spec.k]
    return float(middle.mean())
