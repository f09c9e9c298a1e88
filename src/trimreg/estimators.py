"""Scalar and coordinatewise robust mean estimators.

Trimmed means, truncation, exceedance diagnostics, median of means, and the
closed-form trimming-level rule that backs the uniform estimation guarantee.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rounding import ceil_int, floor_int

__all__ = [
    "TrimSpec",
    "as_sample",
    "trimmed_mean",
    "truncate",
    "exceedance_count",
    "median_of_means",
    "phi_uniform",
    "uniform_trimmed_estimate",
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


def truncate(x, m: float):
    """Clamp ``x`` into [-m, m]; elementwise for array input."""
    _check_level(m)
    clipped = np.clip(x, -m, m)
    if np.ndim(clipped) == 0:
        return float(clipped)
    return clipped


def exceedance_count(values, m: float) -> int:
    """Number of entries with |value| strictly greater than ``m``."""
    arr = as_sample(values)
    _check_level(m)
    return int(np.count_nonzero(np.abs(arr) > m))


def _check_level(m: float) -> None:
    if not (m > 0) or not math.isfinite(m):
        raise ValueError(f"truncation level must be a positive real, got {m}")


def median_of_means(values, num_blocks: int) -> float:
    """Median of the block means over contiguous balanced blocks.

    The sample is split into ``num_blocks`` contiguous index ranges of size
    floor(n/K) or ceil(n/K); callers shuffle beforehand if they want a
    randomized partition. For an even number of blocks the median is the
    average of the two middle block means. K = 1 recovers the sample mean.
    """
    arr = as_sample(values)
    if not 1 <= num_blocks <= arr.size:
        raise ValueError(f"num_blocks must be in [1, {arr.size}], got {num_blocks}")
    starts, sizes = _bucket_layout(arr.size, num_blocks)
    means = [float(arr[s : s + z].mean()) for s, z in zip(starts, sizes)]
    return float(np.median(means))


def _bucket_layout(n: int, num_blocks: int):
    """Contiguous balanced bucket offsets: sizes floor(n/K) or ceil(n/K)."""
    base, extra = divmod(n, num_blocks)
    sizes = np.full(num_blocks, base, dtype=np.intp)
    sizes[:extra] += 1
    starts = np.zeros(num_blocks, dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts, sizes


def phi_uniform(n: int, eps: float, alpha: float) -> float:
    """Trimming level for the uniform-error guarantee.

    phi = (floor(eps*n) + max(ceil(ln(2/alpha)), ceil(min(1/2-eps, eps)/2 * n))) / n

    Raises if phi >= 1/2: the sample is too small, or the contamination too
    high, for the uniform guarantee to apply.
    """
    _check_phi_args(n, eps, alpha)
    count = floor_int(eps * n) + max(
        ceil_int(math.log(2.0 / alpha)),
        ceil_int(min(0.5 - eps, eps) / 2.0 * n),
    )
    phi = count / n
    if phi >= 0.5:
        raise ValueError(
            f"phi = {phi} >= 1/2: sample too small or contamination too high "
            "for the uniform guarantee"
        )
    return phi


def _check_phi_args(n: int, eps: float, alpha: float) -> None:
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def uniform_trimmed_estimate(samples, spec: TrimSpec) -> np.ndarray:
    """Columnwise trimmed mean of an n-by-d matrix of coordinate samples."""
    mat = np.asarray(samples, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"expected an n-by-d matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("sample contains non-finite values")
    if mat.shape[0] != spec.n:
        raise ValueError(f"sample rows {mat.shape[0]} != spec.n {spec.n}")
    middle = np.sort(mat, axis=0, kind="stable")[spec.k : spec.n - spec.k]
    return middle.mean(axis=0)
