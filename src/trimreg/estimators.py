"""The scalar trimmed mean and its trimming specification.

The trimming-level rule behind the uniform estimation guarantee,
``phi_uniform``, lives in ``bounds``. All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrimSpec",
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


def trimmed_mean(values, spec: TrimSpec) -> float:
    """Mean of the middle n - 2k order statistics.

    Equals the sample mean when k = 0. Ties among equal values are
    immaterial for the mean; sorting is stable regardless. The sample must
    be 1-D, of length n and finite. A sample already in ascending order is
    averaged as it is: it would sort to itself.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sample, got shape {arr.shape}")
    if arr.size != spec.n:
        raise ValueError(f"sample length {arr.size} != spec.n {spec.n}")
    # Every comparison with a NaN is false, so an ascending sample holds no
    # NaN, and it is finite when its two ends are.
    if (arr[:-1] <= arr[1:]).all():
        finite = math.isfinite(arr[0]) and math.isfinite(arr[-1])
    else:
        finite = np.isfinite(arr).all()
        arr = np.sort(arr, kind="stable")
    if not finite:
        raise ValueError("sample contains non-finite values")
    return float(arr[spec.k : spec.n - spec.k].mean())
