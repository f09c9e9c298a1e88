"""Independent recomputation of what trimreg emits, for the output checks.

Each dataset is rebuilt from the public ``trial_seed`` and the ``synthdata``
generators, with the harness's stream layout per trial seed: 0 generates
the clean data, 1 contaminates it, 2 shuffles the MoM buckets and 3 draws
the random starting pair. Everything here runs outside the timed rounds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np
import scipy.linalg

from trimreg import (
    Dataset,
    ErrorDist,
    RegressorPair,
    RngSeed,
    contaminate_a,
    contaminate_b,
    gen_setup_a,
    gen_setup_b,
)
from trimreg.harness import trial_seed

STREAM_DATA, STREAM_CONTAM, STREAM_MOM, STREAM_INIT = 0, 1, 2, 3
OUTLIER_Y = 1e4
TRIM_EXTRA = 5


@dataclass(frozen=True)
class Row:
    """One line of an emitted ``trials.csv``."""

    setup: str
    n: int
    d: int
    rho_or_p: float
    eps: float
    error_dist: str
    method: str
    trial: int
    seed: int
    loss: float

    @property
    def trial_key(self) -> tuple:
        return (self.setup, self.n, self.d, self.rho_or_p, self.eps,
                self.error_dist, self.trial)


def read_trials(path: str) -> List[Row]:
    with open(path, newline="", encoding="ascii") as fh:
        return [
            Row(r["setup"], int(r["n"]), int(r["d"]), float(r["rho_or_p"]),
                float(r["eps"]), r["error_dist"], r["method"], int(r["trial"]),
                int(r["seed"]), float(r["loss"]))
            for r in csv.DictReader(fh)
        ]


def floor_count(eps: float, n: int) -> int:
    """floor(eps * n) in exact decimal arithmetic."""
    return math.floor(Fraction(repr(eps)) * n)


@dataclass
class Trial:
    """One trial's regenerated inputs."""

    seed: int
    clean: Dataset
    mask: Optional[np.ndarray]
    data: Dataset
    init: RegressorPair
    k: int
    count: int  # rows the contamination step was asked to replace


def regenerate(row: Row, base_seed: int) -> Optional[Trial]:
    """The dataset behind ``row``; None if the emitted seed is not the
    trial seed of (base_seed, cell, trial)."""
    seed = trial_seed(base_seed, row.setup, row.n, row.d, row.rho_or_p,
                      row.eps, row.error_dist, row.trial)
    if seed != row.seed:
        return None
    beta = np.ones(row.d)
    mask = None
    if row.setup == "A":
        clean = gen_setup_a(row.n, row.d, row.rho_or_p,
                            ErrorDist.from_label(row.error_dist), beta,
                            RngSeed(seed, STREAM_DATA))
        data = contaminate_a(clean, row.eps, RngSeed(seed, STREAM_CONTAM))
    else:
        clean, mask = gen_setup_b(row.n, row.d, row.rho_or_p, beta,
                                  RngSeed(seed, STREAM_DATA))
        data = contaminate_b(clean, mask, row.eps, RngSeed(seed, STREAM_CONTAM))
    gen = RngSeed(seed, STREAM_INIT).generator()
    init = RegressorPair(gen.standard_normal(row.d), gen.standard_normal(row.d))
    count = floor_count(row.eps, row.n)
    return Trial(seed, clean, mask, data, init, count + TRIM_EXTRA, count)


def contamination_ok(t: Trial) -> bool:
    """Setup A: exactly floor(eps n) rows equal (beta*, 1e4). Setup B:
    min(floor(eps n), sum(mask)) masked rows are zeroed, each keeping its
    stored noise as response. Every other row is the clean row."""
    X, y = t.data.X, t.data.y
    if t.mask is None:
        hit = np.all(X == t.data.beta_star, axis=1) & (y == OUTLIER_Y)
        expected = t.count
    else:
        hit = t.mask & np.all(X == 0.0, axis=1)
        expected = min(t.count, int(t.mask.sum()))
        if not np.array_equal(y[hit], t.clean.noise[hit]):
            return False
    keep = ~hit
    return (int(hit.sum()) == expected
            and np.array_equal(X[keep], t.clean.X[keep])
            and np.array_equal(y[keep], t.clean.y[keep]))


def pop_loss(beta, t: Trial) -> float:
    """sqrt(d^T Sigma d) with d = beta - beta*."""
    diff = np.asarray(beta) - t.data.beta_star
    return math.sqrt(float(np.einsum("i,ij,j->", diff, t.data.pop_cov, diff)))


def independent_ols(t: Trial) -> np.ndarray:
    """Least squares through the normal equations and a Cholesky solve,
    not trimreg's SVD-based solver."""
    X, y = t.data.X, t.data.y
    return scipy.linalg.solve(X.T @ X, X.T @ y, assume_a="pos")


def close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def python_active_set(t: Trial, pair: RegressorPair) -> List[int]:
    """Indices kept after dropping the k smallest and k largest loss
    differences, ranked by Python-sorted (value, index) pairs."""
    rm = t.data.X @ pair.beta_m - t.data.y
    rM = t.data.X @ pair.beta_M - t.data.y
    ranked = sorted((v, i) for i, v in enumerate((rm * rm - rM * rM).tolist()))
    return sorted(i for _, i in ranked[t.k:len(ranked) - t.k])
