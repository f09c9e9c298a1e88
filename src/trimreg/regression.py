"""Least squares, trimmed-mean min-max regression heuristics, and MoM regression.

The trimmed min-max objective over regressor pairs (beta_m, beta_M) is
approached by two heuristics: alternating Armijo sub-gradient steps over the
current active set, and alternating exact least-squares refits ("plug-in"),
each kept only if it moves the objective in its player's favour, or leaves
it equal with a smaller norm.
The median-of-means variant replaces the active set by the bucket whose mean
loss difference achieves the median. Best-MoM sweeps bucket counts using
oracle access to the true coefficients; it exists purely as an infeasible
benchmark baseline. Its candidate bucket counts descend together, as one
batch of iterate rows, and plain MoM is the one-candidate batch. Every
descent takes the closed-form Armijo step: on a frozen active set the SSE
is quadratic along the gradient, so the step test needs no SSE evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .estimators import TrimSpec, _bucket_layout, trimmed_mean
from .synthdata import Dataset, RngSeed

__all__ = [
    "LINE_SEARCH_CAP",
    "PLUGIN_ITERS",
    "THETA",
    "GdConfig",
    "RegressorPair",
    "fit_least_squares",
    "active_set",
    "aasd",
    "plug_in",
    "mom_regression",
    "best_mom",
    "loss_l2",
    "divisors",
]

# Backtracking halvings allowed before a half-iteration accepts a zero step.
LINE_SEARCH_CAP = 60

# Refits one plug-in move may chain before it keeps the current iterate.
CONCENTRATION_CAP = 60

# Default cap on plug-in rounds; the loop usually reaches its fixed point
# well before it.
PLUGIN_ITERS = 100

# Step size each descent starts from, for beta_m and beta_M alike.
INITIAL_STEP = 1.0

# Factor a backtracking shrink multiplies the step by; each iteration first
# grows the step by its inverse.
THETA = 0.5


@dataclass(frozen=True)
class GdConfig:
    """Stopping parameters of the descents; both steps start at INITIAL_STEP
    and shrink by THETA."""

    tol_delta: float = 1e-4
    max_iters: int = 1000

    def __post_init__(self) -> None:
        if not self.tol_delta > 0:
            raise ValueError("tol_delta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")


@dataclass
class RegressorPair:
    """The (min, max) iterates of the saddle-point heuristics."""

    beta_m: np.ndarray
    beta_M: np.ndarray

    def __post_init__(self) -> None:
        self.beta_m = np.asarray(self.beta_m, dtype=float)
        self.beta_M = np.asarray(self.beta_M, dtype=float)
        if self.beta_m.shape != self.beta_M.shape or self.beta_m.ndim != 1:
            raise ValueError("beta_m and beta_M must be vectors of equal length")
        if not (np.all(np.isfinite(self.beta_m)) and np.all(np.isfinite(self.beta_M))):
            raise ValueError("regressor pair contains non-finite entries")

    @classmethod
    def zeros(cls, d: int) -> "RegressorPair":
        return cls(np.zeros(d), np.zeros(d))


def fit_least_squares(X, y) -> np.ndarray:
    """Minimum-norm least-squares solution of X beta ~ y.

    Satisfies the normal-equation residual bound
    ||X^T (y - X beta)||_inf <= 1e-8 * (1 + ||X^T y||_inf) on
    well-conditioned systems; rank-deficient systems get the minimum-norm
    minimizer.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be n-by-d and y a matching length-n vector")
    if X.shape[0] < 1:
        raise ValueError("need at least one observation")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("least-squares input contains non-finite entries")
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta


def _loss_diffs(X, y, beta_m, beta_M) -> np.ndarray:
    rm = X @ beta_m - y
    rM = X @ beta_M - y
    return rm * rm - rM * rM


def _active_indices(diffs: np.ndarray, k: int) -> np.ndarray:
    """Indices surviving removal of the k largest and k smallest loss diffs.

    Ties resolve by stable sort on (value, original index).
    """
    n = diffs.shape[0]
    if k == 0:
        return np.arange(n)
    keep = np.argsort(diffs, kind="stable")[k : n - k]
    keep.sort()
    return keep


def active_set(pair: RegressorPair, data: Dataset, k: int) -> np.ndarray:
    """Sorted indices over which the trimmed loss difference is a plain mean."""
    TrimSpec(k, data.n)  # raises unless 0 <= k and 2k < n
    return _active_indices(_loss_diffs(data.X, data.y, pair.beta_m, pair.beta_M), k)


def _armijo_step(step: float, g2: float, xg2: float):
    """Backtracked Armijo step on a frozen active set; returns (taken, carried).

    On frozen rows SSE(beta - s*g) = SSE(beta) - s*||g||^2 + s^2*||X g||^2,
    so a step s does not increase the SSE iff s*||X g||^2 <= ||g||^2; the
    test needs ||g||^2 and ||X g||^2 only. From ``step`` the step shrinks by
    THETA until the test holds. After LINE_SEARCH_CAP shrinks the step taken
    is zero, and the step shrunk once more carries over to the next
    iteration, as an accepted step does.
    """
    for _ in range(LINE_SEARCH_CAP + 1):
        if step * xg2 <= g2:
            return step, step
        step *= THETA
    return 0.0, step


def _armijo_half_step(XI, yI, beta, step):
    """One grown-then-backtracked gradient step on the active-set SSE.

    Takes beta - s * grad for the largest s = step * THETA^j with
    j <= LINE_SEARCH_CAP that does not increase the SSE over the active rows
    (see _armijo_step); if none does, the iterate is kept unchanged.
    Returns (new_beta, step) so the step size carries over to the next
    iteration.
    """
    grad = -2.0 * (XI.T @ (yI - XI @ beta))
    Xg = XI @ grad
    taken, step = _armijo_step(step, float(grad @ grad), float(Xg @ Xg))
    if taken == 0.0:
        return beta, step
    return beta - taken * grad, step


def aasd(
    data: Dataset,
    k: int,
    cfg: Optional[GdConfig] = None,
    init: Optional[RegressorPair] = None,
) -> RegressorPair:
    """Alternating Armijo sub-gradient descent on the trimmed min-max objective.

    Each iteration grows the step size by 1/THETA, recomputes the active set,
    descends beta_m on the frozen active-set SSE with backtracking, then
    recomputes the active set with the updated beta_m and applies the
    symmetric update to beta_M. Both residual vectors are kept, so a
    half-step recomputes only its own player's. Stops when the larger
    iterate movement drops to tol_delta, or after max_iters iterations.
    beta_m is the regression estimate.
    """
    cfg = cfg or GdConfig()
    X, y = data.X, data.y
    n, d = X.shape
    TrimSpec(k, n)  # raises unless 0 <= k and 2k < n
    if init is None:
        init = RegressorPair.zeros(d)
    beta_m = init.beta_m.copy()
    beta_M = init.beta_M.copy()
    rm = X @ beta_m - y
    rM = X @ beta_M - y
    eta = xi = INITIAL_STEP
    for _ in range(cfg.max_iters):
        eta /= THETA
        idx = _active_indices(rm * rm - rM * rM, k)
        new_m, eta = _armijo_half_step(X[idx], y[idx], beta_m, eta)
        rm = X @ new_m - y

        xi /= THETA
        idx = _active_indices(rm * rm - rM * rM, k)
        new_M, xi = _armijo_half_step(X[idx], y[idx], beta_M, xi)
        rM = X @ new_M - y

        delta = max(
            float(np.linalg.norm(beta_m - new_m)),
            float(np.linalg.norm(beta_M - new_M)),
        )
        beta_m, beta_M = new_m, new_M
        if delta <= cfg.tol_delta:
            break
    return RegressorPair(beta_m, beta_M)


def _evaluate(X, y, spec: TrimSpec, beta_m, beta_M):
    """(T_k(l(beta_m) - l(beta_M)), active set) from one loss-difference vector."""
    diffs = _loss_diffs(X, y, beta_m, beta_M)
    return trimmed_mean(diffs, spec), _active_indices(diffs, spec.k)


def _refit_half_step(X, y, spec: TrimSpec, beta, other, minimize: bool, current):
    """One player's move in the plug-in heuristic; returns (beta, evaluation).

    The player owns ``beta`` and faces ``other``: beta_m minimizes the
    objective and beta_M maximizes it; ``current`` is the evaluation (see
    _evaluate) of the current pair. From ``beta`` a chain of concentration
    steps runs, each an exact least-squares refit on the active set of the
    previous chain point. The first refit that moves the objective strictly
    the player's way, or leaves it equal with a strictly smaller norm than
    ``beta``, replaces ``beta``. The test looks at ``beta`` and the refit
    only, so a pair the loop stops at is a fixed point of the round. A
    first refit bit-equal to ``beta`` keeps ``beta`` unevaluated. The chain
    gives up and keeps ``beta`` once a refit after the first fails to
    improve on its predecessor, or after CONCENTRATION_CAP refits.
    """
    sign = 1.0 if minimize else -1.0
    value = current[0]
    point_value, idx = current
    norm2 = float(beta @ beta)
    for step in range(CONCENTRATION_CAP):
        cand = fit_least_squares(X[idx], y[idx])
        if step == 0 and np.array_equal(cand, beta):
            return beta, current
        pair = (cand, other) if minimize else (other, cand)
        cand_value, cand_idx = _evaluate(X, y, spec, *pair)
        if sign * cand_value < sign * value or (
            cand_value == value and float(cand @ cand) < norm2
        ):
            return cand, (cand_value, cand_idx)
        if step > 0 and sign * cand_value >= sign * point_value:
            break
        point_value, idx = cand_value, cand_idx
    return beta, current


def plug_in(
    data: Dataset,
    k: int,
    init: Optional[RegressorPair] = None,
    iters: int = PLUGIN_ITERS,
) -> RegressorPair:
    """Alternating exact least-squares refits that descend on the objective.

    The objective is F(beta_m, beta_M) = T_k(l(beta_m) - l(beta_M)) over
    all n rows, which beta_m minimizes and beta_M maximizes. Each round
    moves beta_m, then beta_M against the updated beta_m. A move is a
    least-squares refit on the player's current active set (a trimmed
    concentration step, as in FAST-LTS). The refit replaces beta_m if it
    lowers F, and replaces beta_M if it raises F. On a tie, where the refit
    leaves F equal (F is flat over wide regions when the active rows are
    all zero, as in the masked Setup B), the refit replaces the iterate
    only if its norm is strictly smaller, the minimum-norm convention of
    fit_least_squares. Equal-F moves thus shrink a norm and cannot cycle.

    A refit that fails this test usually left the active set it was fitted
    on, so F at the refit is taken over other rows. The refit's own active
    set is then the one to concentrate on: refits continue from it while
    each lowers (for beta_m) or raises (for beta_M) F on its predecessor,
    and the first of them that passes the test above is the move. Without
    this, a start whose first active set holds planted outlier rows would
    reject every refit and come back unchanged.

    The test depends on the current pair and the refit only, so the loop
    stops at a fixed point, where a round leaves both iterates unchanged
    and ``plug_in(data, k, result, iters=1)`` returns ``result``, or after
    ``iters`` rounds; ``iters`` is a cap, not a count. With k = 0 the first
    refit is the exact OLS minimizer of F, so it is kept.
    """
    X, y = data.X, data.y
    n, d = X.shape
    spec = TrimSpec(k, n)
    if iters < 1:
        raise ValueError("iters must be a positive integer")
    if init is None:
        init = RegressorPair.zeros(d)
    beta_m = init.beta_m.copy()
    beta_M = init.beta_M.copy()
    current = _evaluate(X, y, spec, beta_m, beta_M)
    for _ in range(iters):
        new_m, current = _refit_half_step(X, y, spec, beta_m, beta_M, True, current)
        new_M, current = _refit_half_step(X, y, spec, beta_M, new_m, False, current)
        fixed = np.array_equal(new_m, beta_m) and np.array_equal(new_M, beta_M)
        beta_m, beta_M = new_m, new_M
        if fixed:
            break
    return RegressorPair(beta_m, beta_M)


def _mom_layout(n: int, Ks):
    """Buckets of every candidate in ``Ks``, laid out over a flattened C-by-n matrix.

    Returns (starts, sizes, owner, median, bucket): the offset c*n + start
    and the size of each bucket, the candidate c owning it, for each
    candidate the position of its median bucket in an owner-major sort of
    all buckets, and the C-by-n map from each cell to its bucket.
    """
    layouts = [_bucket_layout(n, K) for K in Ks]
    starts = np.concatenate([c * n + st for c, (st, _) in enumerate(layouts)])
    sizes = np.concatenate([sz for _, sz in layouts])
    Ks = np.asarray(Ks, dtype=np.intp)
    # the smallest integer type: lexsort on it is several times faster
    owner = np.repeat(np.arange(Ks.size, dtype=np.min_scalar_type(Ks.size)), Ks)
    median = np.cumsum(Ks) - Ks + (Ks - 1) // 2
    bucket = np.repeat(np.arange(sizes.size), sizes).reshape(Ks.size, n)
    return starts, sizes, owner, median, bucket


def _median_buckets(diffs, starts, sizes, owner, median) -> np.ndarray:
    """Per candidate, the bucket whose mean loss difference is the median.

    ``diffs`` is the C-by-n matrix of loss differences. For an even bucket
    count the lower of the two middle buckets is used; ties resolve by
    bucket order (lexsort is stable). Returns indices into ``starts``.
    """
    means = np.add.reduceat(diffs.ravel(), starts) / sizes
    return np.lexsort((means, owner))[median]


def _rowwise(A, M):
    """A @ M one row at a time, so each row's bits do not depend on the others.

    A two-dimensional BLAS product may round a row differently depending on
    how many rows it is given; a stacked product makes the same call for
    every row, so a batched candidate matches its one-candidate run.
    """
    return np.matmul(A[:, None, :], M)[:, 0]


def _mom_descent(
    data: Dataset,
    Ks: Sequence[int],
    cfg: Optional[GdConfig],
    init: Optional[RegressorPair],
    rng: Optional[RngSeed],
):
    """Alternating MoM descent for every bucket count in ``Ks`` at once.

    The sample is shuffled once with ``rng``. Row c of the returned
    (C-by-d, C-by-d) pair of iterate matrices is the descent with Ks[c]
    buckets. Each half-step takes every candidate's median bucket as its
    active set and one closed-form Armijo step on that bucket's SSE. Each
    candidate keeps its own step sizes and stops on its own movement; a
    stopped candidate's iterates are final and it leaves the batch. Every
    row is computed apart from the others, so it does not depend on which
    other candidates share the batch.
    """
    n = data.n
    for K in Ks:
        if not 1 <= K <= n:
            raise ValueError(f"num_blocks must be in [1, {n}], got {K}")
    cfg = cfg or GdConfig()
    if init is None:
        init = RegressorPair.zeros(data.d)
    perm = (rng or RngSeed(0)).generator().permutation(n)
    Xs, ys = data.X[perm], data.y[perm]
    XsT = Xs.T
    Ks = np.asarray(Ks, dtype=np.intp)
    ids = np.arange(Ks.size)
    Bm = np.tile(init.beta_m, (Ks.size, 1))
    BM = np.tile(init.beta_M, (Ks.size, 1))
    out_m, out_M = np.empty_like(Bm), np.empty_like(BM)
    Rm = _rowwise(Bm, XsT) - ys
    RM = _rowwise(BM, XsT) - ys
    eta = np.full(Ks.size, INITIAL_STEP)
    xi = np.full(Ks.size, INITIAL_STEP)
    layout = _mom_layout(n, Ks)

    def half_step(B, R, step, diffs, layout):
        starts, sizes, owner, median, bucket = layout
        b = _median_buckets(diffs, starts, sizes, owner, median)
        rows = bucket == b[:, None]
        G = 2.0 * _rowwise(np.where(rows, R, 0.0), Xs)
        XG = np.where(rows, _rowwise(G, XsT), 0.0)
        g2 = np.einsum("ij,ij->i", G, G).tolist()
        xg2 = np.einsum("ij,ij->i", XG, XG).tolist()
        taken, carried = np.array(
            [_armijo_step(*args) for args in zip(step.tolist(), g2, xg2)]
        ).T
        new = np.where((taken > 0.0)[:, None], B - taken[:, None] * G, B)
        return new, _rowwise(new, XsT) - ys, carried

    for _ in range(cfg.max_iters):
        eta = eta / THETA
        new_m, Rm, eta = half_step(Bm, Rm, eta, Rm * Rm - RM * RM, layout)
        xi = xi / THETA
        new_M, RM, xi = half_step(BM, RM, xi, Rm * Rm - RM * RM, layout)
        delta = np.maximum(
            np.linalg.norm(Bm - new_m, axis=1), np.linalg.norm(BM - new_M, axis=1)
        )
        Bm, BM = new_m, new_M
        done = delta <= cfg.tol_delta
        if done.any():
            out_m[ids[done]] = Bm[done]
            out_M[ids[done]] = BM[done]
            go = ~done
            ids, Bm, BM, Rm, RM, eta, xi = (
                a[go] for a in (ids, Bm, BM, Rm, RM, eta, xi)
            )
            if ids.size == 0:
                break
            layout = _mom_layout(n, Ks[ids])
    out_m[ids] = Bm
    out_M[ids] = BM
    return out_m, out_M


def mom_regression(
    data: Dataset,
    num_blocks: int,
    cfg: Optional[GdConfig] = None,
    init: Optional[RegressorPair] = None,
    rng: Optional[RngSeed] = None,
) -> RegressorPair:
    """Median-of-means analogue of the alternating descent heuristic.

    The sample is shuffled once with the supplied seed and split into
    ``num_blocks`` balanced contiguous buckets. Per iteration, the bucket
    achieving the median of the bucket means of the loss difference plays
    the role of the active set in the alternating Armijo updates; the
    stopping rule matches the trimmed-mean descent. This is the one-candidate
    run of the batched descent that Best-MoM uses.
    """
    Bm, BM = _mom_descent(data, [num_blocks], cfg, init, rng)
    return RegressorPair(Bm[0], BM[0])


def best_mom(
    data: Dataset,
    candidate_Ks: Optional[Sequence[int]] = None,
    cfg: Optional[GdConfig] = None,
    init: Optional[RegressorPair] = None,
    rng: Optional[RngSeed] = None,
    beta_star=None,
    Sigma=None,
):
    """Oracle sweep over bucket counts; returns (best_K, best_pair).

    Runs the MoM regression for every candidate bucket count and keeps the
    one minimizing the population-covariance loss against the known true
    coefficients (the first such candidate on ties). The candidates descend
    together as one batch on the same shuffle, and each ends where
    ``mom_regression`` at its bucket count ends. Infeasible in practice (it
    peeks at beta_star); used only to benchmark against.
    """
    if beta_star is None or Sigma is None:
        raise ValueError("best_mom needs the true coefficients and covariance")
    if candidate_Ks is None:
        candidate_Ks = divisors(data.n)
    candidate_Ks = list(candidate_Ks)
    if not candidate_Ks:
        raise ValueError("candidate bucket counts must be nonempty")
    Bm, BM = _mom_descent(data, candidate_Ks, cfg, init, rng)
    losses = [loss_l2(beta_m, beta_star, Sigma) for beta_m in Bm]
    c = losses.index(min(losses))
    return candidate_Ks[c], RegressorPair(Bm[c], BM[c])


def loss_l2(beta_hat, beta_star, Sigma) -> float:
    """Prediction-distance loss sqrt((b - b*)^T Sigma (b - b*))."""
    bh = np.asarray(beta_hat, dtype=float)
    bs = np.asarray(beta_star, dtype=float)
    S = np.asarray(Sigma, dtype=float)
    if bh.shape != bs.shape or bh.ndim != 1:
        raise ValueError("coefficient vectors must have matching lengths")
    if S.shape != (bh.size, bh.size):
        raise ValueError(f"Sigma must be {bh.size}x{bh.size}, got {S.shape}")
    if not np.allclose(S, S.T, rtol=1e-10, atol=1e-12):
        raise ValueError("Sigma must be symmetric")
    diff = bh - bs
    quad = float(diff @ S @ diff)
    return math.sqrt(max(quad, 0.0))


def divisors(n: int) -> list:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    small, large = [], []
    step = 1
    while step * step <= n:
        if n % step == 0:
            small.append(step)
            if step != n // step:
                large.append(n // step)
        step += 1
    return small + large[::-1]
