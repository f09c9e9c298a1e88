"""Least squares, trimmed-mean min-max regression heuristics, and MoM regression.

The trimmed min-max objective over regressor pairs (beta_m, beta_M) is
approached by two heuristics: alternating Armijo sub-gradient steps over the
current active set, and alternating exact least-squares refits ("plug-in"),
each kept only if it moves the objective in its player's favour, or leaves
it equal with a smaller norm. Both move beta_m, then beta_M, round after
round, and both pick active sets with _select_active. The descent runs as
one kernel over a batch of trials of one shape, with stacked products that
give each trial the bits of its one-trial run; a trial leaves the batch when
its movement drops to a tolerance. The refits stop at a fixed point or at a
round cap. The median-of-means variant replaces the active set by the bucket
whose mean loss difference achieves the median. Best-MoM sweeps bucket
counts using oracle access to the true coefficients; it exists purely as an
infeasible benchmark baseline. Its candidate bucket counts descend together,
as one batch of iterate rows, and plain MoM is the one-candidate batch.
Every descent takes the closed-form Armijo step: on a frozen active set the
SSE is quadratic along the gradient, so the step test needs no SSE
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .estimators import TrimSpec, trimmed_mean
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

# Loss differences within this fraction of the mean squared response count
# as exact zeros in plug_in; see _evaluate. The rounding noise of Setup-B
# refits reaches about 1e-14 of it, and Setup-A runs have real differences
# below 1e-9 of it.
ZERO_DIFF_RTOL = 1e-12

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

    Rows of X that are exactly zero leave the solve: each adds y_i^2 to the
    SSE whatever beta is, so the minimizers, and the minimum-norm one, are
    those of the other rows. The solve is numpy's default call on the rows
    that remain, rank cutoff included, so a system with zero rows gives the
    bits of the same system without them. With every row zero, numpy solves
    an empty system and the answer is the zero vector.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be n-by-d and y a matching length-n vector")
    if X.shape[0] < 1:
        raise ValueError("need at least one observation")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("least-squares input contains non-finite entries")
    nonzero = X.any(axis=1)
    if not nonzero.all():
        X, y = X[nonzero], y[nonzero]
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta


def _squared_residuals(X, y, beta) -> np.ndarray:
    r = X @ beta - y
    return r * r


def _loss_diffs(X, y, beta_m, beta_M) -> np.ndarray:
    return _squared_residuals(X, y, beta_m) - _squared_residuals(X, y, beta_M)


def _select_active(diffs: np.ndarray, k: int):
    """Sorted values and active sets of a T-by-n stack of loss differences.

    Returns ``np.sort(diffs, axis=1)`` and the flat indices into its T*n
    cells of every row's active set, in increasing order: the cells of
    ranks k to n-k-1 by (value, column index); with k = 0, every cell. A
    row's rank-(k-1) value lo and rank-(n-k) value hi bound the cells kept
    outright, lo < diff < hi, which number n - 2k unless a tie straddles a
    cut. Only then are the rows checked: the cells equal to a bound that
    sorts on both sides of its cut take their ranks in index order from the
    bound's first position in the sorted row. NaN differences, which
    overflowing residuals leave, fail every cut; a row left short raises.
    """
    T, n = diffs.shape
    values = np.sort(diffs, axis=1)
    if k == 0:
        return values, np.arange(T * n)
    keep = (values[:, k - 1, None] < diffs) & (diffs < values[:, n - k, None])
    if np.count_nonzero(keep) != T * (n - 2 * k):
        for t in range(T):
            row, ranked = diffs[t], values[t]
            lo, hi = ranked.item(k - 1), ranked.item(n - k)
            straddling = []
            if ranked.item(k) == lo:
                straddling.append(lo)
            if ranked.item(n - k - 1) == hi and hi != lo:
                straddling.append(hi)
            for v in straddling:
                # cells[j] has rank first + j; keep the ranks in [k, n - k)
                cells = (row == v).nonzero()[0]
                first = int(ranked.searchsorted(v))
                keep[t, cells[max(k - first, 0) : n - k - first]] = True
    flat = keep.ravel().nonzero()[0]
    if flat.size != T * (n - 2 * k):
        raise ValueError("loss differences are NaN; no active set")
    return values, flat


def active_set(pair: RegressorPair, data: Dataset, k: int) -> np.ndarray:
    """Sorted indices over which the trimmed loss difference is a plain mean."""
    TrimSpec(k, data.n)  # raises unless 0 <= k and 2k < n
    diffs = _loss_diffs(data.X, data.y, pair.beta_m, pair.beta_M)
    return _select_active(diffs[None], k)[1]


def _armijo_step(step: float, g2: float, xg2: float):
    """Grown, then backtracked, Armijo step on a frozen active set; returns
    (taken, carried).

    ``step`` is the step carried from the last iteration; it first grows by
    1/THETA. On frozen rows SSE(beta - s*g) = SSE(beta) - s*||g||^2 +
    s^2*||X g||^2, so a step s does not increase the SSE iff
    s*||X g||^2 <= ||g||^2; the test needs ||g||^2 and ||X g||^2 only. From
    the grown step the step shrinks by THETA until the test holds. After
    LINE_SEARCH_CAP shrinks the step taken is zero, and the step shrunk once
    more carries over to the next iteration, as an accepted step does.
    """
    step /= THETA
    for _ in range(LINE_SEARCH_CAP + 1):
        if step * xg2 <= g2:
            return step, step
        step *= THETA
    return 0.0, step


def _dots(u, v) -> np.ndarray:
    """u[t] . v[t] for every t of two stacks of columns (T-by-len-by-1)."""
    return np.matmul(u.transpose(0, 2, 1), v).ravel()


def aasd(
    data: Dataset | Sequence[Dataset],
    k: int,
    cfg: Optional[GdConfig] = None,
    init: RegressorPair | Sequence[RegressorPair] | None = None,
) -> RegressorPair | list:
    """Alternating Armijo sub-gradient descent on the trimmed min-max objective.

    Each iteration moves beta_m, then beta_M against the updated beta_m.
    A player's half-step recomputes the active set (every row when k = 0)
    and takes one grown, then backtracked, gradient step on the frozen
    active-set SSE (see _armijo_step); if no step passes the test the
    iterate stays as it is, and that player's movement is 0. An
    iteration's movement is the larger of its players'. The descent stops
    after an iteration whose movement is at most tol_delta, as one where
    neither player moved is, or after max_iters iterations. beta_m is the
    regression estimate.

    ``data`` is one Dataset, with ``init`` a RegressorPair or None (the
    zero pair), and the result is a RegressorPair. It may also be a
    sequence of datasets of one shape, the trials of a batch, with
    ``init`` None or a sequence of as many pairs; the result is then the
    list of their pairs. A batch descends together, each trial with its
    own steps, and a trial that stops leaves it. Each trial ends with the
    bits of its one-trial call: the products are stacked, and np.matmul
    calls BLAS once per stack element, with that element's shape and
    strides, so every trial gets the call that a 2-D by 1-D or a 1-D by 1-D
    product on its own arrays makes.
    """
    cfg = cfg or GdConfig()
    single = isinstance(data, Dataset)
    if single:
        data, init = [data], [init]
    datasets = list(data)
    inits = [None] * len(datasets) if init is None else list(init)
    if len(inits) != len(datasets):
        raise ValueError("need one starting pair per dataset")
    if not datasets:
        return []
    n, d = datasets[0].X.shape
    TrimSpec(k, n)  # raises unless 0 <= k and 2k < n
    if any(ds.X.shape != (n, d) for ds in datasets):
        raise ValueError("the datasets of a batch must share n and d")
    inits = [RegressorPair.zeros(d) if p is None else p for p in inits]
    # Trial t is X[t], y[t] and the columns betas[0][t], betas[1][t].
    X = np.stack([ds.X for ds in datasets])
    y = np.stack([ds.y for ds in datasets])[:, :, None]
    betas = [
        np.stack([p.beta_m for p in inits])[:, :, None],
        np.stack([p.beta_M for p in inits])[:, :, None],
    ]
    out = [np.empty((len(datasets), d)), np.empty((len(datasets), d))]
    steps = [[INITIAL_STEP] * len(datasets), [INITIAL_STEP] * len(datasets)]
    ids = np.arange(len(datasets))
    m = n - 2 * k
    # Both players' squared residuals; they only pick the active set.
    S = [_squared_residuals(X, y, b) for b in betas]
    X_rows, y_rows = X.reshape(-1, d), y.reshape(-1)

    for _ in range(cfg.max_iters):
        for p in (0, 1):
            _, rows = _select_active((S[0] - S[1]).reshape(-1, n), k)
            XI = X_rows.take(rows, 0).reshape(-1, m, d)
            yI = y_rows.take(rows).reshape(-1, m, 1)
            beta = betas[p]
            grad = -2.0 * (XI.transpose(0, 2, 1) @ (yI - XI @ beta))
            Xg = XI @ grad
            taken, steps[p] = zip(*map(
                _armijo_step, steps[p], _dots(grad, grad).tolist(),
                _dots(Xg, Xg).tolist(),
            ))
            # a line search that ran out leaves its iterate as it is
            taken = np.array(taken)[:, None, None]
            new = np.where(taken > 0.0, beta - taken * grad, beta)
            step = beta - new
            movement = np.sqrt(_dots(step, step))
            delta = movement if p == 0 else np.maximum(delta, movement)
            betas[p] = new
            S[p] = _squared_residuals(X, y, new)
        done = delta <= cfg.tol_delta
        if done.any():
            for p in (0, 1):
                out[p][ids[done]] = betas[p][done, :, 0]
            go = ~done
            ids = ids[go]
            betas = [b[go] for b in betas]
            if ids.size == 0:
                break
            X, y = X[go], y[go]
            steps = [list(compress(s, go)) for s in steps]
            S = [s[go] for s in S]
            X_rows, y_rows = X.reshape(-1, d), y.reshape(-1)
    for p in (0, 1):
        out[p][ids] = betas[p][:, :, 0]
    pairs = [RegressorPair(bm, bM) for bm, bM in zip(*out)]
    return pairs[0] if single else pairs


def _evaluate(X, y, spec: TrimSpec, beta_m, beta_M, tol: float):
    """(T_k(l(beta_m) - l(beta_M)), active set) from one loss-difference vector.

    Differences within ``tol`` of zero are set to zero first. They are
    rounding noise where exact arithmetic gives zero: two fits that
    interpolate the same rows, or that differ only in their last bits, leave
    them there. Their signs would otherwise pick the active set among the
    exact zeros of the all-zero rows of a masked design, and decide between
    a strict move and a tie in plug_in's player move.

    One sort of the values serves both: _select_active sorts the vector as
    a one-row stack and reads its two cuts from it, and ``trimmed_mean``
    gets the sorted row, which it averages without sorting it again. The
    zeroing leaves no -0.0, so the sorted values have the bits of any sort
    by (value, index).
    """
    diffs = _loss_diffs(X, y, beta_m, beta_M)
    diffs[np.abs(diffs) <= tol] = 0.0
    values, idx = _select_active(diffs[None], spec.k)
    return trimmed_mean(values[0], spec), idx


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
    F and the active sets are taken with every loss difference smaller in
    size than ZERO_DIFF_RTOL times the mean squared response set to zero
    (see _evaluate), so rounding noise in a refit picks no active set and
    breaks no tie.

    A refit that fails this test usually left the active set it was fitted
    on, so F at the refit is taken over other rows. The refit's own active
    set is then the one to concentrate on: refits continue from it while
    each lowers (for beta_m) or raises (for beta_M) F on its predecessor,
    and the first of them that passes the test above is the move. The
    chain keeps the iterate once a refit after the first fails to improve
    on its predecessor, or after CONCENTRATION_CAP refits. Without the
    chain, a start whose first active set holds planted outlier rows would
    reject every refit and come back unchanged.

    The test depends on the current pair and the refit only, so the loop
    stops at a fixed point, where a round leaves both iterates unchanged
    and ``plug_in(data, k, result, iters=1)`` returns ``result``, or after
    ``iters`` rounds; ``iters`` is a cap, not a count. With k = 0 the first
    refit is the exact OLS minimizer of F, so it is kept.

    A refit solves only the active rows that carry covariates: the zero
    rows would leave the solve anyway, with the same bits (see
    fit_least_squares), and a set with none of them refits to the zero
    vector, the minimum-norm minimizer. Each such row set is solved once
    per call, and a repeat returns the same array. Likewise each pair's F
    and active set are computed once per call, keyed by the pair's bytes:
    a refit bit-equal to the iterate finds the current pair's F, ties it
    with an equal norm, and is not kept.
    """
    X, y = data.X, data.y
    n, d = X.shape
    spec = TrimSpec(k, n)
    if iters < 1:
        raise ValueError("iters must be a positive integer")
    if init is None:
        init = RegressorPair.zeros(d)
    tol = ZERO_DIFF_RTOL * float(y @ y) / n
    nonzero = X.any(axis=1)
    solved = {b"": np.zeros(d)}  # covariate row set -> refit
    evaluated = {}  # pair bytes -> (F, active set)

    def refit(idx):
        rows = idx[nonzero[idx]]
        key = rows.tobytes()
        beta = solved.get(key)
        if beta is None:
            beta = solved[key] = fit_least_squares(X[rows], y[rows])
        return beta

    def evaluate(pair):
        key = pair[0].tobytes() + pair[1].tobytes()
        hit = evaluated.get(key)
        if hit is None:
            hit = evaluated[key] = _evaluate(X, y, spec, *pair, tol)
        return hit

    def move(p, betas):
        # beta_m (p = 0) lowers F and beta_M (p = 1) raises it
        sign = 1 - 2 * p
        beta = betas[p]
        value, idx = evaluate(betas)
        point_value = sign * math.inf
        norm2 = float(beta @ beta)
        pair = list(betas)
        for _ in range(CONCENTRATION_CAP):
            pair[p] = cand = refit(idx)
            cand_value, cand_idx = evaluate(pair)
            if sign * cand_value < sign * value or (
                cand_value == value and float(cand @ cand) < norm2
            ):
                return cand
            if sign * cand_value >= sign * point_value:
                break
            point_value, idx = cand_value, cand_idx
        return beta

    # Each round moves beta_m, then beta_M against the updated beta_m; a
    # move returns betas[p] itself when the player stays.
    betas = [init.beta_m, init.beta_M]
    for _ in range(iters):
        fixed = True
        for p in (0, 1):
            new = move(p, betas)
            if new is not betas[p]:
                betas[p] = new
                fixed = False
        if fixed:
            break
    return RegressorPair(betas[0].copy(), betas[1].copy())


def _bucket_layout(n: int, num_blocks: int):
    """Contiguous balanced bucket offsets: sizes floor(n/K) or ceil(n/K)."""
    base, extra = divmod(n, num_blocks)
    sizes = np.full(num_blocks, base, dtype=np.intp)
    sizes[:extra] += 1
    starts = np.zeros(num_blocks, dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts, sizes


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
        new_m, Rm, eta = half_step(Bm, Rm, eta, Rm * Rm - RM * RM, layout)
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
