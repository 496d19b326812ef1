"""Turning predictions' confidence scores into the adversary's linear system.

Given known parameters, consecutive log-ratios of the scores eliminate the
softmax and leave A x = b' with A = J W_pas, where J takes consecutive
differences of the logits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .model import VflModel, predict


class SystemError_(Exception):
    """Raised for a zero or subnormal score or a system that fails its checks."""


def difference_matrix(k: int) -> np.ndarray:
    """(k-1) x k matrix whose row m is -1 at column m and +1 at column m+1."""
    if k < 2:
        raise ValueError("need at least two classes")
    j = np.zeros((k - 1, k))
    idx = np.arange(k - 1)
    j[idx, idx] = -1.0
    j[idx, idx + 1] = 1.0
    return j


def log_ratio_scores(c) -> np.ndarray:
    """Consecutive log ratios ln(c_{m+1}/c_m) along the last axis of the scores."""
    return np.diff(np.log(np.asarray(c, dtype=float)), axis=-1)


def _rowwise(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ r for every row r of x; a 1-D x is one row.

    Written as (m x^T)^T so that the one-row case stays a matrix-vector
    product and gives the same bits as m @ x.
    """
    return (m @ x.T).T


@dataclass
class LinearSystem:
    """A x = b' for one prediction (b of length k-1) or N of them (b N x (k-1)).

    Every row shares A, so the pseudoinverse, nullspace projector and
    nullspace basis all come from one SVD of A, taken at construction and
    kept as the attribute svd. A 1-D b is the one-row case: per-row results
    then drop the row axis. Immutable after construction by convention.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = numerics.as_matrix(self.a)
        self.b = np.asarray(self.b, dtype=float)
        if self.b.ndim not in (1, 2) or self.b.shape[-1] != self.a.shape[0]:
            raise ValueError(f"b must have shape ({self.a.shape[0]},) or "
                             f"(N, {self.a.shape[0]}), got {self.b.shape}")
        if self.b.size == 0 or not np.all(np.isfinite(self.b)):
            raise ValueError("b must be non-empty and finite")
        self.svd = numerics.svd(self.a)

    @property
    def d(self) -> int:
        return self.a.shape[1]

    @property
    def batch(self) -> tuple:
        """Leading shape of per-row results: () for one row, (N,) for N rows."""
        return self.b.shape[:-1]

    @cached_property
    def pinv(self) -> np.ndarray:
        return self.svd.pinv()

    @cached_property
    def projector(self) -> np.ndarray:
        p = np.eye(self.d) - self.pinv @ self.a
        return 0.5 * (p + p.T)

    @cached_property
    def nullspace(self) -> np.ndarray:
        return self.svd.nullspace()

    @property
    def nullity(self) -> int:
        return self.nullspace.shape[1]

    @property
    def min_norm_solution(self) -> np.ndarray:
        return _rowwise(self.pinv, self.b)

    def residual(self, x) -> np.ndarray:
        """Per-row Euclidean residual ||A x - b'|| of estimates x (batch + (d,))."""
        return np.linalg.norm(_rowwise(self.a, x) - self.b, axis=-1)

    def contains(self, x, tau: float | None = None) -> np.ndarray:
        """Per-row membership of x in {x in [0,1]^d : Ax = b'}, up to slack tau."""
        tau = numerics.TAU_FEAS if tau is None else tau
        on_plane = np.max(np.abs(_rowwise(self.a, x) - self.b), axis=-1) <= tau
        return on_plane & np.all((x >= -tau) & (x <= 1.0 + tau), axis=-1)


def build_system(model: VflModel, y_act, c, source: str = "clean") -> LinearSystem:
    """Assemble A = J W_pas and b' = c' - J W_act y - J b from predictions.

    y_act is one row of active features (d_t - d) or N rows (N x (d_t - d))
    and c the matching scores (k or N x k); b' then has shape (k-1) or
    N x (k-1). Logs are taken of the scores as they are, so a score below
    np.finfo(float).tiny (zero or subnormal) raises SystemError_ naming its
    row, clean or noisy. For clean scores, the min-norm solution of each row
    must predict that row's scores to 1e-6 relative; a failed row indicates
    a dimension bug and raises.
    """
    y_act = np.asarray(y_act, dtype=float)
    c = np.asarray(c, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] != model.k:
        raise ValueError("confidence vector length must equal the class count")
    if y_act.shape != c.shape[:-1] + (model.w_act.shape[1],):
        raise ValueError(f"active features of shape {y_act.shape} do not match "
                         f"{c.shape[:-1]} predictions of this model")
    low = np.argwhere(np.atleast_2d(c) < np.finfo(float).tiny)
    if low.size:
        raise SystemError_(f"row {low[0, 0]} has score {np.atleast_2d(c)[tuple(low[0])]},"
                           " below the smallest normal float, so its log is not exact")
    j = difference_matrix(model.k)
    a = j @ model.w_pas
    bprime = (log_ratio_scores(c) - _rowwise(j, _rowwise(model.w_act, y_act))
              - j @ model.b)
    sys_ = LinearSystem(a=a, b=bprime)
    if source == "clean":
        # A x = b' alone cannot fail where A has full row rank
        c_ls = predict(model, y_act, sys_.min_norm_solution)
        err = np.atleast_1d(np.max(np.abs(c_ls - c) / c, axis=-1))
        bad = np.flatnonzero(err > 1e-6)
        if bad.size:
            raise SystemError_(
                f"clean-score system is not satisfiable at row {bad[0]} (its min-norm "
                f"solution predicts scores off by {err[bad[0]]:.3e} relative; "
                f"{bad.size} of {err.size} rows fail); check dimensions")
    return sys_
