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
from .numerics import _rowwise


class SystemError_(numerics.RowsError):
    """Raised for a score that is not a finite normal float or a failed system check."""


def difference_matrix(k: int) -> np.ndarray:
    """(k-1) x k matrix whose row m is -1 at column m and +1 at column m+1."""
    if k < 2:
        raise ValueError("need at least two classes")
    j = np.zeros((k - 1, k))
    idx = np.arange(k - 1)
    j[idx, idx] = -1.0
    j[idx, idx + 1] = 1.0
    return j


@dataclass(frozen=True)
class LinearSystem:
    """A x = b' for one prediction (b of length k-1), N of them (b N x (k-1))
    or a batch of systems: the axes of b before its last two.

    A 2-D a is one A that every system shares, as the settings of a
    score-release defense do (they move only b'): b has shape (k-1,),
    (N, k-1) or S + (N, k-1), and system i is LinearSystem(a, b[i]). A
    stacked a (S + (k-1, d)) holds one A per system, b has shape
    S + (N, k-1), and system i is LinearSystem(a[i], b[i], log_c[i]). One
    SVD call factors every A at construction (the attribute svd;
    svd.nullspace() is one A's basis); pinv, projector, min_norm_solution,
    plane_center (half_star, where rcc2's projection starts), contains and
    residual work on every system at once, each getting the bits it gets
    alone, nullity gives each A's and row_a each row's A, the one map from a
    row to its system. A 1-D b is the one-row case: per-row results then
    drop the row axis. log_c holds the logs of the released scores (batch +
    (k,)) that b' came from; gia needs them, the other estimators read only
    (A, b'), and a system built by hand may leave them out. Frozen:
    dataclasses.replace makes a changed copy, checked and factored again.
    """

    a: np.ndarray
    b: np.ndarray
    log_c: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float, order="C")     # C order: strides pick BLAS kernels
        # a stack is checked as one tall matrix
        object.__setattr__(self, "a", numerics.as_matrix(a) if a.ndim < 3 else
                           numerics.as_matrix(a.reshape(-1, a.shape[-1])).reshape(a.shape))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float, order="C"))
        lead, m = self.a.shape[:-2], self.a.shape[-2]
        if lead and self.b.shape[:-2] + self.b.shape[-1:] != lead + (m,):
            raise ValueError(f"b of a stack of {lead} systems must have shape "
                             f"{lead} + (N, {m}), got {self.b.shape}")
        if self.b.shape[-1:] != (m,):   # after any axes of systems
            raise ValueError(f"b must have shape ({m},), (N, {m}) or S + (N, {m}), "
                             f"got {self.b.shape}")
        if self.b.size == 0 or not np.all(np.isfinite(self.b)):
            raise ValueError("b must be non-empty and finite")
        if self.log_c is not None:
            object.__setattr__(self, "log_c", np.asarray(self.log_c, dtype=float))
            shape = self.batch + (m + 1,)
            if self.log_c.shape != shape:
                raise ValueError(f"log_c must have shape {shape}, got {self.log_c.shape}")
            if not np.all(np.isfinite(self.log_c)):
                raise ValueError("log_c must be finite")
        object.__setattr__(self, "svd", numerics.svd(self.a))

    @property
    def d(self) -> int:
        return self.a.shape[-1]

    @property
    def batch(self) -> tuple:
        """Leading shape of per-row results: () for one row, (N,) for N rows,
        and the axes of systems before those."""
        return self.b.shape[:-1]

    @cached_property
    def row_a(self) -> np.ndarray:
        """Each row of the flattened batch's index into the stack of A's
        (0 for a 2-D a); nullity read at it gives each row's nullity."""
        systems = self.a[..., 0, 0].size
        return np.repeat(np.arange(systems), self.b[..., 0].size // systems)

    @cached_property
    def pinv(self) -> np.ndarray:
        return self.svd.pinv()

    @cached_property
    def projector(self) -> np.ndarray:
        p = np.eye(self.d) - self.pinv @ self.a
        return 0.5 * (p + p.swapaxes(-1, -2))

    @property
    def nullity(self):
        """d - rank(A), or for a stacked a an int array of each A's."""
        return self.d - self.svd.rank()

    @cached_property
    def min_norm_solution(self) -> np.ndarray:
        """A^+ b' per row, computed once; callers that return it copy it."""
        return _rowwise(self.pinv, self.b)

    @cached_property
    def plane_center(self) -> np.ndarray:
        """A^+ b' + (I - A^+ A) 1/2 per row: the plane's point nearest the box center."""
        center = 0.5 * (self.projector @ np.ones(self.d))   # one per A of a stacked a
        return self.min_norm_solution + (center[..., None, :] if self.a.ndim > 2 else center)

    def residual(self, x) -> np.ndarray:
        """Per-row Euclidean residual ||A x - b'|| of estimates x (batch + (d,))."""
        return np.linalg.norm(_rowwise(self.a, x) - self.b, axis=-1)

    def contains(self, x) -> np.ndarray:
        """Per-row membership of x in {x in [0,1]^d : Ax = b'}, to slack TAU_FEAS."""
        tau = numerics.TAU_FEAS
        on_plane = np.max(np.abs(_rowwise(self.a, x) - self.b), axis=-1) <= tau
        return on_plane & np.all((x >= -tau) & (x <= 1.0 + tau), axis=-1)


def build_system(model: VflModel, y_act, c, source: str = "clean") -> LinearSystem:
    """Assemble A = J W_pas and b' = J log c - J W_act y - J b from predictions.

    c holds one prediction's scores (k), N of them (N x k) or a batch of
    systems' (S + (N, k)); b' has c's shape with k-1 for k, and the system
    keeps log c as log_c. y_act holds each prediction's active features, or
    one N x (d_t - d) set that every system shares (its J W_act y formed
    once). A model gives one A that every system shares; a stack (weights
    with leading axes S) takes scores S + (N, k) and gives one A per system.
    Logs are taken once, of the scores as they are, so a score below
    np.finfo(float).tiny (zero or subnormal) or not finite raises
    SystemError_ naming its row. With source "clean", each row's min-norm
    solution must predict its scores to 1e-6 relative (a failed row
    indicates a dimension bug and raises); "noisy", for released scores,
    skips that check, and any other source raises ValueError. A row is
    named by its index in the flattened batch.
    """
    if source not in ("clean", "noisy"):
        raise ValueError(f"source must be 'clean' or 'noisy', got {source!r}")
    y_act = np.asarray(y_act, dtype=float)
    c = np.asarray(c, dtype=float)
    lead, d_act = model.w_pas.shape[:-2], model.w_act.shape[-1]
    if c.shape[-1:] != (model.k,):
        raise ValueError("confidence vector length must equal the class count")
    if lead and c.shape[:-2] != lead:
        raise ValueError(f"a stack of {lead} models takes scores {lead} + (N, k), got {c.shape}")
    if y_act.shape not in (c.shape[:-1] + (d_act,), c.shape[-2:-1] + (d_act,)):
        raise ValueError(f"active features of shape {y_act.shape} match neither the "
                         f"{c.shape[:-1]} predictions nor the {c.shape[-2:-1]} rows of "
                         f"these scores")
    # shared rows meet each system's weights through singleton axes of systems
    y_act = y_act.reshape((1,) * (c.ndim - y_act.ndim) + y_act.shape)
    rows = c.reshape(-1, model.k)
    bad = np.argwhere(~((rows >= np.finfo(float).tiny) & (rows < np.inf)))  # NaN fails both
    if bad.size:
        score = rows[tuple(bad[0])]
        raise SystemError_(f"{{rows}} has score {score}, " + (
            "below the smallest normal float, so its log is not exact"
            if np.isfinite(score) else "not a finite float"), bad[0, 0])
    j = difference_matrix(model.k)
    log_c = np.log(c)
    bprime = (np.diff(log_c, axis=-1) - _rowwise(j, _rowwise(model.w_act, y_act))
              - j @ model.b)
    sys_ = LinearSystem(a=j @ model.w_pas, b=bprime, log_c=log_c)
    if source == "clean":
        # A x = b' alone cannot fail where A has full row rank
        c_ls = predict(model, y_act, sys_.min_norm_solution)
        err = np.max(np.abs(c_ls - c) / c, axis=-1).reshape(-1)
        bad = np.flatnonzero(err > 1e-6)
        if bad.size:
            raise SystemError_(
                f"clean-score system is not satisfiable at {{rows}} (its min-norm "
                f"solution predicts scores off by {err[bad[0]]:.3e} relative; "
                f"{bad.size} of {err.size} rows fail); check dimensions", bad[0])
    return sys_
