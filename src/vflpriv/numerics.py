"""Small dense linear algebra and convex primitives shared by every module.

Everything here is deterministic: the same inputs always produce the same
outputs, there are no randomized restarts, and no shared mutable state.
Matrices are plain float64 numpy arrays; vectors are 1-D arrays. A row's
products are its own in one batched np.matmul (_rowwise), so a row gets the
same bits in any batch. A failure that names rows is a RowsError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .system import LinearSystem

# Relative cutoff under which singular values are treated as zero.
EPS_RANK = 1e-10

# Slack for membership tests of the affine-slice-of-box polytope.
TAU_FEAS = 1e-6

# Caps of dykstra_project's Newton steps and box_least_squares' FISTA; tests patch them.
_PROJECT_MAX_ITER, _FISTA_MAX_ITER = 100, 50_000


class RowsError(Exception):
    """An error naming rows of a flattened batch: RowsError(text, rows), rows
    their indices there. The text's "{rows}" slot reads "row 6" for one row
    (rows an int) or "rows [1, 5]" for several. Once labels is (names, n),
    for groups of n rows, row i reads as row i % n of names[i // n]: "row 2
    of b", "rows [1] of a, [2, 3] of b". RowsError(text) reads as written."""

    labels = None

    def __reduce__(self):   # for pickle: args, (text, rows), need not fit __init__
        return Exception.__new__, (type(self),), {**self.__dict__, "args": self.args}

    @property
    def rows(self):
        return self.args[1] if len(self.args) > 1 else None

    def __str__(self):
        if self.rows is None:
            return self.args[0]
        names, n = self.labels or ([""], int(np.max(self.rows, initial=0)) + 1)
        groups = {}
        for i in np.ravel(self.rows).tolist():
            groups.setdefault(names[i // n], []).append(i % n)
        one = np.ndim(self.rows) == 0
        return self.args[0].replace("{rows}", ("row " if one else "rows ") + ", ".join(
            f"{r[0] if one else r}" + (f" of {name}" if name else "")
            for name, r in groups.items()))


class NumericsError(RowsError):
    """Raised when a numerical routine fails to produce a valid result."""


class ConvergenceError(NumericsError):
    """An iterative solver hit its iteration cap without converging.

    rows holds the indices of the rows that hit the cap in the system's
    flattened batch, residuals maps each residual's name to one value per
    such row, and last_iterate is the solver's output, one row per row it
    was given, with those rows left at their last iterate. The text is the
    message, then the rows and each residual's values per row.
    """

    def __init__(self, message, last_iterate, residuals, rows):
        super().__init__(message + "; {rows}" + "".join(
            f"; {name} " + " ".join(f"{v:.3e}" for v in values)
            for name, values in residuals.items()), rows)
        self.last_iterate, self.residuals = last_iterate, residuals


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising on NaN/Inf."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, raising on NaN/Inf."""
    x = np.ravel(np.asarray(x, dtype=float))
    if x.size < 1:
        raise ValueError("expected a non-empty vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector contains non-finite entries")
    return x


def _rowwise(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ r for every row r of x (..., q), each row its own 1 x q product in
    one batched np.matmul, so a row's bits do not depend on its batch. m is
    one (p, q) matrix for every row, a stack's (leading axes matching x's
    before its row axis), or one per row (x.shape[:-1] + (p, q))."""
    mt = m.swapaxes(-1, -2)
    return np.matmul(x[..., None, :], mt[..., None, :, :] if m.ndim <= x.ndim else mt)[..., 0, :]


def reject_stack(a, what: str) -> None:
    """Raise ValueError, naming what (as "save takes one model"), if a is a stack."""
    if np.ndim(a) > 2:
        raise ValueError(f"{what}, not a stack of shape {np.shape(a)}")


@dataclass(frozen=True)
class SvdFactors:
    """Full singular value decomposition A = U diag(S) V^T.

    U is m-by-m orthonormal, V is d-by-d orthonormal (columns are right
    singular vectors), and s holds the min(m, d) singular values in
    non-increasing order. The factors of a stack of matrices (A with leading
    axes) carry the same leading axes.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def rank(self):
        """The rank, or for a stack an int array of each matrix's rank."""
        if self.s.ndim == 1:
            return int(np.count_nonzero(self.s > EPS_RANK * self.s[0]))
        return np.count_nonzero(self.s > EPS_RANK * self.s[..., :1], axis=-1)

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse V Sigma^+ U^T of the factored matrix.

        A singular value at or below EPS_RANK times the largest leaves its
        column of V Sigma^+ zero, so one product inverts one matrix or a
        stack of any ranks, rank 0 included; every matrix of a stack gets
        the bits it gets alone.
        """
        q, s = self.s.shape[-1], self.s[..., None, :]
        vs = np.divide(self.v[..., :q], s, where=s > EPS_RANK * s[..., :1],
                       out=np.zeros(self.v.shape[:-1] + (q,)))
        return vs @ self.u[..., :q].swapaxes(-1, -2)

    def nullspace(self) -> np.ndarray:
        """Orthonormal basis of the nullspace: the last d - rank right singular
        vectors (of one matrix; a stack's factors raise ValueError)."""
        reject_stack(self.v, "nullspace takes one matrix's factors")
        return self.v[:, self.rank():]


def svd(a) -> SvdFactors:
    """Full SVD with singular values sorted non-increasing.

    a is one matrix, or a stack of them (leading axes), factored in one
    np.linalg.svd call; each matrix of a stack gets the bits it gets alone.
    Raises NumericsError if the underlying iteration does not converge
    (never fails silently).
    """
    a = np.asarray(a, dtype=float)
    a = as_matrix(a) if a.ndim < 3 else a
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"SVD did not converge: {exc}") from exc
    return SvdFactors(u=u, s=s, v=vt.swapaxes(-1, -2))


def _row_setup(sys_: LinearSystem, rows):
    """sys_'s A as a stack (S, m, d), the rows' flat indices, their row_a and
    b' rows; ValueError names the rows outside the R rows of the flat batch."""
    m, d = sys_.a.shape[-2:]
    stack, b = sys_.a.reshape(-1, m, d), sys_.b.reshape(-1, m)
    index = np.asarray(rows, dtype=int).ravel()
    out = index[(index < 0) | (index >= len(b))]
    if out.size:
        raise ValueError(f"rows {out.tolist()} are outside the {len(b)} rows of the batch")
    return stack, index, sys_.row_a[index], b[index]


def dykstra_project(sys_: LinearSystem, rows) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean projection of the box center c onto {x in [0,1]^d : Ax = b}, per row.

    c = (1/2, ..., 1/2) is the only point projected, as rcc2 needs; rows
    picks rows of the system's flattened batch (a stack's included, each row
    on its system's A), and the result has shape (len(rows), d), the row
    interface box_least_squares shares. The projection is exact, where
    Dykstra's alternating method only approximates it. On the r = rank(A) equations
    U_r^T A x = U_r^T b the dual has r variables lam, and the projection is
    x(lam) = clip(c - A^T lam, 0, 1) at its maximizer. A semismooth Newton
    method (Qi & Sun, Math. Programming 58, 1993) finds it: with lam scaled
    by the singular values s, each step solves (V_r^T D V_r + mu I) delta =
    g, where D masks the unclipped coordinates, g = diag(1/s) U_r^T (A x(lam)
    - b) and mu = 1e-6 ||g|| + 1e-12, then halves until the dual value rises
    by an Armijo fraction of the predicted rise; the singular pairs past a
    system's rank are zeroed, as in SvdFactors.pinv, so one path takes any
    mix of ranks. A row starts at sys_.plane_center (where the first step
    from lam = 0 would land) and stops once max|Ax - b| <= 1e-12 (1 +
    max|A| + max|b|), so a plane_center in the box that meets this is
    returned bit for bit after 0 steps. Every set must be nonempty. Each
    step is vectorized over the rows still live, each row multiplied by its
    own system's factors through _rowwise, so a row's result does not
    depend on the batch. Returns the projections and each row's Newton
    steps.

    Raises ConvergenceError naming, by their index in the flattened batch,
    the rows that fail the stop test after _PROJECT_MAX_ITER steps.
    """
    a, index, own, b = _row_setup(sys_, rows)
    f, (m, d), q = sys_.svd, a.shape[1:], min(a.shape[1:])
    s = f.s.reshape(-1, q)
    rank = (s > EPS_RANK * s[:, :1])[:, None, :]
    # scaled by s, the Newton matrix V_r^T D V_r has its eigenvalues in
    # [0, 1] whatever A's conditioning
    vr = f.v.reshape(-1, d, d)[..., :q] * rank
    us = np.divide(f.u.reshape(-1, m, m)[..., :q], s[:, None, :], where=rank,
                   out=np.zeros((len(a), m, q)))
    flat = sys_.plane_center.reshape(-1, d)[index]
    steps = np.zeros(index.size, dtype=int)

    def point(u, b, own):
        """x = clip(u, 0, 1) and its residual A x - b."""
        x = np.minimum(np.maximum(u, 0.0), 1.0)
        return x, _rowwise(a[own], x) - b

    # per live row: its system, b, stop bound, u = c - A^T lam, x(lam) and
    # its residual
    live, bs, u = np.arange(len(b)), b, flat.copy()
    bound = 1e-12 * (1.0 + np.max(np.abs(a), axis=(1, 2))[own] + np.max(np.abs(b), axis=1))
    x, res = point(u, bs, own)
    for it in range(_PROJECT_MAX_ITER + 1):
        done = np.max(np.abs(res), axis=1) <= bound
        if np.count_nonzero(done):
            flat[live[done]] = x[done]
            steps[live[done]] = it
            live, own, bs, bound, u, x, res = (
                arr[~done] for arr in (live, own, bs, bound, u, x, res))
        if not live.size or it == _PROJECT_MAX_ITER:
            break
        g = _rowwise(us[own].swapaxes(-1, -2), res)
        v_own = vr[own]
        free = (u > 0.0) & (u < 1.0)
        w, v = np.linalg.eigh((v_own.swapaxes(-1, -2) * free[:, None, :]) @ v_own)
        gv = _rowwise(v.swapaxes(-1, -2), g)
        # In the null space of V_r^T D V_r the step is g/mu. Where g's part
        # there stands for a residual under half the stop bound (s_1 times
        # its norm bounds that residual) it is rounding, which would only
        # knock the clipped coordinates about, so it is dropped.
        null = w <= 1e-12
        gv[null & (s[own, 0] * np.linalg.norm(np.where(null, gv, 0.0), axis=1)
                   <= 0.5 * bound)[:, None]] = 0.0
        c = gv / (w + (1e-6 * np.linalg.norm(g, axis=1) + 1e-12)[:, None])
        ascent = (gv * c).sum(1)
        du = _rowwise(v_own, _rowwise(v, c))
        t = np.ones(live.size)
        p = np.arange(live.size)            # rows still backtracking
        for _ in range(50):
            cu = u[p] - t[p, None] * du[p]
            cx, cres = point(cu, bs[p], own[p])
            # the dual value's rise, summed from differences so that it
            # stays exact to rounding near the optimum
            rise = ((cx - x[p]) * (0.5 * (cx + x[p]) - cu)).sum(1) + t[p] * ascent[p]
            ok = rise >= 1e-4 * t[p] * ascent[p]
            k = p[ok]
            u[k], x[k], res[k] = cu[ok], cx[ok], cres[ok]
            p = p[~ok]
            if not p.size:
                break
            t[p] *= 0.5
    if live.size:
        flat[live] = x
        raise ConvergenceError(
            f"box-affine projection hit the iteration cap on {live.size} of {len(b)} rows",
            flat, {"affine": np.max(np.abs(res), axis=1)}, index[live])
    return flat, steps


def box_least_squares(sys_: LinearSystem, rows) -> np.ndarray:
    """Minimize ||Ax - b|| over the unit box by accelerated projected gradient.

    rows picks rows of the system's flattened batch (each row on its
    system's A), as in dykstra_project: the result has shape (len(rows), d).
    The minimizer is not unique for underdetermined systems: every row
    starts at the box center, and the output depends on that start. The
    step 1/s_1^2 (s_1 of the row's system in sys_'s SVD; a row of A = 0
    stays at the center) is folded into each system's G = I - step A^T A
    and each row's q = step A^T b', so a gradient step is x G + q. FISTA
    runs over the rows not yet stationary (a projected gradient step and
    the last move both under 1e-12); a row's momentum restarts where its
    objective does not fall (a row at residual 0 stops, where momentum
    would carry it along its solution set). Each row product is its own,
    as in _rowwise, so a row gets the same bits in any batch.

    Raises ConvergenceError naming, by their index in the flattened batch,
    the rows not stationary after _FISTA_MAX_ITER iterations.
    """
    stack, index, own, bs = _row_setup(sys_, rows)
    flat = np.full((index.size, sys_.d), 0.5)
    s1 = sys_.svd.s.reshape(len(stack), -1)[:, 0]
    live = np.flatnonzero(s1[own] > 0.0)
    if not live.size:
        return flat
    own, bs, step = own[live], bs[live], 1.0 / np.where(s1 > 0.0, s1, 1.0) ** 2
    at = np.ascontiguousarray(stack.swapaxes(-1, -2))      # each system's A^T

    def times(x, mats, own):    # x[i] mats[own[i]]: _rowwise's rule, without its call
        return np.matmul(x[:, None], mats[own])[:, 0]

    g = np.eye(sys_.d) - step[:, None, None] * (at @ stack)
    q = step[own, None] * times(bs, stack, own)

    # np.clip(u, 0, 1), in place on a temporary
    def clip(u):
        return np.minimum(np.maximum(u, 0.0, out=u), 1.0, out=u)

    def sq(r):
        return (r * r).sum(1)

    # FISTA with restart where the objective does not fall. A row's momentum
    # weight depends only on its steps since the last restart, j: t_0 = 1,
    # t_j+1 = (1 + sqrt(1 + 4 t_j^2)) / 2 and weight[j] = (t_j - 1) / t_j+1,
    # filled in at iteration j, the first at which a row can reach j
    xs = flat[live]
    since = np.zeros(len(live), dtype=int)
    weight, t = np.empty(_FISTA_MAX_ITER), 1.0
    fx = sq(times(xs, at, own) - bs)
    y = xs
    for it in range(_FISTA_MAX_ITER):
        x_new = clip(times(y, g, own) + q)
        f_new = sq(times(x_new, at, own) - bs)
        restart = f_new >= fx  # restart momentum from x
        if np.count_nonzero(restart):
            since[restart] = 0
            x_new[restart] = u = clip(times(xs[restart], g, own[restart]) + q[restart])
            f_new[restart] = sq(times(u, at, own[restart]) - bs[restart])
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        weight[it], t = (t - 1.0) / t_new, t_new
        dx = x_new - xs
        y = x_new + weight[since, None] * dx
        since += 1
        xs, fx = x_new, f_new
        # stationarity: the last move and a projected gradient step both
        # under 1e-12; the step is taken only on rows whose move passed
        near = sq(dx) < 1e-24
        if np.count_nonzero(near):
            near = np.flatnonzero(near)
            u = xs[near]
            done = near[sq(u - clip(times(u, g, own[near]) + q[near])) < 1e-24]
            if done.size:
                flat[live[done]] = xs[done]
                keep = np.ones(live.size, dtype=bool)
                keep[done] = False
                live, own, q, xs, bs, since, fx, y = (
                    v[keep] for v in (live, own, q, xs, bs, since, fx, y))
                if not live.size:
                    return flat
    flat[live] = xs
    raise ConvergenceError(
        f"box least squares hit the iteration cap on {live.size} of {len(flat)} rows",
        flat, {"residual": np.sqrt(sq(times(xs, at, own) - bs))}, index[live])


def von_neumann_bounds(m, p) -> tuple[float, float]:
    """Eigenvalue-product bounds bracketing Tr(MP) for symmetric (to 1e-8) PSD M, P.

    An eigenvalue below 0 is rounding noise of a PSD matrix and counts as 0,
    so neither bound is below 0."""
    m = as_matrix(m)
    p = as_matrix(p)
    for name, mat in (("M", m), ("P", p)):
        if mat.shape[0] != mat.shape[1] or np.max(np.abs(mat - mat.T)) > 1e-8:
            raise ValueError(f"{name} must be symmetric")
    ev_m, ev_p = (np.sort(np.maximum(np.linalg.eigvalsh(x), 0.0))[::-1] for x in (m, p))
    lower = float(np.dot(ev_m, ev_p[::-1]))
    upper = float(np.dot(ev_m, ev_p))
    return lower, upper
