"""Small dense linear algebra and convex primitives shared by every module.

Everything here is deterministic: the same inputs always produce the same
outputs, there are no randomized restarts, and no shared mutable state.
Matrices are plain float64 numpy arrays; vectors are 1-D arrays. A row's
products are its own in one batched np.matmul (_rowwise), so a row gets the
same bits in any batch. A failure that names rows is a RowsError.
projected_newton is the one box-constrained Newton loop: box_least_squares
(cls) and attacks.attack_gia each hand it their objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .system import LinearSystem

# Relative cutoff under which singular values are treated as zero.
EPS_RANK = 1e-10

# Slack for membership tests of the affine-slice-of-box polytope.
TAU_FEAS = 1e-6

# Caps of dykstra_project's and box_least_squares' Newton steps; tests patch them.
_PROJECT_MAX_ITER, _LSQ_MAX_ITER = 100, 500


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


def _total(v):
    """Each row's sum over the last axis, added in order, so its bits are its own."""
    return np.add.accumulate(v, axis=-1)[..., -1]


def projected_newton(x, model, max_iter):
    """Bertsekas's projected Newton method (SIAM J. Control Optim. 20, 1982)
    on a smooth f per row over the unit box, every live row stepping at once.

    x (n, d) holds the starts. model(i, x) takes the flat indices i of the
    live rows and their iterates, and returns f's gradient at them, its
    curvature (a d x d matrix per row, in the gradient's units) and a
    closure change(j, xt) giving f(xt) - f(x) for the rows at positions j
    of i. A coordinate within eps = min(1e-3, ||x - clip(x - grad, 0, 1)||)
    of a bound that its gradient or its Newton step pushes against moves by
    -grad over its curvature's diagonal; the rest take the curvature's
    Newton step on its eigenvalues above 1e-12 of the largest. The step
    halves along the projected arc until Armijo's test holds, so no step
    raises f. A row stops once its search reaches a move under 1e-12, a move
    it takes only if f does not rise. A row's products are its own
    (_rowwise, a stacked eigh), so it gets its lone bits. Returns the
    iterates, each row's steps and the rows still live after max_iter
    steps.
    """
    x, steps, live = x.copy(), np.zeros(len(x), dtype=int), np.arange(len(x))
    for _ in range(max_iter):
        if not live.size:
            break
        steps[live] += 1
        xl = x[live]
        grad, curv, change = model(live, xl)
        eps = np.minimum(np.sqrt(_total((xl - np.clip(xl - grad, 0.0, 1.0)) ** 2)), 1e-3)
        low, high = xl <= eps[:, None], xl >= 1.0 - eps[:, None]
        free = ~((low & (grad > 0.0)) | (high & (grad < 0.0)))
        diag = np.diagonal(curv, axis1=1, axis2=2)
        scaled = np.divide(grad, diag, where=diag > 0.0, out=np.zeros_like(grad))

        def direction(j, free):
            """Rows j's steps: Newton's on the free coordinates, -grad / diag on the rest."""
            lam, vec = np.linalg.eigh(curv[j] * (free[:, :, None] & free[:, None, :]))
            kept = lam > 1e-12 * np.maximum(lam[:, -1:], 0.0)
            gv = _rowwise(vec.swapaxes(-1, -2), grad[j] * free)
            coef = np.divide(gv, lam, where=kept, out=np.zeros_like(lam))
            return np.where(free, -_rowwise(vec, coef), -scaled[j])

        p = direction(np.arange(live.size), free)
        held = free & ((low & (p < 0.0)) | (high & (p > 0.0)))
        redo = np.flatnonzero(held.any(-1))
        if redo.size:
            free &= ~held
            p[redo] = direction(redo, free[redo])
        # halve t along the projected arc, on the rows still searching
        t, todo, stop = np.ones(live.size), np.arange(live.size), np.zeros(live.size, dtype=bool)
        for _ in range(100):
            xt = np.clip(xl[todo] + t[todo, None] * p[todo], 0.0, 1.0)
            move = xt - xl[todo]
            rise = change(todo, xt)
            decrease = -_total(np.where(free[todo], t[todo, None] * p[todo], move) * grad[todo])
            done = np.sqrt(_total(move * move)) < 1e-12
            ok = (rise <= 0.0) & ((-rise >= 1e-4 * decrease) | done)
            x[live[todo[ok]]] = xt[ok]
            stop[todo[done]] = True
            todo = todo[~(ok | done)]
            if not todo.size:
                break
            t[todo] *= 0.5
        live = live[~stop]
    return x, steps, live


def box_least_squares(sys_: LinearSystem, rows) -> np.ndarray:
    """Minimize ||Ax - b|| over the unit box by projected_newton.

    rows picks rows of the system's flattened batch (each row on its
    system's A), as in dykstra_project: the result has shape (len(rows), d).
    The minimizer is not unique for underdetermined systems: every row
    starts at the box center, and the output depends on that start. f is
    ||A x - b'||^2 / (2 s_1^2) (s_1 of the row's system), with gradient
    A^T (A x - b') / s_1^2 and curvature A^T A / s_1^2, so a row whose
    half_star lies in the box lands on it in one step; f's change is summed
    exactly from A times the move.

    Raises ConvergenceError naming, by their index in the flattened batch,
    the rows still live after _LSQ_MAX_ITER steps.
    """
    stack, index, own, bs = _row_setup(sys_, rows)
    s1 = sys_.svd.s.reshape(len(stack), -1)[:, 0]
    s1 = np.where(s1 > 0.0, s1, 1.0)
    a = stack / s1[:, None, None]                   # each system's A / s_1
    hess = a.swapaxes(-1, -2) @ a
    b = bs / s1[own, None]

    def model(i, x):
        ai = a[own[i]]
        r = _rowwise(ai, x) - b[i]

        def change(j, xt):
            ap = _rowwise(ai[j], xt - x[j])
            return (ap * (r[j] + 0.5 * ap)).sum(1)
        return _rowwise(ai.swapaxes(-1, -2), r), hess[own[i]], change

    flat, _, live = projected_newton(np.full((index.size, sys_.d), 0.5), model, _LSQ_MAX_ITER)
    if live.size:
        r = _rowwise(a[own[live]], flat[live]) - b[live]
        raise ConvergenceError(
            f"box least squares hit the iteration cap on {live.size} of {len(flat)} rows",
            flat, {"residual": s1[own[live]] * np.linalg.norm(r, axis=1)}, index[live])
    return flat
