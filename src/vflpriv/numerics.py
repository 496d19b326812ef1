"""Small dense linear algebra and convex primitives shared by every module.

Everything here is deterministic: the same inputs always produce the same
outputs, there are no randomized restarts, and no shared mutable state.
Matrices are plain float64 numpy arrays; vectors are 1-D arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .system import LinearSystem

# Relative cutoff under which singular values are treated as zero.
EPS_RANK = 1e-10

# Default slack for membership tests of the affine-slice-of-box polytope.
TAU_FEAS = 1e-6


class NumericsError(Exception):
    """Raised when a numerical routine fails to produce a valid result."""


class ConvergenceError(NumericsError):
    """An iterative solver hit its iteration cap without converging.

    rows holds the indices of the rows that hit the cap in the system's
    flattened batch, residuals maps each residual's name to one value per
    such row, and last_iterate is the solver's output with those rows left
    at their last iterate.
    """

    def __init__(self, message, last_iterate, residuals, rows):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residuals = residuals
        self.rows = rows


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


@dataclass(frozen=True)
class SvdFactors:
    """Full singular value decomposition A = U diag(S) V^T.

    U is m-by-m orthonormal, V is d-by-d orthonormal (columns are right
    singular vectors), and s holds the min(m, d) singular values in
    non-increasing order.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def rank(self, eps_rank: float = EPS_RANK) -> int:
        if self.s.size == 0 or self.s[0] <= 0.0:
            return 0
        return int(np.count_nonzero(self.s > eps_rank * self.s[0]))

    def pinv(self, eps_rank: float = EPS_RANK) -> np.ndarray:
        """Moore-Penrose pseudoinverse V Sigma^+ U^T of the factored matrix."""
        r = self.rank(eps_rank)
        if r == 0:
            return np.zeros((self.v.shape[0], self.u.shape[0]))
        return (self.v[:, :r] / self.s[:r]) @ self.u[:, :r].T

    def nullspace(self, eps_rank: float = EPS_RANK) -> np.ndarray:
        """Orthonormal basis of the nullspace: the last d - rank right singular vectors."""
        return self.v[:, self.rank(eps_rank):]


def svd(a) -> SvdFactors:
    """Full SVD with singular values sorted non-increasing.

    Raises NumericsError if the underlying iteration does not converge
    (never fails silently).
    """
    a = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"SVD did not converge: {exc}") from exc
    return SvdFactors(u=u, s=s, v=vt.T)


def _start(x0, shape) -> np.ndarray:
    """A writable copy of x0 broadcast to shape, raising on NaN/Inf."""
    x = np.array(np.broadcast_to(np.asarray(x0, dtype=float), shape))
    if not np.all(np.isfinite(x)):
        raise ValueError("starting point contains non-finite entries")
    return x


def _cap_error(solver: str, x: np.ndarray, rows: np.ndarray, total: int,
               residuals: dict) -> ConvergenceError:
    return ConvergenceError(
        f"{solver} hit the iteration cap on {rows.size} of {total} rows",
        last_iterate=x, residuals=residuals, rows=rows)


def dykstra_project(x0, sys_: LinearSystem, max_iter: int = 10_000,
                    tol: float = 1e-10, *, rows=None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean projection of x0 onto {x in [0,1]^d : Ax = b} for each row of sys_.

    Alternates the closed-form affine projection with box clamping, carrying
    Dykstra correction terms so the iterates converge to the true projection
    (the target is strictly convex, hence unique). Every set must be nonempty.
    rows picks rows of the system's flattened batch (default: all); x0
    broadcasts to the result, which has shape batch + (d,), or
    (len(rows), d) when rows is given. One vectorized iteration runs over
    the rows still moving: a row stops once an iteration moves it by less
    than tol, and a row whose x0 already lies in its set is returned as is.
    Returns the projections and each row's iteration count (0 for a row
    returned as is), whose shape drops the last axis.

    Raises ConvergenceError naming, by their index in the flattened batch,
    the rows still moving after max_iter iterations.
    """
    a, ap = sys_.a, sys_.pinv
    b = sys_.b.reshape(-1, a.shape[0])
    if rows is None:
        index, shape = np.arange(len(b)), sys_.batch + (sys_.d,)
    else:
        index = np.asarray(rows, dtype=int).ravel()
        b, shape = b[index], (index.size, sys_.d)
    x = _start(x0, shape)
    flat = x.reshape(-1, sys_.d)
    iterations = np.zeros(len(b), dtype=int)
    inside = ((np.max(np.abs(flat @ a.T - b), axis=1) <= 0.0)
              & np.all((flat >= 0.0) & (flat <= 1.0), axis=1))
    live = np.flatnonzero(~inside)
    xs, bs = flat[live], b[live]
    p = np.zeros_like(xs)
    q = np.zeros_like(xs)
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        z = xs + p
        y = z - (z @ a.T - bs) @ ap.T  # affine projection
        p = z - y
        w = y + q
        x_new = np.clip(w, 0.0, 1.0)  # box projection
        q = w - x_new
        move = np.linalg.norm(x_new - xs, axis=1)
        xs = x_new
        done = move < tol
        if np.count_nonzero(done):
            flat[live[done]] = xs[done]
            iterations[live[done]] = it
            keep = ~done
            live, xs, bs, p, q, move = (live[keep], xs[keep], bs[keep],
                                        p[keep], q[keep], move[keep])
    if live.size:
        flat[live] = xs
        raise _cap_error("Dykstra projection", flat.reshape(shape), index[live],
                         len(b), {"affine": np.max(np.abs(xs @ a.T - bs), axis=1),
                                  "move": move})
    return flat.reshape(shape), iterations.reshape(shape[:-1])


def box_least_squares(sys_: LinearSystem, x_init=None, max_iter: int = 50_000,
                      tol: float = 1e-12) -> np.ndarray:
    """Minimize ||Ax - b|| over the unit box by accelerated projected gradient.

    Solves every row of sys_: the result has shape batch + (d,). The
    minimizer is not unique for underdetermined systems: the output depends
    on x_init (default: the box center), which broadcasts to the result.
    For satisfiable systems the residual at the output is driven to ~0.
    The step comes from the largest singular value in sys_'s SVD. One
    vectorized FISTA iteration runs over the rows not yet stationary, with
    momentum restarted per row.

    Raises ConvergenceError naming, by their index in the flattened batch,
    the rows not stationary after max_iter iterations.
    """
    a = sys_.a
    shape = sys_.batch + (sys_.d,)
    x = _start(0.5 if x_init is None else np.clip(x_init, 0.0, 1.0), shape)
    s1 = sys_.svd.s[0]
    if s1 == 0.0:
        return x
    step = 1.0 / (s1 * s1)
    flat = x.reshape(-1, sys_.d)
    bs = sys_.b.reshape(-1, a.shape[0])
    live = np.arange(len(bs))

    # FISTA with restart on non-monotone objective
    xs = flat.copy()
    t = np.ones(len(bs))
    r = xs @ a.T - bs
    fx = 0.5 * np.linalg.norm(r, axis=1) ** 2
    gx = r @ a  # gradient at x
    y = xs
    for _ in range(max_iter):
        grad = (y @ a.T - bs) @ a
        x_new = np.clip(y - step * grad, 0.0, 1.0)
        r = x_new @ a.T - bs
        f_new = 0.5 * np.linalg.norm(r, axis=1) ** 2
        restart = f_new > fx  # restart momentum from x
        if np.count_nonzero(restart):
            t[restart] = 1.0
            x_new[restart] = np.clip(xs[restart] - step * gx[restart], 0.0, 1.0)
            r[restart] = x_new[restart] @ a.T - bs[restart]
            f_new[restart] = 0.5 * np.linalg.norm(r[restart], axis=1) ** 2
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new)[:, None] * (x_new - xs)
        move = np.linalg.norm(x_new - xs, axis=1)
        xs, t, fx, gx = x_new, t_new, f_new, r @ a
        # stationarity: projected gradient step does not move the iterate
        pg = np.linalg.norm(xs - np.clip(xs - step * gx, 0.0, 1.0), axis=1)
        done = (pg < tol) & (move < tol)
        if np.count_nonzero(done):
            flat[live[done]] = xs[done]
            keep = ~done
            live, xs, bs, t, fx, gx, y = (live[keep], xs[keep], bs[keep],
                                          t[keep], fx[keep], gx[keep], y[keep])
            if not live.size:
                return flat.reshape(shape)
    flat[live] = xs
    raise _cap_error("box least squares", flat.reshape(shape), live, len(flat),
                     {"residual": np.linalg.norm(xs @ a.T - bs, axis=1)})


def von_neumann_bounds(m, p, tol: float = 1e-8) -> tuple[float, float]:
    """Eigenvalue-product bounds bracketing Tr(MP) for symmetric PSD M, P."""
    m = as_matrix(m)
    p = as_matrix(p)
    for name, mat in (("M", m), ("P", p)):
        if mat.shape[0] != mat.shape[1] or np.max(np.abs(mat - mat.T)) > tol:
            raise ValueError(f"{name} must be symmetric")
    ev_m = np.sort(np.linalg.eigvalsh(m))[::-1]
    ev_p = np.sort(np.linalg.eigvalsh(p))[::-1]
    lower = float(np.dot(ev_m, ev_p[::-1]))
    upper = float(np.dot(ev_m, ev_p))
    return lower, upper
