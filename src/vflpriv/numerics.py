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
    """An iterative solver hit its iteration cap without converging."""

    def __init__(self, message, last_iterate=None, residuals=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residuals = residuals


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


def dykstra_project(x0, sys_: LinearSystem,
                    max_iter: int = 10_000, tol: float = 1e-10) -> np.ndarray:
    """Euclidean projection of x0 onto {x in [0,1]^d : Ax = b} of a one-row system.

    Alternates the closed-form affine projection with box clamping, carrying
    Dykstra correction terms so the iterates converge to the true projection
    (the target is strictly convex, hence unique). The set must be nonempty.
    """
    if np.ndim(sys_.b) != 1:
        raise ValueError("dykstra_project takes a one-row system; pass row(i)")
    x = as_vector(x0).copy()
    if sys_.contains(x, tau=0.0):
        return x
    ap = sys_.pinv
    a, b = sys_.a, sys_.b
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_iter):
        z = x + p
        y = z - ap @ (a @ z - b)  # affine projection
        p = z - y
        w = y + q
        x_new = np.clip(w, 0.0, 1.0)  # box projection
        q = w - x_new
        move = np.linalg.norm(x_new - x)
        x = x_new
        if move < tol:
            break
    else:
        raise ConvergenceError(
            "Dykstra projection hit the iteration cap",
            last_iterate=x,
            residuals={"affine": float(np.max(np.abs(a @ x - b))),
                       "move": float(move)},
        )
    return x


def box_least_squares(a, b, x_init=None, max_iter: int = 50_000,
                      tol: float = 1e-12, s1: float | None = None) -> np.ndarray:
    """Minimize ||Ax - b|| over the unit box by accelerated projected gradient.

    The minimizer is not unique for underdetermined systems: the output
    depends on x_init (default: the box center). For satisfiable systems the
    residual at the output is driven to ~0. s1 is the largest singular value
    of A; a caller that holds A's SVD passes it to save a factorization.
    """
    a = as_matrix(a)
    b = as_vector(b)
    d = a.shape[1]
    x = np.full(d, 0.5) if x_init is None else np.clip(as_vector(x_init), 0.0, 1.0)
    s1 = np.linalg.norm(a, 2) if s1 is None else s1
    if s1 == 0.0:
        return x
    step = 1.0 / (s1 * s1)
    at = a.T

    # FISTA with restart on non-monotone objective
    y = x.copy()
    t = 1.0
    fx = 0.5 * np.linalg.norm(a @ x - b) ** 2
    for _ in range(max_iter):
        grad = at @ (a @ y - b)
        x_new = np.clip(y - step * grad, 0.0, 1.0)
        f_new = 0.5 * np.linalg.norm(a @ x_new - b) ** 2
        if f_new > fx:  # restart momentum
            y = x.copy()
            t = 1.0
            grad = at @ (a @ y - b)
            x_new = np.clip(y - step * grad, 0.0, 1.0)
            f_new = 0.5 * np.linalg.norm(a @ x_new - b) ** 2
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        move = np.linalg.norm(x_new - x)
        x, t, fx = x_new, t_new, f_new
        # stationarity: projected gradient step does not move the iterate
        pg = np.linalg.norm(x - np.clip(x - step * (at @ (a @ x - b)), 0.0, 1.0))
        if pg < tol and move < tol:
            return x
    raise ConvergenceError(
        "box least squares hit the iteration cap",
        last_iterate=x,
        residuals={"residual": float(np.linalg.norm(a @ x - b))},
    )


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
