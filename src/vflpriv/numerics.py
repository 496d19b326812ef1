"""Small dense linear algebra and convex primitives shared by every module.

Everything here is deterministic: the same inputs always produce the same
outputs, there are no randomized restarts, and no shared mutable state.
Matrices are plain float64 numpy arrays; vectors are 1-D arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

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


def pinv(a, eps_rank: float = EPS_RANK) -> np.ndarray:
    """Moore-Penrose pseudoinverse via V Sigma^+ U^T.

    Singular values below eps_rank * sigma_1 are treated as exact zeros.
    """
    return svd(a).pinv(eps_rank)


def projector_null(a, eps_rank: float = EPS_RANK) -> np.ndarray:
    """Orthogonal projector I - A^+ A onto the nullspace of A."""
    a = as_matrix(a)
    p = np.eye(a.shape[1]) - pinv(a, eps_rank) @ a
    return 0.5 * (p + p.T)  # symmetrize away roundoff


def nullspace_basis(a, eps_rank: float = EPS_RANK) -> np.ndarray:
    """Orthonormal basis of Null(A): the last d - rank(A) right singular vectors.

    Returns a d-by-0 matrix when the nullspace is trivial.
    """
    return svd(a).nullspace(eps_rank)


def project_affine(x, a, b) -> np.ndarray:
    """Euclidean projection of x onto the affine set {z : Az = b}.

    Assumes the system is satisfiable; the projection is x - A^+(Ax - b).
    """
    x = as_vector(x)
    a = as_matrix(a)
    b = as_vector(b)
    return x - pinv(a) @ (a @ x - b)


@dataclass
class PolytopeAffineBox:
    """The feasible set {x in [0,1]^d : Ax = b}, an affine slice of the unit box."""

    a: np.ndarray
    b: np.ndarray
    tau_feas: float = TAU_FEAS
    _pinv: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.a = as_matrix(self.a)
        self.b = as_vector(self.b)
        if self.b.size != self.a.shape[0]:
            raise ValueError("b length must match the row count of A")

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    @property
    def pinv(self) -> np.ndarray:
        if self._pinv is None:
            self._pinv = pinv(self.a)
        return self._pinv

    def contains(self, x, tau: float | None = None) -> bool:
        tau = self.tau_feas if tau is None else tau
        x = as_vector(x)
        if np.max(np.abs(self.a @ x - self.b)) > tau:
            return False
        return bool(np.all(x >= -tau) and np.all(x <= 1.0 + tau))


def dykstra_project(x0, poly: PolytopeAffineBox,
                    max_iter: int = 10_000, tol: float = 1e-10) -> np.ndarray:
    """Euclidean projection of x0 onto the (nonempty) affine-slice-of-box set.

    Alternates the closed-form affine projection with box clamping, carrying
    Dykstra correction terms so the iterates converge to the true projection
    (the target is strictly convex, hence unique).
    """
    x = as_vector(x0).copy()
    if poly.contains(x, tau=0.0):
        return x
    ap = poly.pinv
    a, b = poly.a, poly.b
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


def _circumsphere(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Smallest sphere passing through all given points (<= d+1 of them).

    Uses the min-norm solution relative to the first point, which handles
    affinely dependent boundary sets gracefully.
    """
    p0 = points[0]
    if len(points) == 1:
        return p0.copy(), 0.0
    q = points[1:] - p0
    rhs = 0.5 * np.einsum("ij,ij->i", q, q)
    c = p0 + np.linalg.lstsq(q, rhs, rcond=None)[0]
    r = float(np.max(np.linalg.norm(points - c, axis=1)))
    return c, r


def _welzl(points: np.ndarray, seed: int = 0) -> tuple[np.ndarray, float]:
    """Minimal enclosing ball of a point set (Welzl's algorithm, randomized)."""
    rng = np.random.default_rng(seed)
    pts = points[rng.permutation(len(points))]
    d = pts.shape[1]

    def ball_with_boundary(boundary: list[np.ndarray]):
        if not boundary:
            return None, -1.0
        c, r = _circumsphere(np.array(boundary))
        return c, r

    # Iterative move-to-front formulation to avoid deep recursion.
    def med(idx_limit: int, boundary: list[np.ndarray]):
        c, r = ball_with_boundary(boundary)
        if len(boundary) == d + 1:
            return c, r
        for i in range(idx_limit):
            p = pts[i]
            if c is None or np.linalg.norm(p - c) > r + 1e-12:
                c, r = med(i, boundary + [p])
        return c, r

    import sys
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10 * len(pts) + 100))
    try:
        c, r = med(len(pts), [])
    finally:
        sys.setrecursionlimit(old)
    if c is None:
        raise NumericsError("minimal enclosing ball of an empty point set")
    return c, float(np.max(np.linalg.norm(pts - c, axis=1)))


def polytope_vertices(poly: PolytopeAffineBox, eps_rank: float = EPS_RANK) -> np.ndarray:
    """Enumerate the vertices of the affine-slice-of-box polytope.

    Fixes d - rank(A) coordinates at {0, 1} over all index subsets, solves the
    reduced system, and keeps feasible unique solutions. Exponential in the
    free-coordinate count; callers must keep d small.
    """
    a, b = poly.a, poly.b
    d = a.shape[1]
    r = svd(a).rank(eps_rank)
    nfree = d - r
    verts: list[np.ndarray] = []
    tau = poly.tau_feas
    if nfree == 0:
        x = poly.pinv @ b
        if poly.contains(x):
            verts.append(np.clip(x, 0.0, 1.0))
    else:
        for fixed in combinations(range(d), nfree):
            free = [i for i in range(d) if i not in fixed]
            a_free = a[:, free]
            if free and svd(a_free).rank(eps_rank) < len(free):
                continue  # reduced system not uniquely solvable here
            for vals in product((0.0, 1.0), repeat=nfree):
                rhs = b - a[:, fixed] @ np.asarray(vals)
                x = np.zeros(d)
                x[list(fixed)] = vals
                if free:
                    sol, = (np.linalg.lstsq(a_free, rhs, rcond=None)[0],)
                    x[free] = sol
                if poly.contains(x):
                    verts.append(np.clip(x, 0.0, 1.0))
    if not verts:
        raise NumericsError("polytope is empty (no feasible vertex found)")
    # dedupe within tolerance
    out: list[np.ndarray] = []
    for v in verts:
        if not any(np.linalg.norm(v - w) < 1e-9 for w in out):
            out.append(v)
    return np.array(out)


def chebyshev_center_exact(poly: PolytopeAffineBox) -> tuple[np.ndarray, float]:
    """Exact Chebyshev center and radius by vertex enumeration (test oracle).

    Guarded to d <= 8: vertex enumeration is exponential in the dimension.
    """
    if poly.dim > 8:
        raise ValueError("exact Chebyshev center is limited to d <= 8")
    verts = polytope_vertices(poly)
    return _welzl(verts)


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
