"""White-box reconstruction estimators plus the gradient-inversion baseline.

All attacks are pure functions of (system/model, config) and take a batch:
a system of N predictions gives N x d estimates in one call, and a one-row
system gives a d-vector. The closed forms are matrix operations over the
batch; the iterative solvers run row by row on the shared factors of A.
When the system is determined (trivial nullspace) every estimator
short-circuits to the unique solution A^+ b'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .model import VflModel, softmax
from .system import LinearSystem


class AttackError(Exception):
    """Raised when an attack's solver fails to converge."""


@dataclass
class AttackEstimate:
    """Reconstructions x_hat (d, or N x d) with solver diagnostics.

    feasible is True iff every row lies in its solution space intersected
    with the unit box. Per-row diagnostics have the batch shape (a scalar for
    one row).
    """

    x_hat: np.ndarray
    name: str
    feasible: bool
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x_hat = np.asarray(self.x_hat, dtype=float)
        if not np.all(np.isfinite(self.x_hat)):
            raise AttackError(f"{self.name} produced non-finite estimates")


def _estimate(sys_: LinearSystem, name: str, x: np.ndarray,
              **diagnostics) -> AttackEstimate:
    return AttackEstimate(x_hat=x, name=name,
                          feasible=bool(np.all(sys_.contains(x))),
                          diagnostics=diagnostics)


def _determined(sys_: LinearSystem, name: str) -> AttackEstimate:
    return _estimate(sys_, name, sys_.min_norm_solution, determined=True)


def attack_half(d: int, batch: tuple = ()) -> AttackEstimate:
    """Blind estimate: the center of the unit box, for each of batch rows."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return AttackEstimate(x_hat=np.full(batch + (d,), 0.5), name="half",
                          feasible=True)


def attack_zero(d: int, batch: tuple = ()) -> AttackEstimate:
    """Baseline estimate of all zeros."""
    return AttackEstimate(x_hat=np.zeros(batch + (d,)), name="zero", feasible=True)


def attack_random(d: int, rng: np.random.Generator,
                  batch: tuple = ()) -> AttackEstimate:
    """Random-guess baseline: uniform over the unit box.

    One draw of shape batch + (d,) yields the same numbers as drawing the
    rows one after another from the same generator.
    """
    return AttackEstimate(x_hat=rng.uniform(0.0, 1.0, size=batch + (d,)),
                          name="rg", feasible=True)


def attack_ls(sys_: LinearSystem) -> AttackEstimate:
    """Minimum-norm solution A^+ b' (the equation-solving baseline)."""
    return _estimate(sys_, "ls", sys_.min_norm_solution)


def attack_clamped_ls(sys_: LinearSystem) -> AttackEstimate:
    """attack_ls with entries clamped to [0, 1]."""
    return _estimate(sys_, "clamped_ls", np.clip(sys_.min_norm_solution, 0.0, 1.0))


def attack_cls(sys_: LinearSystem, x_init=None) -> AttackEstimate:
    """Box-constrained least squares; the output depends on the initial point.

    x_init (default: the box center) is the starting point of every row.
    """
    if sys_.nullity == 0:
        return _determined(sys_, "cls")
    x = np.empty(sys_.batch + (sys_.d,))
    for i in np.ndindex(sys_.batch):
        x[i] = numerics.box_least_squares(sys_.a, sys_.b[i], x_init=x_init,
                                          s1=sys_.svd.s[0])
    return _estimate(sys_, "cls", x, residual=sys_.residual(x))


def attack_half_star(sys_: LinearSystem) -> AttackEstimate:
    """Closest point of the solution space to the box center (closed form)."""
    x = sys_.min_norm_solution + 0.5 * (sys_.projector @ np.ones(sys_.d))
    return _estimate(sys_, "half_star", x)


def attack_rcc2(sys_: LinearSystem) -> AttackEstimate:
    """Objective-relaxed Chebyshev center: the feasible point closest to the box center.

    Computed as the Euclidean projection of the box center onto the feasible
    set; unique and always feasible. Where half_star is feasible it is that
    projection; only the other rows run Dykstra.
    """
    if sys_.nullity == 0:
        return _determined(sys_, "rcc2")
    x = attack_half_star(sys_).x_hat
    closed = sys_.contains(x)
    for i in np.ndindex(sys_.batch):
        if not closed[i]:
            x[i] = numerics.dykstra_project(np.full(sys_.d, 0.5), sys_.row(i))
    return _estimate(sys_, "rcc2", x,
                     projection=np.where(closed, "closed_form", "dykstra")[()])


# --- RCC1: search-space relaxation solved as a small SDP ------------------

def _rcc1_objective(alpha, rows, g, t):
    """Dual objective g(a)^T M(a)^{-1} g(a) - a.t and helpers (M, u)."""
    m = rows.T @ (alpha[:, None] * rows)
    gs = g.T @ alpha
    u = np.linalg.solve(m, gs)
    return float(gs @ u - alpha @ t), m, u


def _rcc1_barrier_solve(rows, g, t, mu0=1.0, mu_factor=0.2, mu_min=1e-9,
                        newton_tol=1e-9, max_newton=100):
    """Log-barrier interior point over the multipliers alpha >= 0, sum a_i Q_i >= I.

    rows holds the d nullspace-basis rows a_i (in R^p); Q_i = a_i a_i^T and
    g_i = (q_i - 1/2) a_i are passed via g. Returns the solved alpha.
    """
    d, p = rows.shape
    # smallest uniform alpha with sum a_i Q_i >= 1.1 I (eigenvalue scan)
    gram = rows.T @ rows
    lam_min = float(np.linalg.eigvalsh(gram)[0])
    if lam_min <= 0.0:
        raise AttackError("nullspace rows do not span the reduced space")
    alpha = np.full(d, 1.1 / lam_min)

    def strictly_feasible(a):
        if np.any(a <= 0.0):
            return False
        m = rows.T @ (a[:, None] * rows)
        return float(np.linalg.eigvalsh(m - np.eye(p))[0]) > 0.0

    def total(a, mu):
        f, m, u = _rcc1_objective(a, rows, g, t)
        m_shift = m - np.eye(p)
        sign, logdet = np.linalg.slogdet(m_shift)
        if sign <= 0:
            return np.inf, None, None, None
        return f + mu * (-logdet - np.sum(np.log(a))), m, m_shift, u

    mu = mu0
    while mu >= mu_min:
        for _ in range(max_newton):
            val, m, m_shift, u = total(alpha, mu)
            # gradient of f
            r = g - rows * (rows @ u)[:, None]        # rows r_i = g_i - Q_i u
            grad_f = 2.0 * (g @ u) - (rows @ u) ** 2 - t
            minv_rt = np.linalg.solve(m, r.T)
            hess_f = 2.0 * (r @ minv_rt)
            # gradient/hessian of the barrier
            p_inv = np.linalg.inv(m_shift)
            s = rows @ p_inv @ rows.T
            grad_b = -np.diag(s) - 1.0 / alpha
            hess_b = s * s + np.diag(1.0 / alpha ** 2)
            grad = grad_f + mu * grad_b
            hess = hess_f + mu * hess_b
            try:
                step = np.linalg.solve(hess + 1e-12 * np.eye(d), -grad)
            except np.linalg.LinAlgError:
                step = -grad
            decrement = float(-grad @ step)
            if decrement / 2.0 < newton_tol:
                break
            # backtracking line search keeping strict feasibility
            tstep = 1.0
            for _ in range(60):
                cand = alpha + tstep * step
                if strictly_feasible(cand):
                    cand_val, *_ = total(cand, mu)
                    if cand_val <= val - 1e-4 * tstep * decrement:
                        break
                tstep *= 0.5
            else:
                break  # no productive step at this barrier weight
            alpha = alpha + tstep * step
        mu *= mu_factor
    if not strictly_feasible(alpha):
        raise AttackError("barrier solve left the feasible region "
                          f"(duality gap bound {mu / mu_factor * 2 * d:.3e})")
    return alpha


def attack_rcc1(sys_: LinearSystem) -> AttackEstimate:
    """Search-space-relaxed Chebyshev center (SDP route), solved row by row.

    Works in the nullspace coordinates: each box constraint q_i <= x_i <= ...
    becomes a double-sided linear constraint on u, written in quadratic form
    with Q_i = a_i a_i^T, g_i = (q_i - 1/2) a_i, t_i = -q_i (1 - q_i). The
    reported radius upper-bounds the exact Chebyshev radius.
    """
    if sys_.nullity == 0:
        return _determined(sys_, "rcc1")
    w = sys_.nullspace                  # d x p, orthonormal columns
    rows = w                            # a_i^T are the rows of W
    q_rows = sys_.min_norm_solution
    x = np.empty_like(q_rows)
    radius = np.empty(sys_.batch)
    alphas = np.empty(sys_.batch + (sys_.d,))
    for i in np.ndindex(sys_.batch):
        q = q_rows[i]
        g = (q - 0.5)[:, None] * rows   # g_i stacked as rows
        t = -q * (1.0 - q)
        alphas[i] = _rcc1_barrier_solve(rows, g, t)
        val, m, u = _rcc1_objective(alphas[i], rows, g, t)
        x[i] = q - w @ u
        radius[i] = np.sqrt(max(val, 0.0))
    return _estimate(sys_, "rcc1", x, radius=radius[()], alpha=alphas)


def _gia_row(model: VflModel, y_act, c, x, step: float, max_iter: int,
             tol: float) -> tuple[np.ndarray, float, int]:
    """Projected descent from x for one prediction; (x, KL bits, iterations)."""
    log_c = np.log(np.clip(c, 1e-300, None))
    ln2 = np.log(2.0)

    def objective_and_grad(x):
        z = model.w_act @ y_act + model.w_pas @ x + model.b
        c_hat = softmax(z)
        ell = np.log(np.clip(c_hat, 1e-300, None)) - log_c
        div = float(np.sum(c_hat * ell)) / ln2
        grad_z = c_hat * (ell - np.sum(c_hat * ell)) / ln2
        return div, model.w_pas.T @ grad_z

    obj, grad = objective_and_grad(x)
    cur_step = step
    iters = 0
    for iters in range(1, max_iter + 1):
        cand = np.clip(x - cur_step * grad, 0.0, 1.0)
        cand_obj, cand_grad = objective_and_grad(cand)
        if cand_obj <= obj:
            moved = np.linalg.norm(cand - x)
            x, obj, grad = cand, cand_obj, cand_grad
            if moved < tol:
                break
        else:
            cur_step *= 0.5
            if cur_step < 1e-16:
                break
    return x, obj, iters


def attack_gia(model: VflModel, y_act, c, init: str = "half",
               step: float = 0.05, max_iter: int = 5000,
               tol: float = 1e-12, rng: np.random.Generator | None = None
               ) -> AttackEstimate:
    """Gradient-inversion baseline: projected descent on D(c_hat || c) over the box.

    y_act and c hold one prediction or N of them (N x (d_t - d), N x k);
    the rows are solved one after another. init selects the starting point:
    "zeros", "half" or "random" (drawn per row, in row order, from rng).
    Steps are only accepted when they do not increase the objective.
    diagnostics["iterations"] is the total over all rows.
    """
    if init not in ("zeros", "half", "random"):
        raise ValueError(f"unknown init mode {init!r}")
    c = np.asarray(c, dtype=float)
    y_act = np.asarray(y_act, dtype=float)
    d = model.w_pas.shape[1]
    batch = c.shape[:-1]
    if init == "random" and rng is None:
        rng = np.random.default_rng(0)
    x = np.empty(batch + (d,))
    kl_bits = np.empty(batch)
    iterations = 0
    for i in np.ndindex(batch):
        if init == "zeros":
            x0 = np.zeros(d)
        elif init == "half":
            x0 = np.full(d, 0.5)
        else:
            x0 = rng.uniform(0.0, 1.0, size=d)
        x[i], kl_bits[i], iters = _gia_row(model, y_act[i], c[i], x0, step,
                                           max_iter, tol)
        iterations += iters
    return AttackEstimate(
        x_hat=x, name="gia",
        feasible=bool(np.all(x >= 0.0) and np.all(x <= 1.0)),
        diagnostics={"kl_bits": kl_bits[()], "iterations": iterations,
                     "init": init})


WHITEBOX_ATTACKS = ("half", "half_star", "ls", "clamped_ls", "cls", "rcc1", "rcc2")
# every name run_attack accepts
ATTACKS = WHITEBOX_ATTACKS + ("zero", "rg", "gia")
# the estimators that need nothing but the system
_ON_SYSTEM = {"half_star": attack_half_star, "ls": attack_ls,
              "clamped_ls": attack_clamped_ls, "cls": attack_cls,
              "rcc1": attack_rcc1, "rcc2": attack_rcc2}


def run_attack(name: str, sys_: LinearSystem, *, model: VflModel | None = None,
               y_act=None, c=None, init: str = "half",
               rng: np.random.Generator | None = None) -> AttackEstimate:
    """Dispatch an attack by name over every row of sys_.

    rg additionally needs rng, and gia (model, y_act, c) for the same rows.
    """
    if name in _ON_SYSTEM:
        return _ON_SYSTEM[name](sys_)
    if name in ("half", "zero"):
        return (attack_half if name == "half" else attack_zero)(sys_.d, sys_.batch)
    if name == "rg":
        if rng is None:
            raise ValueError("rg needs an RNG")
        return attack_random(sys_.d, rng, sys_.batch)
    if name == "gia":
        if model is None or y_act is None or c is None:
            raise ValueError("gia needs (model, y_act, c)")
        return attack_gia(model, y_act, c, init=init, rng=rng)
    raise ValueError(f"unknown attack {name!r}")
