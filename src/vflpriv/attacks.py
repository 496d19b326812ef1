"""White-box reconstruction estimators plus the gradient-inversion baseline.

All attacks are pure functions of (system/model, config) and take a batch:
a system of N predictions gives N x d estimates in one call, and a one-row
system gives a d-vector. The closed forms are matrix operations over the
batch. The iterative solvers (the exact dual Newton projection for rcc2,
FISTA for cls, the rcc1 log barrier) make one call per batch on the shared
factors of A: each iteration is vectorized over the rows that have not yet
converged; gia still descends one row at a time, with Barzilai-Borwein
step sizes (the secant step s.s / s.y after each accepted step). When the
system is determined (trivial nullspace) every estimator short-circuits to
the unique solution A^+ b'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .model import VflModel
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


def attack_cls(sys_: LinearSystem) -> AttackEstimate:
    """Box-constrained least squares from the box center; the output depends
    on that starting point."""
    if sys_.nullity == 0:
        return _determined(sys_, "cls")
    x = numerics.box_least_squares(sys_)
    return _estimate(sys_, "cls", x, residual=sys_.residual(x))


def attack_half_star(sys_: LinearSystem) -> AttackEstimate:
    """Closest point of the solution space to the box center (closed form)."""
    x = sys_.min_norm_solution + 0.5 * (sys_.projector @ np.ones(sys_.d))
    return _estimate(sys_, "half_star", x)


def attack_rcc2(sys_: LinearSystem) -> AttackEstimate:
    """Objective-relaxed Chebyshev center: the feasible point closest to the box center.

    Computed as the exact Euclidean projection of the box center onto the
    feasible set; unique, in the box and on the plane to rounding. Where
    half_star lies in the box it is that projection; the other rows take
    numerics.dykstra_project's dual Newton solve together in one call.
    diagnostics["projection"] is "closed_form" or "newton" per row,
    diagnostics["residual"] each row's ||A x - b'||, and
    diagnostics["iterations"] its Newton steps (0 on closed-form rows).
    """
    if sys_.nullity == 0:
        return _determined(sys_, "rcc2")
    x = attack_half_star(sys_).x_hat
    closed = np.all((x >= 0.0) & (x <= 1.0), axis=-1)
    flat = x.reshape(-1, sys_.d)
    iterations = np.zeros(len(flat), dtype=int)
    todo = np.flatnonzero(~closed)
    if todo.size:
        flat[todo], iterations[todo] = numerics.dykstra_project(
            np.full(sys_.d, 0.5), sys_, rows=todo)
    x = flat.reshape(x.shape)
    return _estimate(sys_, "rcc2", x,
                     projection=np.where(closed, "closed_form", "newton")[()],
                     residual=sys_.residual(x),
                     iterations=iterations.reshape(sys_.batch)[()])


# --- RCC1: search-space relaxation solved as a small SDP ------------------

def _rcc1_objective(alpha, w, g, t):
    """Per row, the dual objective g(a)^T M(a)^{-1} g(a) - a.t, M(a) and u.

    alpha and t are N x d, g is N x d x p; M(a) = sum_i a_i Q_i is N x p x p
    and u = M(a)^{-1} g(a) is N x p.
    """
    m = w.T @ (alpha[..., None] * w)
    gs = np.swapaxes(g, -1, -2) @ alpha[..., None]    # g(a), N x p x 1
    u = np.linalg.solve(m, gs)
    val = (np.swapaxes(gs, -1, -2) @ u)[:, 0, 0] - np.sum(alpha * t, axis=-1)
    return val, m, u[..., 0]


def _newton_steps(hess, grad):
    """Solve hess @ step = -grad per row; a singular row steps along -grad."""
    try:
        return np.linalg.solve(hess, -grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = -grad
        for i in range(len(hess)):
            try:
                step[i] = np.linalg.solve(hess[i], -grad[i])
            except np.linalg.LinAlgError:
                pass
        return step


def _rcc1_barrier_solve(w, g, t):
    """Log-barrier interior point over the multipliers alpha >= 0, sum a_i Q_i >= I.

    Solves N rows at once. w holds the d nullspace-basis rows a_i (in R^p)
    that every row shares; Q_i = a_i a_i^T, and each row's
    g_i = (q_i - 1/2) a_i and t_i come in g (N x d x p) and t (N x d). All
    rows follow one mu schedule, 1, 0.2, 0.04, ... down to 1e-9. At each mu
    a row takes up to 100 Newton steps, until half its decrement is under
    1e-9 or no backtracked step is productive, and each pass computes only
    the rows still stepping. Returns alpha, N x d.
    """
    n, d, p = g.shape
    eye_p = np.eye(p)
    diag = np.arange(d)
    # smallest uniform alpha with sum a_i Q_i >= 1.1 I (eigenvalue scan)
    lam_min = float(np.linalg.eigvalsh(w.T @ w)[0])
    if lam_min <= 0.0:
        raise AttackError("nullspace rows do not span the reduced space")
    alpha = np.full((n, d), 1.1 / lam_min)

    def strictly_feasible(a):
        m = w.T @ (a[..., None] * w)
        return np.all(a > 0.0, axis=-1) & (np.linalg.eigvalsh(m - eye_p)[:, 0] > 0.0)

    def total(a, g, t, mu):
        f, m, u = _rcc1_objective(a, w, g, t)
        m_shift = m - eye_p
        sign, logdet = np.linalg.slogdet(m_shift)
        val = np.where(sign > 0, f + mu * (-logdet - np.sum(np.log(a), axis=-1)),
                       np.inf)
        return val, m, m_shift, u

    mu = 1.0
    while mu >= 1e-9:
        act = np.arange(n)              # rows still stepping at this mu
        for _ in range(100):
            a, ga, ta = alpha[act], g[act], t[act]
            val, m, m_shift, u = total(a, ga, ta, mu)
            # gradient of f
            wu = u @ w.T                                  # rows @ u, per row
            r = ga - w * wu[..., None]                    # rows r_i = g_i - Q_i u
            grad_f = 2.0 * (ga @ u[..., None])[..., 0] - wu ** 2 - ta
            minv_rt = np.linalg.solve(m, np.swapaxes(r, -1, -2))
            hess_f = 2.0 * (r @ minv_rt)
            # gradient/hessian of the barrier
            s = w @ np.linalg.inv(m_shift) @ w.T
            grad_b = -np.diagonal(s, axis1=-2, axis2=-1) - 1.0 / a
            hess_b = s * s
            hess_b[:, diag, diag] += 1.0 / a ** 2
            grad = grad_f + mu * grad_b
            hess = hess_f + mu * hess_b
            step = _newton_steps(hess + 1e-12 * np.eye(d), grad)
            decrement = -np.sum(grad * step, axis=-1)
            go = decrement / 2.0 >= 1e-9
            act, a, ga, ta = act[go], a[go], ga[go], ta[go]
            val, step, decrement = val[go], step[go], decrement[go]
            # backtracking line search keeping strict feasibility
            tstep = np.ones(act.size)
            accepted = np.zeros(act.size, dtype=bool)
            pending = np.arange(act.size)
            for _ in range(60):
                if not pending.size:
                    break
                cand = a[pending] + tstep[pending, None] * step[pending]
                feasible = strictly_feasible(cand)
                ok = np.zeros(pending.size, dtype=bool)
                if feasible.any():
                    k = pending[feasible]
                    cand_val = total(cand[feasible], ga[k], ta[k], mu)[0]
                    ok[feasible] = cand_val <= val[k] - 1e-4 * tstep[k] * decrement[k]
                accepted[pending[ok]] = True
                pending = pending[~ok]
                tstep[pending] *= 0.5
            # a row with no productive step is done at this barrier weight
            act = act[accepted]
            alpha[act] = a[accepted] + tstep[accepted, None] * step[accepted]
            if not act.size:
                break
        mu *= 0.2
    bad = np.flatnonzero(~strictly_feasible(alpha))
    if bad.size:
        raise AttackError(f"barrier solve left the feasible region on rows "
                          f"{bad.tolist()} (duality gap bound "
                          f"{mu / 0.2 * 2 * d:.3e})")
    return alpha


def attack_rcc1(sys_: LinearSystem) -> AttackEstimate:
    """Search-space-relaxed Chebyshev center (SDP route), one barrier solve per batch.

    Works in the nullspace coordinates: each box constraint q_i <= x_i <= ...
    becomes a double-sided linear constraint on u, written in quadratic form
    with Q_i = a_i a_i^T, g_i = (q_i - 1/2) a_i, t_i = -q_i (1 - q_i). The
    reported radius upper-bounds the exact Chebyshev radius.
    """
    if sys_.nullity == 0:
        return _determined(sys_, "rcc1")
    w = sys_.nullspace                  # d x p, orthonormal columns; a_i^T are its rows
    q = sys_.min_norm_solution.reshape(-1, sys_.d)
    g = (q - 0.5)[..., None] * w        # g_i stacked as rows, per row
    t = -q * (1.0 - q)
    alpha = _rcc1_barrier_solve(w, g, t)
    val, _, u = _rcc1_objective(alpha, w, g, t)
    x = q - u @ w.T
    shape = sys_.batch + (sys_.d,)
    radius = np.sqrt(np.maximum(val, 0.0)).reshape(sys_.batch)
    return _estimate(sys_, "rcc1", x.reshape(shape), radius=radius[()],
                     alpha=alpha.reshape(shape))


# the largest step gia takes, so that x - step * grad never forms inf * 0
_GIA_MAX_STEP = 1e30


def _gia_row(model: VflModel, y_act, c, x, step: float, max_iter: int,
             tol: float) -> tuple[np.ndarray, float, int, bool]:
    """Projected descent from x for one prediction, with the step rule of
    attack_gia.

    Returns (x, KL bits, iterations, converged); converged is True when a
    step moved x by less than tol, False at the iteration cap or once the
    step size underflows.
    """
    log_c = np.log(np.maximum(c, 1e-300))
    ln2 = np.log(2.0)
    u = model.w_act @ y_act         # the active party's logits stay fixed
    w_pas, w_pas_t, b = model.w_pas, model.w_pas.T, model.b

    # softmax(z) and c_hat * (ell - s) / ln2 written out in place, each float
    # operation in its order there, so the iterates match them bit for bit
    def objective_and_grad(x):
        z = u + w_pas @ x
        z += b
        z -= z.max()
        c_hat = np.exp(z)
        c_hat /= c_hat.sum()
        ell = np.log(np.maximum(c_hat, 1e-300)) - log_c
        s = (c_hat * ell).sum()
        ell -= s
        ell *= c_hat
        ell /= ln2
        return s / ln2, w_pas_t @ ell

    obj, grad = objective_and_grad(x)
    cur_step = step
    iters = 0
    for iters in range(1, max_iter + 1):
        cand = x - cur_step * grad
        np.maximum(cand, 0.0, out=cand)
        np.minimum(cand, 1.0, out=cand)
        cand_obj, cand_grad = objective_and_grad(cand)
        if cand_obj <= obj:
            dx = cand - x
            dg = cand_grad - grad
            x, obj, grad = cand, cand_obj, cand_grad
            ss = dx.dot(dx)
            if np.sqrt(ss) < tol:
                return x, obj, iters, True
            # Barzilai-Borwein: the secant step s.s / s.y, or twice the last
            # step where the curvature along s is not positive
            sy = dx.dot(dg)
            if sy <= 0.0:
                cur_step = min(2.0 * cur_step, _GIA_MAX_STEP)
            else:   # the cap is tested first, so a tiny s.y cannot overflow
                cur_step = ss / sy if ss < _GIA_MAX_STEP * sy else _GIA_MAX_STEP
        else:
            cur_step *= 0.5
            if cur_step < 1e-16:
                break
    return x, obj, iters, False


def attack_gia(model: VflModel, y_act, c, init: str = "half",
               max_iter: int = 5000, rng: np.random.Generator | None = None
               ) -> AttackEstimate:
    """Gradient-inversion baseline: projected descent on D(c_hat || c) over the box.

    y_act and c hold one prediction or N of them (N x (d_t - d), N x k);
    the rows are solved one after another. init selects the starting point:
    "zeros", "half" or "random" (drawn per row, in row order, from rng).
    Steps start at 0.05 and are only accepted when they do not increase the
    objective; a rejected step halves the step size. After an accepted step
    s, with gradient change y, the next step size is the Barzilai-Borwein
    value s.s / s.y (Barzilai & Borwein 1988; with the projection, the
    spectral projected gradient of Birgin, Martinez & Raydan 2000), or
    twice the last one where s.y <= 0, never above 1e30. A row stops when
    the step size falls below 1e-16. diagnostics["iterations"] is the total
    over all rows, and diagnostics["converged"] says per row whether its
    last step moved it by less than 1e-12 (False at the max_iter cap or on
    step underflow).
    """
    if init not in ("zeros", "half", "random"):
        raise ValueError(f"unknown init mode {init!r}")
    c = np.asarray(c, dtype=float)
    y_act = np.asarray(y_act, dtype=float)
    d = model.w_pas.shape[1]
    batch = c.shape[:-1]
    if init == "random" and rng is None:
        raise ValueError("gia's random init needs an RNG")
    x = np.empty(batch + (d,))
    kl_bits = np.empty(batch)
    converged = np.empty(batch, dtype=bool)
    iterations = 0
    for i in np.ndindex(batch):
        if init == "zeros":
            x0 = np.zeros(d)
        elif init == "half":
            x0 = np.full(d, 0.5)
        else:
            x0 = rng.uniform(0.0, 1.0, size=d)
        x[i], kl_bits[i], iters, converged[i] = _gia_row(
            model, y_act[i], c[i], x0, 0.05, max_iter, 1e-12)
        iterations += iters
    return AttackEstimate(
        x_hat=x, name="gia",
        feasible=bool(np.all(x >= 0.0) and np.all(x <= 1.0)),
        diagnostics={"kl_bits": kl_bits[()], "iterations": iterations,
                     "converged": converged[()], "init": init})


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
