"""Independent reference implementations used only to cross-check the package.

Everything here takes a different computational route from the production
code: general-purpose constrained optimization instead of closed forms,
vertex-hull reasoning instead of alternating projections, finite differences
instead of analytic gradients.
"""

from __future__ import annotations

import contextlib
import sys
from itertools import combinations, product

import numpy as np
from scipy import optimize

from vflpriv import defense, metrics
from vflpriv.attacks import _RCC1_FLOOR, _RCC1_GAP, AttackError, run_attack
from vflpriv.metrics import EPS_CLIP, _check_prob, _per_row
from vflpriv.model import TrainingError, VflModel, predict, softmax
from vflpriv.numerics import NumericsError, as_matrix, svd
from vflpriv.system import LinearSystem, build_system, difference_matrix


def contains(sys_: LinearSystem, x, tau: float) -> np.ndarray:
    """Per-row membership of x in {x in [0,1]^d : Ax = b'} up to slack tau,
    written out: LinearSystem.contains holds its slack at numerics.TAU_FEAS."""
    x = np.asarray(x, dtype=float)
    on_plane = np.max(np.abs(x @ sys_.a.T - sys_.b), axis=-1) <= tau
    return on_plane & np.all((x >= -tau) & (x <= 1.0 + tau), axis=-1)


def project_box_affine(x0, a, b):
    """Euclidean projection onto {x in [0,1]^d : Ax = b} via SLSQP."""
    x0 = np.asarray(x0, dtype=float)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    d = x0.size

    res = optimize.minimize(
        lambda x: 0.5 * np.sum((x - x0) ** 2),
        np.clip(x0, 0.0, 1.0),
        jac=lambda x: x - x0,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * d,
        constraints=[{"type": "eq", "fun": lambda x: a @ x - b,
                      "jac": lambda x: a}],
        options={"maxiter": 2000, "ftol": 1e-14},
    )
    if not res.success:
        raise RuntimeError(f"SLSQP projection failed: {res.message}")
    return res.x


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

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10 * len(pts) + 100))
    try:
        c, r = med(len(pts), [])
    finally:
        sys.setrecursionlimit(old)
    if c is None:
        raise NumericsError("minimal enclosing ball of an empty point set")
    return c, float(np.max(np.linalg.norm(pts - c, axis=1)))


def polytope_vertices(sys_: LinearSystem) -> np.ndarray:
    """Enumerate the vertices of {x in [0,1]^d : Ax = b} of a one-row system.

    Fixes d - rank(A) coordinates at {0, 1} over all index subsets, solves the
    reduced system, and keeps feasible unique solutions. Exponential in the
    free-coordinate count; callers must keep d small.
    """
    a, b = sys_.a, sys_.b
    d = a.shape[1]
    r = svd(a).rank()
    nfree = d - r
    verts: list[np.ndarray] = []
    if nfree == 0:
        x = sys_.pinv @ b
        if sys_.contains(x):
            verts.append(np.clip(x, 0.0, 1.0))
    else:
        for fixed in combinations(range(d), nfree):
            free = [i for i in range(d) if i not in fixed]
            a_free = a[:, free]
            if free and svd(a_free).rank() < len(free):
                continue  # reduced system not uniquely solvable here
            for vals in product((0.0, 1.0), repeat=nfree):
                rhs = b - a[:, fixed] @ np.asarray(vals)
                x = np.zeros(d)
                x[list(fixed)] = vals
                if free:
                    x[free] = np.linalg.lstsq(a_free, rhs, rcond=None)[0]
                if sys_.contains(x):
                    verts.append(np.clip(x, 0.0, 1.0))
    if not verts:
        raise NumericsError("polytope is empty (no feasible vertex found)")
    # dedupe within tolerance
    out: list[np.ndarray] = []
    for v in verts:
        if not any(np.linalg.norm(v - w) < 1e-9 for w in out):
            out.append(v)
    return np.array(out)


def chebyshev_center_exact(sys_: LinearSystem) -> tuple[np.ndarray, float]:
    """Exact Chebyshev center and radius of a one-row system's solution set.

    Vertex enumeration followed by the minimal enclosing ball of the vertices.
    Guarded to d <= 8: vertex enumeration is exponential in the dimension.
    """
    if sys_.d > 8:
        raise ValueError("exact Chebyshev center is limited to d <= 8")
    return _welzl(polytope_vertices(sys_))


def box_least_squares_ref(a, b):
    """Box-constrained least squares via scipy's dedicated solver."""
    res = optimize.lsq_linear(a, b, bounds=(0.0, 1.0), tol=1e-14)
    return res.x


def minimal_ball_brute(points):
    """Exact minimal enclosing ball by exhaustive boundary-subset search.

    Only for small point sets: tries every subset of size <= d+1 as the
    boundary, computes its circumsphere, and keeps the smallest ball that
    encloses everything.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    best = None
    for size in range(1, min(n, d + 1) + 1):
        for idx in combinations(range(n), size):
            sub = pts[list(idx)]
            p0 = sub[0]
            if size == 1:
                c, r = p0, 0.0
            else:
                q = sub[1:] - p0
                rhs = 0.5 * np.einsum("ij,ij->i", q, q)
                c = p0 + np.linalg.lstsq(q, rhs, rcond=None)[0]
                r = float(np.max(np.linalg.norm(sub - c, axis=1)))
            if np.all(np.linalg.norm(pts - c, axis=1) <= r + 1e-9):
                if best is None or r < best[1]:
                    best = (c, r)
    return best


def finite_difference_grad(fun, x, h: float = 1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def softmax_rows(z) -> np.ndarray:
    """Softmax along the last axis: np.max per row, then each row's classes
    added one at a time, first to last, by an explicit loop."""
    z = np.asarray(z, dtype=float)
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    total = e[..., 0].copy()
    for j in range(1, e.shape[-1]):
        total += e[..., j]
    return e / total[..., None]


def _window_loss(w, b, x, y_onehot, lam):
    scores = softmax_rows(x @ w.T + b)
    ce = -np.sum(y_onehot * np.log(scores + 1e-300)) / x.shape[0]
    return scores, ce + lam * (np.sum(w * w) + np.sum(b * b))


def train_window(ds, split_cfg, cfg):
    """One window's model by its own Adam loop: the rule train applies.

    Full-batch Adam, one epoch at a time, with the row-major loss, its
    gradients and the early stop written out: a separate forward on the fit
    rows, then one on the validation rows after the step. Returns the model
    and the number of epochs run.
    """
    lr, patience, tol, val_fraction = 0.05, 20, 1e-6, 0.1
    rng = np.random.default_rng(cfg.seed)
    train_idx = np.flatnonzero(ds.train_mask)
    perm = rng.permutation(train_idx.size)
    n_val = max(1, int(round(val_fraction * train_idx.size)))
    order = list(split_cfg.active) + list(split_cfg.passive)
    fit_idx, val_idx = train_idx[perm[n_val:]], train_idx[perm[:n_val]]
    x_fit, x_val = ds.x[fit_idx][:, order], ds.x[val_idx][:, order]
    y_fit, y_val = np.eye(ds.k)[ds.y[fit_idx]], np.eye(ds.k)[ds.y[val_idx]]
    w = 0.01 * rng.standard_normal((ds.k, ds.d_t))
    b = np.zeros(ds.k)
    m_w, v_w, m_b, v_b = np.zeros_like(w), np.zeros_like(w), np.zeros_like(b), np.zeros_like(b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best, stall, epoch = (np.inf, w.copy(), b.copy()), 0, 0
    for epoch in range(1, cfg.max_epochs + 1):
        scores, loss = _window_loss(w, b, x_fit, y_fit, cfg.lam)
        if not np.isfinite(loss):
            raise TrainingError(f"training diverged at epoch {epoch} (loss={loss})")
        delta = (scores - y_fit) / x_fit.shape[0]
        gw = delta.T @ x_fit + 2.0 * cfg.lam * w
        gb = delta.sum(axis=0) + 2.0 * cfg.lam * b
        m_w = beta1 * m_w + (1 - beta1) * gw
        v_w = beta2 * v_w + (1 - beta2) * gw * gw
        m_b = beta1 * m_b + (1 - beta1) * gb
        v_b = beta2 * v_b + (1 - beta2) * gb * gb
        c1 = 1 - beta1 ** epoch
        c2 = 1 - beta2 ** epoch
        w -= lr * (m_w / c1) / (np.sqrt(v_w / c2) + eps)
        b -= lr * (m_b / c1) / (np.sqrt(v_b / c2) + eps)

        val_loss = _window_loss(w, b, x_val, y_val, cfg.lam)[1]
        if val_loss < best[0] * (1.0 - tol):
            best = (val_loss, w.copy(), b.copy())
            stall = 0
        else:
            if val_loss < best[0]:
                best = (val_loss, w.copy(), b.copy())
            stall += 1
            if stall >= patience:
                break
    _, w, b = best
    n_act = split_cfg.d_t - split_cfg.d
    return VflModel(w_act=w[:, :n_act], w_pas=w[:, n_act:], b=b, k=ds.k,
                    split=split_cfg, lam=cfg.lam), epoch


def random_satisfiable_system(rng, d, m, margin: float = 0.05):
    """Random (A, b, x_true) with x_true comfortably inside the unit box."""
    a = rng.standard_normal((m, d))
    x_true = rng.uniform(margin, 1.0 - margin, size=d)
    return a, a @ x_true, x_true


def defense_sweep_rows(model, ds, rows, settings, attack="half_star"):
    """Row-by-row reference for the CLI's defend and tradeoff sweeps.

    Treats one prediction at a time: each row gets its own logits, scores,
    clean system (for the s1/s2 direction) and released system, and the
    attack, the KL divergence and the label check run on that row alone.
    pps1 takes its transform from the first row's clean system, and its KL
    is 0 because the scores are not touched. The attack sees only the system.
    Returns (MSE, mean KL bits, label kept on every row) per setting.
    """
    act, pas = list(model.split.active), list(model.split.passive)
    out = []
    for scheme, param in settings:
        if scheme == "pps1":
            y0, x0 = ds.x[rows[0], act], ds.x[rows[0], pas]
            probe = build_system(model, y0, predict(model, y0, x0))
            h = defense.pps1_optimal_h(probe, metrics.moments(ds, pas).k0)
            revealed = defense.pps1_reveal_params(model, h)
        truths, estimates, kls, kept = [], [], [], []
        for i in rows:
            y_act, x_pas = ds.x[i, act], ds.x[i, pas]
            c = predict(model, y_act, x_pas)
            if scheme == "pps1":
                c_out = c
                sys_ = build_system(revealed, y_act, c, source="noisy")
            else:
                plan = param
                if scheme in ("s1", "s2"):
                    plan = defense.pps2_optimal_direction(
                        build_system(model, y_act, c), param)
                c_out = defense.apply_scheme(model.logits(y_act, x_pas), plan, scheme)
                sys_ = build_system(model, y_act, c_out, source="noisy")
                kls.append(metrics.kl_divergence(c, c_out))
            estimates.append(run_attack(attack, sys_).x_hat)
            truths.append(x_pas)
            kept.append(c_out[int(np.argmax(c))] == c_out.max())
        mse = metrics.empirical_mse(np.array(truths), np.array(estimates))
        out.append((mse, float(np.mean(kls)) if kls else 0.0, all(kept)))
    return out


# --- the one-row solvers that the batched estimators replaced --------------
# Kept as agreement oracles: each solves one prediction at a time, with the
# same iteration as the package, so a batched call must agree with them up to
# the solver's tolerance.

def dykstra_row(x0, sys_: LinearSystem, max_iter: int = 10_000,
                tol: float = 1e-10, affine_tol: float = 1e-8) -> np.ndarray:
    """Dykstra's projection of x0 onto {x in [0,1]^d : Ax = b} of a one-row system.

    Stops once an iteration moves x by less than tol. A stalled iterate can
    pass that test far from the plane, so the result must also satisfy
    max|Ax - b| <= affine_tol; otherwise NumericsError is raised.
    """
    x = np.asarray(x0, dtype=float).copy()
    if contains(sys_, x, 0.0):
        return x
    ap, a, b = sys_.pinv, sys_.a, sys_.b
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_iter):
        z = x + p
        y = z - ap @ (a @ z - b)
        p = z - y
        w = y + q
        x_new = np.clip(w, 0.0, 1.0)
        q = w - x_new
        move = np.linalg.norm(x_new - x)
        x = x_new
        if move < tol:
            affine = np.max(np.abs(a @ x - b))
            if affine > affine_tol:
                raise NumericsError(f"one-row Dykstra stopped moving off the "
                                    f"plane (affine residual {affine:.3e})")
            return x
    raise NumericsError("one-row Dykstra hit the iteration cap")


def box_least_squares_row(a, b, max_iter: int = 50_000, tol: float = 1e-12) -> np.ndarray:
    """FISTA for min ||Ax - b|| over the box, one row, from the box center,
    restarting its momentum where the objective does not fall."""
    x = np.full(a.shape[1], 0.5)
    step = 1.0 / np.linalg.norm(a, 2) ** 2
    y = x.copy()
    t = 1.0
    fx = 0.5 * np.linalg.norm(a @ x - b) ** 2
    for _ in range(max_iter):
        x_new = np.clip(y - step * (a.T @ (a @ y - b)), 0.0, 1.0)
        f_new = 0.5 * np.linalg.norm(a @ x_new - b) ** 2
        if f_new >= fx:
            y = x.copy()
            t = 1.0
            x_new = np.clip(y - step * (a.T @ (a @ y - b)), 0.0, 1.0)
            f_new = 0.5 * np.linalg.norm(a @ x_new - b) ** 2
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        move = np.linalg.norm(x_new - x)
        x, t, fx = x_new, t_new, f_new
        pg = np.linalg.norm(x - np.clip(x - step * (a.T @ (a @ x - b)), 0.0, 1.0))
        if pg < tol and move < tol:
            return x
    raise NumericsError("one-row box least squares hit the iteration cap")


def box_kkt_failures(sys_: LinearSystem, rows, x) -> list[int]:
    """The rows of x that fail the KKT conditions of min ||A x - b'|| over
    the unit box; rows picks rows of sys_'s flattened batch, each on its
    system's A, as numerics.box_least_squares takes them.

    A row passes when x lies in the box and, with g = A^T (A x - b') over
    ||A||_2^2 (the gradient box_least_squares steps on) and tol = 1e-9,
    g_j >= -tol where x_j <= tol, g_j <= tol where x_j >= 1 - tol, and
    |g_j| <= tol at every other coordinate. This checks the answer, not the
    arithmetic that found it.
    """
    tol, (m, d) = 1e-9, sys_.a.shape[-2:]
    a = sys_.a.reshape(-1, m, d)
    index = np.asarray(rows, dtype=int).ravel()
    b = sys_.b.reshape(-1, m)
    own = index // (len(b) // len(a))
    s1 = sys_.svd.s.reshape(len(a), -1)[own, :1]
    r = np.einsum("nmd,nd->nm", a[own], x) - b[index]
    g = np.einsum("nmd,nm->nd", a[own], r) / np.where(s1 > 0.0, s1 * s1, 1.0)
    ok = np.where(x <= tol, g >= -tol, np.where(x >= 1.0 - tol, g <= tol, np.abs(g) <= tol))
    ok = ok.all(1) & ((x >= 0.0) & (x <= 1.0)).all(1)
    return index[~ok].tolist()


def box_center_failures(sys_: LinearSystem, rows, x) -> list[int]:
    """The rows of x, taken as in box_kkt_failures, whose half_star (the
    point of the solution space nearest the box center, sys_.plane_center)
    lies in the box and that end more than 1e-9 from it: from the center,
    box least squares must land on that point."""
    index = np.asarray(rows, dtype=int).ravel()
    half_star = sys_.plane_center.reshape(-1, sys_.d)[index]
    inside = np.all((half_star >= 0.0) & (half_star <= 1.0), axis=1)
    off = np.max(np.abs(x - half_star), axis=1) > 1e-9
    return index[inside & off].tolist()


def rcc1_pd_solve_batch(w, c, max_iter=50):
    """rcc1's earlier interior point, on the lifted (2p+1)-square SDP with no
    working set, kept verbatim as an independent reference: where both
    converge, attacks._rcc1_pd_solve's x agrees with it within 1e-8 and its
    dual value within 1e-9."""
    (n, d), p = c.shape, w.shape[1]
    k = 2 * p + 1                       # X and S hold the V block, then the W block
    # A_j sums u u^T over row j of both blocks of u, plus e_j e_j^T for alpha_j
    u = np.zeros((n, 2 * d + 2, k))
    u[:, :d, :p], u[:, :d, p], u[:, d, p] = w, c, 1.0
    u[:, d + 1:-1, p + 1:] = w
    of_row = np.tile(np.arange(d + 1), 2)       # the j of each row of u
    cmat = np.diag(np.repeat([0.0, 1.0], [p + 1, p]))
    b, diag = np.append(np.full(d, 0.25), 1.0), np.arange(d)

    def tr(z):
        return np.swapaxes(z, -1, -2)

    def slack(ur, y):                   # S = sum_j y_j A_j - C, less alpha's block
        return tr(ur) @ (y[:, of_row, None] * ur) - cmat

    def inner(x, xl, s, y):             # <X, S> per row, alpha's block included
        return (x * s).sum((1, 2)) + (xl * y[:, :d]).sum(-1)

    # alpha = 1.5 and sigma put M(alpha) - I and the lifted block's Schur
    # complement at I / 2: the one S ever factored is well inside the cone
    wc = np.matmul(c[:, None], w)[:, 0]
    y = np.column_stack([np.full((n, d), 1.5),
                         0.5 + 1.5 * ((wc * wc).sum(-1) - (c * c).sum(-1))])
    s, x, xl = slack(u, y), np.tile(np.eye(k) / 2, (n, 1, 1)), np.full((n, d), 0.5)
    fac = np.stack([np.sqrt(x), np.linalg.cholesky(s)], axis=1)
    # per row: the factors of X and S, their inverses, X, S, alpha's slack, y, <X, S>
    state = [fac, np.linalg.inv(fac), x, s, xl, y, inner(x, xl, s, y)]

    # a row that overflows fails ok and stops; numpy need not warn of it
    @np.errstate(over="ignore", invalid="ignore")
    def step(rows, mu):
        """Mehrotra's step of rows, or Newton's to X S = mu I; ok: finite rows."""
        fr, fir, x, s, xl, y, gap = (v[rows] for v in state)
        ur, al = u[rows], y[:, :d]
        urt, s_inv = tr(ur), tr(fir[:, 1]) @ fir[:, 1]
        ux, us = np.moveaxis(ur[:, None] @ np.stack([x, s_inv], 1) @ urt[:, None], 1, 0)
        schur = (ux * us).reshape(rows.size, 2, d + 1, 2, d + 1).sum(axis=(1, 3))
        schur[:, diag, diag] += xl / al
        a_s = us.diagonal(0, 1, 2).reshape(-1, 2, d + 1).sum(1)     # A(S^-1)

        def direction(target, corr, corr_l):
            """The HKM direction plus a correction; ok is False where not finite."""
            target = np.reshape(target, (-1, 1))
            rhs = target * a_s - b      # A(X + dX) + xl + dxl = b; A(X) cancels
            rhs[:, :d] += target / al - corr_l
            if np.ndim(corr):
                rhs -= ((ur @ corr) * ur).sum(-1).reshape(-1, 2, d + 1).sum(1)
            try:
                dy = np.linalg.solve(schur, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:   # row by row: a singular row gets NaN
                dy = np.full(rhs.shape, np.nan)
                for i in range(len(rhs)):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        dy[i] = np.linalg.solve(schur[i], rhs[i])
            ok = np.isfinite(dy).all(-1)
            dy[~ok] = 0.0
            ds = urt @ (dy[:, of_row, None] * ur)
            h = x @ ds @ s_inv + corr
            dx = target[..., None] * s_inv - x - 0.5 * (h + tr(h))
            dxl = target / al - xl - xl * dy[:, :d] / al - corr_l
            scaled = fir @ np.stack([dx, ds], axis=1) @ tr(fir)
            # a non-finite correction (an overflowing row) ends its row too
            ok &= np.isfinite(scaled).all((1, 2, 3)) & np.isfinite(dxl).all(-1)
            scaled[~ok] = 0.0
            return dx, dxl, dy, ds, scaled, ok

        def length(lam, dxl, dy):       # primal and dual steps 0.95 of the way
            low = np.minimum(lam[..., 0], np.stack([(dxl / xl).min(-1),
                                                    (dy[:, :d] / al).min(-1)], -1))
            return -0.95 / np.minimum(low, -0.95)

        corr = corr_l = 0.0
        if mu is None:
            dx, dxl, dy, ds, scaled, _ = direction(0.0, 0.0, 0.0)
            tp, td = np.split(length(np.linalg.eigvalsh(scaled), dxl, dy), 2, axis=1)
            mu = gap / (k + d)
            mu_aff = inner(x + tp[..., None] * dx, xl + tp * dxl,
                           s + td[..., None] * ds, y + td * dy) / (k + d)
            mu *= np.maximum((mu_aff / mu) ** 3, 0.1)
            corr, corr_l = dx @ ds @ s_inv, dxl * dy[:, :d] / al
        dx, dxl, dy, ds, scaled, ok = direction(mu, corr, corr_l)
        lam, vec = np.linalg.eigh(scaled)
        t = length(lam, dxl, dy)
        root = np.sqrt(1.0 + t[..., None] * lam)
        fr, fir = fr @ vec * root[..., None, :], tr(vec) @ fir / root[..., None]
        xl, y = xl + t[:, :1] * dxl, y + t[:, 1:] * dy
        x, s = fr[:, 0] @ tr(fr[:, 0]), slack(ur, y)
        return [fr, fir, x, s, xl, y, inner(x, xl, s, y)], ok

    def take(rows, new, go):
        for v, nv in zip(state, new):
            v[rows[go]] = nv[go]
        return rows[go]

    gap, steps = state[-1], np.zeros(n, dtype=int)
    live = every = np.arange(n)
    for _ in range(max_iter):
        if not live.size:
            break
        new, ok = step(live, None)
        stalled = (gap[live] <= _RCC1_FLOOR) & ~(new[-1] <= 0.5 * gap[live])
        moved = take(live, new, ok & ~stalled)
        steps[moved] += 1
        live = moved[gap[moved] > _RCC1_GAP]
    for _ in range(2):
        new, ok = step(every, 0.1 * _RCC1_GAP / (k + d))
        take(every, new, ok & (new[-1] <= _RCC1_FLOOR))
    bad = np.flatnonzero(~(gap <= _RCC1_FLOOR))
    if bad.size:
        gaps = " ".join(f"{v:.3e}" for v in gap[bad])
        raise AttackError(f"rcc1 rows {bad.tolist()} end with gaps {gaps} above "
                          f"{_RCC1_FLOOR:g} in at most {max_iter} steps")
    return state[2][:, :p, p], state[5] @ b, gap, steps


def _rcc1_objective_row(alpha, rows, g, t):
    m = rows.T @ (alpha[:, None] * rows)
    gs = g.T @ alpha
    u = np.linalg.solve(m, gs)
    return float(gs @ u - alpha @ t), m, u


def rcc1_row(sys_: LinearSystem, mu0=1.0, mu_factor=0.2, mu_min=1e-9,
             newton_tol=1e-9, max_newton=100, value=False):
    """The rcc1 center of a one-row system by its log-barrier Newton method.

    With value=True, also the dual objective at the barrier's multipliers
    (its squared radius).
    """
    rows = sys_.svd.nullspace()
    d, p = rows.shape
    q = sys_.min_norm_solution
    g = (q - 0.5)[:, None] * rows
    t = -q * (1.0 - q)
    alpha = np.full(d, 1.1 / float(np.linalg.eigvalsh(rows.T @ rows)[0]))

    def strictly_feasible(a):
        m = rows.T @ (a[:, None] * rows)
        return np.all(a > 0.0) and np.linalg.eigvalsh(m - np.eye(p))[0] > 0.0

    def total(a, mu):
        f, m, u = _rcc1_objective_row(a, rows, g, t)
        sign, logdet = np.linalg.slogdet(m - np.eye(p))
        if sign <= 0:
            return np.inf, m, u
        return f + mu * (-logdet - np.sum(np.log(a))), m, u

    mu = mu0
    while mu >= mu_min:
        for _ in range(max_newton):
            val, m, u = total(alpha, mu)
            r = g - rows * (rows @ u)[:, None]
            grad_f = 2.0 * (g @ u) - (rows @ u) ** 2 - t
            hess_f = 2.0 * (r @ np.linalg.solve(m, r.T))
            s = rows @ np.linalg.inv(m - np.eye(p)) @ rows.T
            grad = grad_f + mu * (-np.diag(s) - 1.0 / alpha)
            hess = hess_f + mu * (s * s + np.diag(1.0 / alpha ** 2))
            step = np.linalg.solve(hess + 1e-12 * np.eye(d), -grad)
            decrement = float(-grad @ step)
            if decrement / 2.0 < newton_tol:
                break
            tstep = 1.0
            for _ in range(60):
                cand = alpha + tstep * step
                if (strictly_feasible(cand)
                        and total(cand, mu)[0] <= val - 1e-4 * tstep * decrement):
                    break
                tstep *= 0.5
            else:
                break
            alpha = alpha + tstep * step
        mu *= mu_factor
    val, _, u = _rcc1_objective_row(alpha, rows, g, t)
    return (q - rows @ u, val) if value else q - rows @ u


def rcc2_row(sys_: LinearSystem) -> np.ndarray:
    """The rcc2 estimate of a one-row system: half_star, or its projection into the box.

    The projection is Dykstra's where that converges onto the plane, and
    the SLSQP projection where it does not.
    """
    x = sys_.min_norm_solution + 0.5 * (sys_.projector @ np.ones(sys_.d))
    if np.all((x >= 0.0) & (x <= 1.0)):
        return x
    center = np.full(sys_.d, 0.5)
    try:
        return dykstra_row(center, sys_)
    except NumericsError:
        return project_box_affine(center, sys_.a, sys_.b)


def row_by_row(name: str, sys_: LinearSystem) -> np.ndarray:
    """rcc2, cls or rcc1 of every row of a batched system, one row at a time.

    rcc1's barrier runs to mu 1e-13 with Newton tolerance 1e-14, where its
    center is within about 1e-9 of the converged one.
    """
    solve = {"rcc2": rcc2_row,
             "rcc1": lambda s: rcc1_row(s, mu_min=1e-13, newton_tol=1e-14),
             "cls": lambda s: box_least_squares_row(s.a, s.b)}[name]
    return np.array([solve(LinearSystem(a=sys_.a, b=b)) for b in sys_.b])


def gia_model_objective(model, y_act, c):
    """gia's KL objective and gradient for one prediction, through the
    model: the logits at x are W_act y + W_pas x + b (the reference form)."""
    u = model.w_act @ y_act
    return _gia_objective(lambda x: u + model.w_pas @ x + model.b,
                          np.log(np.maximum(c, 1e-300)), model.w_pas)


def gia_system_objective(sys_: LinearSystem):
    """The same objective read off a one-row system: the logits at x are
    offset + M x, M = [0; cumsum(A)] and offset = log c - [0, cumsum(b')]."""
    m = np.vstack([np.zeros(sys_.d), np.cumsum(sys_.a, axis=0)])
    offset = sys_.log_c - np.concatenate([[0.0], np.cumsum(sys_.b)])
    return _gia_objective(lambda x: offset + m @ x, sys_.log_c, m)


def _gia_objective(logits, log_c, m):
    """x -> (D(softmax(logits(x)) || c) in bits, its gradient m^T grad_z)."""
    ln2 = np.log(2.0)

    def objective_and_grad(x):
        c_hat = softmax(logits(x))
        ell = np.log(np.maximum(c_hat, 1e-300)) - log_c
        div = float(np.sum(c_hat * ell)) / ln2
        grad_z = c_hat * (ell - np.sum(c_hat * ell)) / ln2
        return div, m.T @ grad_z
    return objective_and_grad


def gia_row(objective_and_grad, x, step: float, max_iter: int,
            tol: float) -> tuple[np.ndarray, float, int, bool]:
    """A first-order projected descent on D(c_hat || c) over the box from x,
    for one prediction, on either form of the objective: a reference that
    shares no step with attack_gia's projected Newton method.

    A step is accepted when its objective is at most the largest of the last
    10 accepted ones, the start's included (Grippo, Lampariello & Lucidi
    1986), and a rejected one halves the step size. After each accepted step
    s (gradient change y) the next step size is the Barzilai-Borwein value
    s.s / s.y, or twice the last one where s.y <= 0, at most 1e30. Returns
    (x, KL bits, iterations, converged): converged once an accepted step
    moves x by less than tol, not at the max_iter cap or once the step size
    falls below 1e-16.
    """
    obj, grad = objective_and_grad(x)
    accepted = [obj]
    iters = 0
    for iters in range(1, max_iter + 1):
        cand = np.minimum(np.maximum(x - step * grad, 0.0), 1.0)
        cand_obj, cand_grad = objective_and_grad(cand)
        if cand_obj <= max(accepted[-10:]):
            dx, dg = cand - x, cand_grad - grad
            x, obj, grad = cand, cand_obj, cand_grad
            accepted.append(obj)
            if np.sqrt(dx.dot(dx)) < tol:
                return x, obj, iters, True
            ss, sy = dx.dot(dx), dx.dot(dg)
            # the cap is tested before dividing, so a tiny s.y cannot overflow
            step = min(2.0 * step, 1e30) if sy <= 0.0 else ss / sy if ss < 1e30 * sy else 1e30
        else:
            step *= 0.5
            if step < 1e-16:
                break
    return x, obj, iters, False


# --- helpers that no program path uses ------------------------------------
# The paper defines them; the tests keep them checked against the program.

def log_ratio_scores(c) -> np.ndarray:
    """Consecutive log ratios ln(c_{m+1}/c_m) along the last axis of the scores."""
    return np.diff(np.log(np.asarray(c, dtype=float)), axis=-1)


def total_variation(p, q) -> float | np.ndarray:
    """Half the l1 distance between probability vectors (or row pairs); in [0, 1]."""
    diff = np.abs(_check_prob(p, "p") - _check_prob(q, "q"))
    return _per_row(0.5 * np.sum(diff, axis=-1))


def cross_entropy(p, q, eps_clip: float = EPS_CLIP) -> float | np.ndarray:
    """H(p, q) = -sum p log2 q in bits per row pair, q clipped below at eps_clip."""
    p = _check_prob(p, "p")
    q = np.clip(_check_prob(q, "q"), eps_clip, None)
    return _per_row(-np.sum(p * np.log2(q), axis=-1))


def write_json(path, doc: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def transform_system(sys_: LinearSystem, r) -> LinearSystem:
    """Equivalent system (RA, Rb') for invertible R; the solution space is unchanged."""
    r = as_matrix(r)
    m = sys_.a.shape[0]
    if r.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}")
    if np.linalg.cond(r) > 1e12:
        raise ValueError("R is singular or too ill-conditioned")
    return LinearSystem(a=r @ sys_.a, b=(r @ sys_.b.T).T)


def noise_realization(plan: defense.NoisePlan, rng: np.random.Generator) -> np.ndarray:
    """Draw n = +-sqrt(alpha) v1 with a random sign: correlation exactly alpha v1 v1^T."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * np.sqrt(plan.alpha) * plan.v1


def pps1_h_objective(sys_: LinearSystem, k0, h) -> float:
    """d * MSE of the min-norm attack after revealing W_pas H^{-1}.

    Equals Tr((I + A^+A) K0) - 2 Tr(H A^+A K0); at the optimal H this is
    Tr((I + A^+A) K0) + 2 ||A^+A K0||_*. Divide by d for MSE per feature.
    """
    k0 = as_matrix(k0)
    proj = sys_.pinv @ sys_.a
    h = as_matrix(h)
    return float(np.trace((np.eye(sys_.d) + proj) @ k0) - 2.0 * np.trace(h @ proj @ k0))


def pps2_objective(sys_: LinearSystem, s) -> float:
    """Tr(A^+ J S J^T A^+T): the (unnormalized) MSE inflation for noise correlation S."""
    k = sys_.a.shape[0] + 1
    apj = sys_.pinv @ difference_matrix(k)
    return float(np.trace(apj @ as_matrix(s) @ apj.T))


def mse_under_noise(sys_: LinearSystem, s, k0) -> float:
    """Closed-form MSE of the min-norm attack under noise correlation S.

    (1/d) Tr((I - A^+A) K0) + (1/d) Tr(A^+ J S J^T A^+T); the second term is
    the non-negative degradation caused by the noisy scores.
    """
    k0 = as_matrix(k0)
    d = sys_.d
    clean = float(np.trace(sys_.projector @ k0)) / d
    return clean + pps2_objective(sys_, s) / d
