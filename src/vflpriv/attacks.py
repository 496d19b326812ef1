"""White-box reconstruction estimators plus the gradient-inversion baseline.

All attacks are pure functions of (system, config) and take a batch: a
system of N predictions gives N x d estimates in one call, and a one-row
system gives a d-vector. Every estimator also takes a batch of systems
whole, on one shared A or one A each, and gives each row the bits it gets
alone: a row's products are its own, in one batched np.matmul per product
(numerics._rowwise). rg and gia's random start draw from a seed: system i
(its flat index over b's axes before its last two) draws its rows in order
from np.random.default_rng(seed + i), one system from default_rng(seed). Every
estimator reads only A, b' and, for gia, the released scores' logs that
the system carries; none needs the model. The iterative solvers (the exact
dual Newton projection for rcc2, numerics.projected_newton for cls and gia,
a primal-dual interior point on rcc1's relaxation as a linear SDP) make one
call per batch (rcc1 one per block of at most _RCC1_BLOCK rows of one
nullity) on the rows they solve, each on its A (row_a), vectorized over
those not yet converged; one numerics.RowsError holds every failing row of
the batch, where gia warns.
The rows of a determined system (trivial nullspace) take the unique
solution A^+ b' in rcc1 and rcc2, as they do in ls; rcc2's projection
starts every other row at half_star. cls solves every row, so its answer
stays in the box where A^+ b' does not.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numerics
from .system import LinearSystem


class AttackError(numerics.RowsError):
    """Raised for non-finite estimates, and by rcc1 naming, as
    numerics.RowsError does, the rows whose gap ends above its floor. cls's
    and rcc2's capped solves raise numerics.ConvergenceError."""


class GiaConvergenceWarning(UserWarning):
    """gia left rows unconverged at its Newton step cap."""


@dataclass(frozen=True)
class AttackEstimate:
    """Reconstructions x_hat (d, or N x d) with solver diagnostics.

    system is the LinearSystem the estimate was computed on, left out of
    repr and ==; feasible is computed from it on its first read, so an
    estimate whose feasibility nobody reads never checks it. Per-row
    diagnostics have the batch shape (a scalar for one row).
    """

    x_hat: np.ndarray
    name: str
    system: LinearSystem = field(repr=False, compare=False)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "x_hat", np.asarray(self.x_hat, dtype=float))
        if not np.all(np.isfinite(self.x_hat)):
            raise AttackError(f"{self.name} produced non-finite estimates")

    @cached_property
    def feasible(self) -> bool:
        """True iff every row lies in its solution space intersected with the
        unit box; gia, which minimizes a divergence and so does not hold its
        rows to A x = b', checks the box only. Computed on the first read."""
        x = self.x_hat
        if self.name == "gia":
            return bool(np.all(x >= 0.0) and np.all(x <= 1.0))
        return bool(np.all(self.system.contains(x)))


def _estimate(sys_: LinearSystem, name: str, x: np.ndarray,
              **diagnostics) -> AttackEstimate:
    return AttackEstimate(x_hat=x, name=name, system=sys_, diagnostics=diagnostics)


def attack_half(sys_: LinearSystem) -> AttackEstimate:
    """Blind estimate: the center of the unit box, for every row."""
    return _estimate(sys_, "half", np.full(sys_.batch + (sys_.d,), 0.5))


def attack_zero(sys_: LinearSystem) -> AttackEstimate:
    """Baseline estimate of all zeros."""
    return _estimate(sys_, "zero", np.zeros(sys_.batch + (sys_.d,)))


def attack_random(sys_: LinearSystem, seed: int) -> AttackEstimate:
    """Random-guess baseline: uniform over the unit box, drawn from seed by
    the module's rule. One draw of a system's N x d rows yields the numbers
    that drawing them one after another would."""
    size, systems = sys_.b.shape[-2:-1] + (sys_.d,), math.prod(sys_.b.shape[:-2])
    x = [np.random.default_rng(seed + i).uniform(size=size) for i in range(systems)]
    return _estimate(sys_, "rg", np.reshape(x, sys_.batch + (sys_.d,)))


def attack_ls(sys_: LinearSystem) -> AttackEstimate:
    """Minimum-norm solution A^+ b' (the equation-solving baseline)."""
    return _estimate(sys_, "ls", sys_.min_norm_solution.copy())


def attack_clamped_ls(sys_: LinearSystem) -> AttackEstimate:
    """attack_ls with entries clamped to [0, 1]."""
    return _estimate(sys_, "clamped_ls", np.clip(sys_.min_norm_solution, 0.0, 1.0))


def attack_cls(sys_: LinearSystem) -> AttackEstimate:
    """Box-constrained least squares from the box center, on which the output
    depends: every row, a determined system's included, takes
    numerics.box_least_squares' Newton steps in one call, and gets the bits
    it gets alone. diagnostics["residual"] is each row's ||A x - b'||."""
    x = numerics.box_least_squares(sys_, np.arange(sys_.row_a.size))
    x = x.reshape(sys_.batch + (sys_.d,))
    return _estimate(sys_, "cls", x, residual=sys_.residual(x))


def attack_half_star(sys_: LinearSystem) -> AttackEstimate:
    """Closest point of the solution space to the box center: sys_.plane_center."""
    return _estimate(sys_, "half_star", sys_.plane_center.copy())


def attack_rcc2(sys_: LinearSystem) -> AttackEstimate:
    """Objective-relaxed Chebyshev center: the feasible point closest to the box center.

    Computed as the exact Euclidean projection of the box center onto the
    feasible set; unique, in the box and on the plane to rounding. Every
    row with a nullspace takes numerics.dykstra_project's dual Newton solve
    from half_star, in one call. diagnostics["projection"] is "closed_form"
    on rows of 0 steps (half_star in the box; A^+ b' for a determined
    system) and "newton" on the others, diagnostics["residual"] each row's
    ||A x - b'||, and diagnostics["iterations"] its Newton steps.
    """
    x = sys_.min_norm_solution.reshape(-1, sys_.d).copy()
    steps, batch = np.zeros(len(x), dtype=int), sys_.batch
    todo = np.flatnonzero(np.reshape(sys_.nullity, -1)[sys_.row_a])
    if todo.size:
        x[todo], steps[todo] = numerics.dykstra_project(sys_, todo)
    x = x.reshape(batch + (sys_.d,))
    return _estimate(sys_, "rcc2", x,
                     projection=np.where(steps, "newton", "closed_form").reshape(batch)[()],
                     residual=sys_.residual(x), iterations=steps.reshape(batch)[()])


# --- RCC1: search-space relaxation solved as a small SDP ------------------

_RCC1_GAP, _RCC1_FLOOR, _RCC1_DIVERGE, _RCC1_MAX_ITER = 1e-9, 1e-8, 1e3, 50
_RCC1_BLOCK = 1024      # the most rows one _rcc1_pd_solve call holds


def _rcc1_pd_solve(w, c):
    """Primal-dual interior point on each row's rcc1 relaxation, a linear SDP.

    w (n, d, p) holds each of n rows' own nullspace basis (orthonormal
    columns, whose rows are the a_i), and c (n, d) each row's c_i = q_i -
    1/2. The primal, with X = diag([[Z, z], [z^T, 1]], X_W), is attack_rcc1's
    relaxation in Delta = Z + X_W (Z = z z^T at the optimum): max tr(X_W)
    s.t. a_i^T Delta a_i + 2 c_i a_i^T z + c_i^2 <= 1/4. With V = [W, c] and
    e the last unit vector, its dual is

        min sigma + sum(alpha) / 4  s.t.  V^T diag(alpha) V + sigma e e^T >= 0,
                                          W^T diag(alpha) W >= I,  alpha >= 0.

    Each constraint matrix is rank one per block, so an HKM step (Helmberg,
    Rendl, Vanderbei & Wolkowicz 1996) solves a (d+1) x (d+1) Schur system
    per row. Mehrotra's steps, 0.95 of the way to the boundary, center by at
    least 0.1 (x is accurate to the gap on the central path, to its square
    root off it); a row stops at <X, S> <= _RCC1_GAP, or once a step fails
    to halve an <X, S> <= _RCC1_FLOOR, or once <X, S> passes _RCC1_DIVERGE
    times its first value (a plane off the box: the set is empty and the
    gap only grows); two Newton steps to the central point at _RCC1_GAP / 10
    of every row end the solve. X = F F^T and S = G G^T are kept as factors:
    with (lam, Q) the eigenpairs of F^-1 dX F^-T that give the step t, F
    becomes F Q (1 + t lam)^(1/2), so no iterate is factored. A row whose
    step is not finite, or whose Schur matrix is singular, stops where it
    is; every row stops after at most _RCC1_MAX_ITER steps. Steps run on a
    working set that holds only the live rows: a row goes back to the full
    state when it stops, and the set is gathered anew only when it shrinks.
    Every product (with w through numerics._rowwise) and sum is a row's own,
    so a row's z, dual value, <X, S> and steps depend on no other row.
    Returns them per row, and raises nothing: the caller judges <X, S>.
    """
    n, d, p = w.shape
    wc = numerics._rowwise(w.swapaxes(-1, -2), c)
    k = 2 * p + 1                       # X and S hold the V block, then the W block
    # A_j sums u u^T over row j of both blocks of u, plus e_j e_j^T for alpha_j
    u = np.zeros((n, 2 * d + 2, k))
    u[:, :d, :p], u[:, :d, p], u[:, d, p] = w, c, 1.0
    u[:, d + 1:-1, p + 1:] = w
    cmat = np.diag(np.repeat([0.0, 1.0], [p + 1, p]))
    b = np.append(np.full(d, 0.25), 1.0)

    def tr(z):
        return z.swapaxes(-1, -2)

    def weigh(y, ur):                   # y_j times both rows j of ur
        return (y[:, None, :, None] * ur.reshape(len(ur), 2, d + 1, k)).reshape(ur.shape)

    def slack(ur, v):                   # S = sum_j y_j A_j - C, less alpha's block
        return tr(ur) @ weigh(v[:, 1], ur) - cmat

    def inner(x, s, la):                # <X, S> per row, alpha's block included
        return (x * s).sum((1, 2)) + (la[:, 0] * la[:, 1]).sum(-1)

    # v = [[xl, 0], [alpha, sigma]] per row: alpha's slack beside alpha (la =
    # v[:, :, :d]) and y = v[:, 1]. alpha = 1.5 and sigma put M(alpha) - I and
    # the lifted block's Schur complement at I / 2: the one S ever factored
    # is well inside the cone
    v = np.zeros((n, 2, d + 1))
    v[:, 0, :d], v[:, 1, :d] = 0.5, 1.5
    v[:, 1, d] = 0.5 + 1.5 * ((wc * wc).sum(-1) - (c * c).sum(-1))
    xs = np.zeros((n, 2, k, k))         # X, then S^-1 (rewritten by every step)
    xs[:, 0] = np.eye(k) / 2
    s = slack(u, v)
    fac = np.stack([np.sqrt(xs[:, 0]), np.linalg.cholesky(s)], axis=1)
    # per row: the factors of X and S, their inverses, [X, S^-1], S, v, <X, S>
    state = [fac, np.linalg.inv(fac), xs, s, v, inner(xs[:, 0], s, v[:, :, :d])]

    # a row that overflows fails ok and stops; numpy need not warn of it
    @np.errstate(over="ignore", invalid="ignore")
    def step(ur, cur, mu):
        """Mehrotra's step of rows, or Newton's to X S = mu I; ok: finite rows."""
        fr, fir, xs, s, v, gap = cur
        x, s_inv, urt, firt = xs[:, 0], xs[:, 1], tr(ur), tr(fir)
        la, xl, al = v[:, :, :d], v[:, 0, :d], v[:, 1, :d]
        np.matmul(firt[:, 1], fir[:, 1], out=s_inv)
        ux, us = (ur[:, None] @ xs @ urt[:, None]).swapaxes(0, 1)
        schur = (ux * us).reshape(-1, 2, d + 1, 2, d + 1).sum(axis=(1, 3))
        schur.reshape(len(v), -1)[:, :d * (d + 2):d + 2] += xl / al  # alpha's diagonal
        a_s = us.diagonal(0, 1, 2).reshape(-1, 2, d + 1).sum(1)     # A(S^-1)
        dxs, dv = np.empty_like(xs), np.zeros_like(v)   # [dX, dS], [[dxl, 0], dy]
        dla, dy = dv[:, :, :d], dv[:, 1]

        def direction(target, corr, corr_l):
            """The HKM direction plus a correction, written to dxs and dv; ok is
            False where not finite. target has one row, or one per row."""
            t_al = target / al
            rhs = target * a_s - b      # A(X + dX) + xl + dxl = b; A(X) cancels
            rhs[:, :d] += t_al - corr_l
            if np.ndim(corr):
                rhs -= ((ur @ corr) * ur).sum(-1).reshape(-1, 2, d + 1).sum(1)
            try:
                dy[:] = np.linalg.solve(schur, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:   # row by row: a singular row gets NaN
                dy[:] = np.nan
                for i in range(len(v)):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        dy[i] = np.linalg.solve(schur[i], rhs[i])
            ok = np.isfinite(dy).all(-1)
            if not ok.all():
                dy[~ok] = 0.0
            ds = np.matmul(urt, weigh(dy, ur), out=dxs[:, 1])
            h = x @ ds @ s_inv + corr
            np.subtract(target[..., None] * s_inv - x, 0.5 * (h + tr(h)), out=dxs[:, 0])
            np.subtract(t_al - xl - xl * dy[:, :d] / al, corr_l, out=dla[:, 0])
            scaled = fir @ dxs @ firt
            # a non-finite correction (an overflowing row) ends its row too
            ok &= np.isfinite(scaled).all((1, 2, 3)) & np.isfinite(dla[:, 0]).all(-1)
            if not ok.all():
                scaled[~ok] = 0.0
            return scaled, ok

        def length(lam):                # primal and dual steps 0.95 of the way
            low = np.minimum(lam[..., 0], (dla / la).min(-1))
            return -0.95 / np.minimum(low, -0.95)

        corr = corr_l = 0.0
        if mu is None:
            t = length(np.linalg.eigvalsh(direction(np.zeros((1, 1)), 0.0, 0.0)[0]))
            mu = gap[:, None] / (k + d)
            mu_aff = inner(x + t[:, :1, None] * dxs[:, 0], s + t[:, 1:, None] * dxs[:, 1],
                           la + t[..., None] * dla)[:, None] / (k + d)
            mu *= np.maximum((mu_aff / mu) ** 3, 0.1)
            corr, corr_l = dxs[:, 0] @ dxs[:, 1] @ s_inv, dla[:, 0] * dla[:, 1] / al
        scaled, ok = direction(mu, corr, corr_l)
        lam, vec = np.linalg.eigh(scaled)
        t = length(lam)
        root = np.sqrt(1.0 + t[..., None] * lam)
        fr, fir = fr @ vec * root[..., None, :], tr(vec) @ fir / root[..., None]
        v, xs = v + t[..., None] * dv, np.empty_like(xs)
        x, s = np.matmul(fr[:, 0], tr(fr[:, 0]), out=xs[:, 0]), slack(ur, v)
        return [fr, fir, xs, s, v, inner(x, s, v[:, :, :d])], ok

    # live rows step on their own arrays (cur); a row that stops, or fails
    # to step, goes back to the full state, and cur shrinks to the rest
    gap, steps = state[-1], np.full(n, _RCC1_MAX_ITER)
    live, cur, ur, limit = np.arange(n), state, u, _RCC1_DIVERGE * gap
    for i in range(_RCC1_MAX_ITER):
        if not live.size:
            break
        new, ok = step(ur, cur, None)
        moved = ok & ~((cur[-1] <= _RCC1_FLOOR) & ~(new[-1] <= 0.5 * cur[-1]))
        keep = moved & (new[-1] > _RCC1_GAP) & ~(new[-1] > limit)
        if not keep.all():              # a row that failed to step keeps its iterate
            for sel, src, took in ((~moved, cur, i), (moved & ~keep, new, i + 1)):
                if sel.any():
                    steps[live[sel]] = took
                    for a, sv in zip(state, src):
                        a[live[sel]] = sv[sel]
            new, ur, limit, live = [nv[keep] for nv in new], ur[keep], limit[keep], live[keep]
        cur = new
    for a, nv in zip(state, cur):       # rows at the step cap
        a[live] = nv
    for _ in range(2):
        new, ok = step(u, state, np.full((1, 1), 0.1 * _RCC1_GAP / (k + d)))
        go = ok & (new[-1] <= _RCC1_FLOOR)
        if go.all():
            state = new
        else:
            for a, nv in zip(state, new):
                a[go] = nv[go]
    return state[2][:, 0, :p, p], (state[4][:, 1] * b).sum(-1), state[-1], steps


def attack_rcc1(sys_: LinearSystem) -> AttackEstimate:
    """Search-space-relaxed Chebyshev center (SDP route), solved in blocks of
    at most _RCC1_BLOCK rows of one nullity.

    In nullspace coordinates x = q + W z, _rcc1_pd_solve solves Beck & Eldar's
    relaxation to a gap <X, S> (diagnostics["gap"]; ["iterations"] counts
    steps) of 1e-10, or 1e-8 where rounding stalls. x comes from its primal
    iterate's z, the radius (above the exact one) from its dual value. The
    SDP has size 2p + 1 for nullity p: the rows of a batch's systems of one
    nullity share a solve per block of _RCC1_BLOCK rows, each row on its own
    A's basis W, which bounds the memory a solve holds; a row's results are
    its own, so the blocks change no bit. A determined system's rows take
    A^+ b' (radius, gap and steps 0). Once every nullity is solved, one
    AttackError names every row of the batch whose gap ends above 1e-8, by
    its index in the flattened batch.
    """
    x, own, batch = sys_.min_norm_solution.reshape(-1, sys_.d).copy(), sys_.row_a, sys_.batch
    nullity, v = np.reshape(sys_.nullity, -1)[own], sys_.svd.v.reshape(-1, sys_.d, sys_.d)
    (value, gap), steps = np.zeros((2, len(x))), np.zeros(len(x), dtype=int)
    for p in sorted(set(nullity.tolist()) - {0}):
        rows = np.flatnonzero(nullity == p)
        for of in np.split(rows, range(_RCC1_BLOCK, rows.size, _RCC1_BLOCK)):
            w = v[own[of], :, -p:]      # each row's nullspace basis; a_i^T are its rows
            z, value[of], gap[of], steps[of] = _rcc1_pd_solve(w, x[of] - 0.5)
            x[of] += numerics._rowwise(w, z)
    bad = np.flatnonzero(~(gap <= _RCC1_FLOOR))
    if bad.size:
        gaps = " ".join(f"{g:.3e}" for g in gap[bad])
        raise AttackError(f"rcc1 {{rows}} end with gaps {gaps} above "
                          f"{_RCC1_FLOOR:g} in at most {_RCC1_MAX_ITER} steps", bad)
    return _estimate(sys_, "rcc1", x.reshape(batch + (sys_.d,)),
                     radius=np.sqrt(value).reshape(batch)[()], gap=gap.reshape(batch)[()],
                     iterations=steps.reshape(batch)[()])


# gia's Newton step cap per row, which tests patch to reach GiaConvergenceWarning
_GIA_MAX_ITER = 500


def attack_gia(sys_: LinearSystem, init: str = "half", seed: int = 0) -> AttackEstimate:
    """Gradient-inversion baseline: projected Newton on D(c_hat || c) over the box.

    The model enters only through the system: with r = A x - b', the logits
    at x are log c + [0, cumsum(r)] up to a constant that softmax ignores,
    that is log c + M x - [0, cumsum(b')] with M = [0; cumsum(A)], one per
    A (sys_.row_a). So gia needs the system's log_c (ValueError without
    them). init selects the start: "zeros", "half" or "random" (attack_random's
    draw from seed). Every row takes numerics.projected_newton's steps at
    once on the KL in bits, with the Gauss-Newton curvature R^T diag(c_hat)
    R / ln 2, R = M - 1 (M^T c_hat)^T, so from "half" a clean row moves in
    1/2 + range(A^T). The KL takes its logs from each row's top class with
    expm1 and log1p, and sums a row's classes in order, so a row gets its
    lone bits and no step raises its KL. A row has converged once its
    search reaches a move under 1e-12. diagnostics: "kl_bits" and
    "converged" per row and "iterations", the rows' total Newton steps; if
    a row did not converge within _GIA_MAX_ITER steps, one
    GiaConvergenceWarning gives their count and their largest final KL in
    bits.
    """
    if init not in ("zeros", "half", "random"):
        raise ValueError(f"unknown init mode {init!r}")
    if sys_.log_c is None:
        raise ValueError("gia needs the released scores: this system has no log_c")
    d, batch, k, ln2 = sys_.d, sys_.batch, sys_.log_c.shape[-1], math.log(2.0)
    rowwise = numerics._rowwise
    log_c = sys_.log_c.reshape(-1, k)
    c = np.exp(log_c)
    m = np.cumsum(np.insert(sys_.a, 0, 0.0, axis=-2), axis=-2).reshape(-1, k, d)[sys_.row_a]
    mt = m.swapaxes(-1, -2)
    shift = np.cumsum(np.insert(sys_.b.reshape(-1, k - 1), 0, 0.0, axis=1), axis=1)
    x = (attack_random(sys_, seed).x_hat.reshape(-1, d) if init == "random"
         else np.full((len(c), d), 0.5 if init == "half" else 0.0))

    total = numerics._total

    def kl(x, rows):
        """c_hat, log(c_hat / c) = r - log sum c e^r and D(c_hat || c) in nats
        of rows at x, whose logits are log c + r, r = M x - [0, cumsum(b')]."""
        cr = c[rows]
        r = rowwise(m[rows], x) - shift[rows]
        top = np.argmax(log_c[rows] + r, axis=-1)[:, None]
        rel = r - np.take_along_axis(r, top, -1)
        q = total(cr * np.exp(rel))
        q_minus_1 = total(cr * np.expm1(rel)) + (total(cr) - 1.0)
        log_q = np.where(q > 0.5, np.log1p(np.maximum(q_minus_1, -0.5)), np.log(q))
        ell = rel - log_q[:, None]
        c_hat = cr * np.exp(ell)
        return c_hat, ell, total(c_hat * ell)

    def model(i, x):
        """The KL's gradient in bits, R^T diag(c_hat) R / ln 2 and the KL's change."""
        c_hat, ell, f = kl(x, i)
        mti = mt[i]
        rt = mti - rowwise(mti, c_hat)[..., None]           # R^T per row
        return (rowwise(mti, c_hat * (ell - f[:, None])) / ln2,
                (rt * c_hat[:, None, :]) @ rt.swapaxes(-1, -2) / ln2,
                lambda j, xt: (kl(xt, i[j])[2] - f[j]) / ln2)

    x, steps, stuck = numerics.projected_newton(x, model, _GIA_MAX_ITER)
    f = kl(x, np.arange(len(x)))[2] / ln2
    converged = np.isin(np.arange(len(x)), stuck, invert=True)
    if stuck.size:
        warnings.warn(f"gia: {stuck.size} of {len(x)} rows did not converge in "
                      f"{_GIA_MAX_ITER} steps; the largest final KL among them is "
                      f"{f[stuck].max():.3e} bits", GiaConvergenceWarning, stacklevel=2)
    return _estimate(sys_, "gia", x.reshape(batch + (d,)), kl_bits=f.reshape(batch)[()],
                     iterations=int(steps.sum()), converged=converged.reshape(batch)[()],
                     init=init)


def _alone(attack):
    """attack, which takes the system alone, as an entry of _BY_NAME."""
    return lambda sys_, init, seed: attack(sys_)


# every name run_attack accepts, each with its call on (system, init, seed)
_BY_NAME = {"half": _alone(attack_half), "half_star": _alone(attack_half_star),
            "ls": _alone(attack_ls), "clamped_ls": _alone(attack_clamped_ls),
            "cls": _alone(attack_cls), "rcc1": _alone(attack_rcc1),
            "rcc2": _alone(attack_rcc2), "zero": _alone(attack_zero),
            "rg": lambda sys_, init, seed: attack_random(sys_, seed),
            "gia": lambda sys_, init, seed: attack_gia(sys_, init=init, seed=seed)}
ATTACKS = tuple(_BY_NAME)


def run_attack(name: str, sys_: LinearSystem, *, init: str = "half",
               seed: int = 0) -> AttackEstimate:
    """Dispatch an attack by name over every row of sys_, one system or a
    batch of them.

    rg draws from seed; gia takes init (seed for its random start) and needs
    the system's log_c.
    """
    if name not in _BY_NAME:
        raise ValueError(f"unknown attack {name!r}")
    return _BY_NAME[name](sys_, init, seed)
