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
a primal-dual interior point on the dual of rcc1's relaxation) make one
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


# --- RCC1: search-space relaxation solved through its dual ---------------

_RCC1_GAP, _RCC1_FLOOR, _RCC1_DIVERGE, _RCC1_MAX_ITER = 1e-9, 1e-8, 1e3, 50
_RCC1_BLOCK = 1024      # the most rows one _rcc1_pd_solve call holds


def _rcc1_pd_solve(w, c):
    """Primal-dual interior point on Beck & Eldar's dual of each row's rcc1
    relaxation, its lifted block eliminated.

    w (n, d, p) holds each of n rows' own nullspace basis W (orthonormal
    columns, whose rows are the a_i), c (n, d) each row's c = q - 1/2. In x
    = q + W z the relaxation is max tr(Z) s.t. r_i^2 + a_i^T Z a_i <= 1/4, r
    = c + W z, Z >= 0; with M = W^T diag(alpha) W its dual, z = -M^-1 W^T
    diag(alpha) c, is min f(alpha) = sum(alpha (1/4 - r^2)) s.t. S = M - I
    >= 0, alpha >= 0, with multipliers Z and lambda (the constraints' slack)
    and gap alpha^T lambda + <Z, S>. An HKM step (Helmberg, Rendl, Vanderbei
    & Wolkowicz 1996) solves one d x d system per row: K dalpha = mu (1 /
    alpha + diag(W S^-1 W^T)) - (1/4 - r^2) less Mehrotra's corrections, K
    = 2 D_r W M^-1 W^T D_r + diag(lambda / alpha) + (W Z W^T) o (W S^-1
    W^T). Mehrotra's steps, 0.95 of the way to the boundary, center at 0.1,
    the affine direction only supplying the corrections (z is accurate to
    the gap on the central path, to its square root off it); a row stops at
    a gap <= _RCC1_GAP, or once a step fails to halve a gap <= _RCC1_FLOOR,
    or once the gap passes _RCC1_DIVERGE times its first value (a plane off
    the box: the set is empty and the gap only grows); two Newton steps to
    the central point at _RCC1_GAP / 100 of every row end the solve. Z = F
    F^T and S = G G^T are kept as factors: with (lam, Q) the eigenpairs of
    F^-1 dZ F^-T that give the step t, F becomes F Q (1 + t lam)^(1/2), so
    no iterate is factored, and that eigh is a step's only one. A row whose
    step is not finite, or whose Newton matrix is singular, stops where it
    is; every row stops after at most _RCC1_MAX_ITER steps. Steps run on a
    working set of the live rows: a row goes back to the full state when it
    stops, and the set is gathered anew only when it shrinks. Every product
    (with w through numerics._rowwise) and sum is a row's own, so a row's z,
    dual value f(alpha), gap and steps depend on no other row. Returns them
    per row, and raises nothing: the caller judges the gap.
    """
    n, d, p = w.shape
    rowwise, eye = numerics._rowwise, np.eye(p)

    def tr(z):
        return z.swapaxes(-1, -2)

    def slack(w, al):                   # S = M - I
        return tr(w) @ (al[..., None] * w) - eye

    def inner(zs, v):                   # <Z, S> + lambda^T alpha per row
        return (zs[:, 0] * zs[:, 1]).sum((1, 2)) + (v[:, 0] * v[:, 1]).sum(-1)

    # v = [lambda, alpha] per row. alpha = 1.5 puts S at I / 2, the one S
    # ever factored, well inside the cone; Z starts at I / 2 and lambda at 1/2
    v = np.broadcast_to([[0.5], [1.5]], (n, 2, d)).copy()
    zs = np.stack([np.broadcast_to(eye / 2, (n, p, p)), slack(w, v[:, 1])], 1)    # [Z, S]
    fac = np.stack([np.sqrt(zs[:, 0]), np.linalg.cholesky(zs[:, 1])], axis=1)
    # per row: the factors of Z and S, their inverses, [Z, S], v and the gap
    state = [fac, np.linalg.inv(fac), zs, v, inner(zs, v)]

    # a row that overflows fails ok and stops; numpy need not warn of it
    @np.errstate(over="ignore", invalid="ignore")
    def step(w, c, cur, mu):
        """Mehrotra's step of rows, or Newton's to Z S = mu I; ok: finite rows."""
        fr, fir, zs, v, gap = cur
        zz, s, la, al = zs[:, 0], zs[:, 1], v[:, 0], v[:, 1]
        wt, s_inv = tr(w), tr(fir[:, 1]) @ fir[:, 1]
        mats = np.stack([np.linalg.inv(s + eye), zz, s_inv], 1)
        wmw, wzw, wsw = (w[:, None] @ mats @ wt[:, None]).swapaxes(0, 1)    # W M^-1 W^T, ...
        r = c - rowwise(wmw, al * c)    # c + W z
        schur = 2.0 * r[:, :, None] * wmw * r[:, None, :] + wzw * wsw
        la_al = la / al
        schur.reshape(len(v), -1)[:, ::d + 1] += la_al
        barrier, grad = 1.0 / al + wsw.diagonal(0, 1, 2), 0.25 - r * r
        dzs, dv = np.empty_like(zs), np.empty_like(v)   # [dZ, dS], [dlambda, dalpha]

        def direction(target, corr, corr_l):
            """The HKM direction plus a correction, written to dzs and dv.
            target has one row, or one per row."""
            rhs = target * barrier - grad
            if np.ndim(corr):
                rhs -= corr_l / al + ((w @ corr) * w).sum(-1)
            try:
                dv[:, 1] = np.linalg.solve(schur, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:   # row by row: a singular row gets NaN
                dv[:, 1] = np.nan
                for i in range(len(v)):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        dv[i, 1] = np.linalg.solve(schur[i], rhs[i])
            da = dv[:, 1]
            ds = np.matmul(wt, da[..., None] * w, out=dzs[:, 1])
            h = zz @ ds @ s_inv + corr
            np.subtract(target[..., None] * s_inv - zz, 0.5 * (h + tr(h)), out=dzs[:, 0])
            np.subtract((target - corr_l) / al - la, la_al * da, out=dv[:, 0])

        corr = corr_l = 0.0
        if mu is None:                  # the affine direction gives the corrections
            direction(np.zeros((1, 1)), 0.0, 0.0)
            mu = gap[:, None] / (p + d)
            mu *= 0.1
            corr, corr_l = dzs[:, 0] @ dzs[:, 1] @ s_inv, dv[:, 0] * dv[:, 1]
        direction(mu, corr, corr_l)
        scaled = fir @ dzs @ tr(fir)
        # a non-finite dalpha or correction (an overflowing row) ends its row
        ok = np.isfinite(scaled).all((1, 2, 3)) & np.isfinite(dv[:, 0]).all(-1)
        scaled[~ok] = 0.0
        lam, vec = np.linalg.eigh(scaled)
        # primal and dual steps 0.95 of the way to the boundary
        t = -0.95 / np.minimum(np.minimum(lam[..., 0], (dv / v).min(-1)), -0.95)
        root = np.sqrt(1.0 + t[..., None] * lam)
        fr, fir = fr @ vec * root[..., None, :], tr(vec) @ fir / root[..., None]
        v, zs = v + t[..., None] * dv, np.empty_like(zs)
        np.matmul(fr[:, 0], tr(fr[:, 0]), out=zs[:, 0])
        zs[:, 1] = slack(w, v[:, 1])
        return [fr, fir, zs, v, inner(zs, v)], ok

    # live rows step on their own arrays (cur); a row that stops, or fails
    # to step, goes back to the full state, and cur shrinks to the rest
    gap, steps = state[-1], np.full(n, _RCC1_MAX_ITER)
    live, cur, wr, cr, limit = np.arange(n), state, w, c, _RCC1_DIVERGE * gap
    for i in range(_RCC1_MAX_ITER):
        if not live.size:
            break
        new, ok = step(wr, cr, cur, None)
        moved = ok & ~((cur[-1] <= _RCC1_FLOOR) & ~(new[-1] <= 0.5 * cur[-1]))
        keep = moved & (new[-1] > _RCC1_GAP) & ~(new[-1] > limit)
        if not keep.all():              # a row that failed to step keeps its iterate
            for sel, src, took in ((~moved, cur, i), (moved & ~keep, new, i + 1)):
                if sel.any():
                    steps[live[sel]] = took
                    for a, sv in zip(state, src):
                        a[live[sel]] = sv[sel]
            new, wr, cr, limit, live = ([nv[keep] for nv in new], wr[keep], cr[keep],
                                        limit[keep], live[keep])
        cur = new
    for a, nv in zip(state, cur):       # rows at the step cap
        a[live] = nv
    for _ in range(2):
        new, ok = step(w, c, state, np.full((1, 1), 0.01 * _RCC1_GAP / (p + d)))
        go = ok & (new[-1] <= _RCC1_FLOOR)
        for a, nv in zip(state, new):
            a[go] = nv[go]
    al = state[3][:, 1]
    z = -rowwise(np.linalg.inv(state[2][:, 1] + eye), rowwise(tr(w), al * c))
    r = c + rowwise(w, z)
    # f(alpha) is at least the optimum, 0 or more; rounding takes it below 0
    # on rows whose set is one point
    return z, np.maximum((al * (0.25 - r * r)).sum(-1), 0.0), state[-1], steps


def attack_rcc1(sys_: LinearSystem) -> AttackEstimate:
    """Search-space-relaxed Chebyshev center (SDP route), solved in blocks of
    at most _RCC1_BLOCK rows of one nullity.

    In nullspace coordinates x = q + W z, _rcc1_pd_solve solves Beck & Eldar's
    relaxation to a gap (diagnostics["gap"]; ["iterations"] counts steps) of
    about 1e-11, or 1e-8 where rounding stalls: x from its dual iterate's z,
    the radius (above the exact one) from its dual value. The rows of a
    batch's systems of one nullity share a solve per block, each row on its
    own A's basis W, which bounds the memory a solve holds; a row's results
    are its own, so the blocks change no bit. A determined system's rows
    take A^+ b' (radius, gap and steps 0). Once every nullity is solved, one
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
    once on the KL in bits; each step's model evaluates kl at the row's
    iterate, with the Gauss-Newton factor B = diag(h) R, h =
    sqrt(c_hat / ln 2) and R = M - 1 (M^T c_hat)^T, so from "half" a clean
    row moves in 1/2 + range(A^T). The KL takes its logs from each row's top
    class with expm1 and log1p, and sums a row's classes in order, so a row
    gets its lone bits and no step raises its KL. A row has converged once
    its search reaches a move under 1e-12. diagnostics: "kl_bits" and
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
    log_c = sys_.log_c.reshape(-1, k)
    c = np.exp(log_c)
    m = np.cumsum(np.insert(sys_.a, 0, 0.0, axis=-2), axis=-2).reshape(-1, k, d)[sys_.row_a]
    shift = np.cumsum(np.insert(sys_.b.reshape(-1, k - 1), 0, 0.0, axis=1), axis=1)
    x = (attack_random(sys_, seed).x_hat.reshape(-1, d) if init == "random"
         else np.full((len(c), d), 0.5 if init == "half" else 0.0))

    total = numerics._total

    def kl(x, rows):
        """c_hat, log(c_hat / c) = r - log sum c e^r and D(c_hat || c) in nats
        of rows at x, whose logits are log c + r, r = M x - [0, cumsum(b')]."""
        cr = c[rows]
        r = numerics._rowwise(m[rows], x) - shift[rows]
        top = np.argmax(log_c[rows] + r, axis=-1)[:, None]
        rel = r - np.take_along_axis(r, top, -1)
        q = total(cr * np.exp(rel))
        q_minus_1 = total(cr * np.expm1(rel)) + (total(cr) - 1.0)
        log_q = np.where(q > 0.5, np.log1p(np.maximum(q_minus_1, -0.5)), np.log(q))
        ell = rel - log_q[:, None]
        c_hat = cr * np.exp(ell)
        return c_hat, ell, total(c_hat * ell)

    def model(i, x):
        """B, y = h (ell - f) and the KL's change, in bits, from kl at x."""
        c_hat, ell, f = kl(x, i)
        h, mi = np.sqrt(c_hat / ln2), m[i]
        b = h[:, :, None] * (mi - c_hat[:, None, :] @ mi)   # diag(h) R per row
        return b, h * (ell - f[:, None]), lambda j, xt: (kl(xt, i[j])[2] - f[j]) / ln2

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
