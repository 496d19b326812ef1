"""Evaluation: per-feature MSE (empirical and closed form), bounds and divergences.

The closed forms tie the min-norm and box-center estimators to second-moment
matrices of the passive features; eigenvalue trace bounds bracket them without
knowing the nullspace orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .dataset import Dataset
from .model import VflModel, VflSplit, predict
from .system import LinearSystem, build_system
from .attacks import run_attack

_PSD_SLACK = -1e-8
EPS_CLIP = 1e-12


class MetricsError(Exception):
    """Raised for inconsistent shapes or invalid probability vectors."""


@dataclass(frozen=True)
class MomentMatrices:
    """Second moments of the passive features about 0, the box center and the mean."""

    k0: np.ndarray       # E[X X^T]
    k_half: np.ndarray   # E[(X - 1/2)(X - 1/2)^T]
    k_mu: np.ndarray     # covariance about mu
    mu: np.ndarray

    def __post_init__(self):
        for name in ("k0", "k_half", "k_mu"):
            m = numerics.as_matrix(getattr(self, name))
            object.__setattr__(self, name, 0.5 * (m + m.T))
            if float(np.linalg.eigvalsh(getattr(self, name))[0]) < _PSD_SLACK:
                raise MetricsError(f"{name} is not positive semidefinite")
        object.__setattr__(self, "mu", numerics.as_vector(self.mu))


@dataclass(frozen=True)
class MseReport:
    """Closed-form MSE values for one system with their eigenvalue bracket."""

    attack: str
    d: int
    closed_form: float
    lower: float
    upper: float
    mu_lower: float

    def __post_init__(self):
        if not (self.lower - 1e-9 <= self.closed_form <= self.upper + 1e-9):
            raise MetricsError(
                f"{self.attack}: closed form {self.closed_form} escapes "
                f"[{self.lower}, {self.upper}]")


def empirical_mse(truths, estimates) -> float:
    """(1/(N d)) sum_i ||x_i - x_hat_i||^2 over paired rows."""
    truths = np.atleast_2d(np.asarray(truths, dtype=float))
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    if truths.shape != estimates.shape:
        raise MetricsError("truths and estimates disagree in shape")
    return float(np.sum((truths - estimates) ** 2) / truths.size)


def moments(ds: Dataset, feature_subset=None) -> MomentMatrices:
    """Sample moments over all rows, restricted to the given feature columns."""
    if ds.n == 0:
        raise MetricsError("empty dataset")
    cols = list(feature_subset) if feature_subset is not None else list(range(ds.d_t))
    x = ds.x[:, cols]
    n = x.shape[0]
    mu = x.mean(axis=0)
    xc = x - 0.5
    xm = x - mu
    return MomentMatrices(k0=x.T @ x / n, k_half=xc.T @ xc / n,
                          k_mu=xm.T @ xm / n, mu=mu)


def closed_form_mse(sys_: LinearSystem, mom: MomentMatrices
                          ) -> dict[str, MseReport]:
    """Closed-form MSE of the min-norm (ls) and box-center (half_star) estimators.

    MSE(ls) = Tr((I - A^+A) K0) / d and likewise with K_half for half_star.
    Each is bracketed by the sums of the moment matrix's p smallest and p
    largest eigenvalues, p = nul(A) (von Neumann's trace inequality, as
    I - A^+A has p eigenvalues 1 and d - p eigenvalues 0), and lower-bounded
    by Tr((I - A^+A) K_mu) / d.
    I - A^+A is W W^T for the nullspace basis W, and each trace is taken on
    W: a determined system (W is d x 0) gets exactly 0.0 in every field,
    where I - A^+A holds rounding noise of either sign.
    """
    numerics.reject_stack(sys_.a, "closed_form_mse takes one system")
    d = sys_.d
    w = sys_.svd.nullspace()
    p = w.shape[1]
    mu_lower = float(np.trace(w.T @ mom.k_mu @ w)) / d
    out = {}
    for attack, km in (("ls", mom.k0), ("half_star", mom.k_half)):
        closed = float(np.trace(w.T @ km @ w)) / d
        # ascending; K is PSD, so an eigenvalue below 0 is rounding noise
        ev = np.maximum(np.linalg.eigvalsh(km), 0.0)
        out[attack] = MseReport(attack=attack, d=d, closed_form=closed,
                                lower=float(np.sum(ev[:p])) / d,
                                upper=float(np.sum(ev[d - p:])) / d,
                                mu_lower=mu_lower)
    return out


def _check_prob(p, name: str) -> np.ndarray:
    """p as one probability vector (k) or N of them (N x k), each row checked."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] < 2:
        raise MetricsError(f"{name} must be k or N x k with k >= 2, got {p.shape}")
    # written so that a NaN entry fails the row
    bad = ~(np.all(p >= -1e-9, axis=-1) & (np.abs(p.sum(axis=-1) - 1.0) <= 1e-6))
    if np.any(bad):
        raise MetricsError(f"{name} is not a probability vector "
                           f"(row {np.argmax(bad)})")
    return np.clip(p, 0.0, None)


def _per_row(values: np.ndarray) -> float | np.ndarray:
    """A float for one pair of vectors, the length-N array for N pairs."""
    return float(values) if values.ndim == 0 else values


def kl_divergence(p, q) -> float | np.ndarray:
    """D(p || q) in bits, each q_j raised to EPS_CLIP, or to p_j where p_j is
    smaller: a float, or N for N x k rows. So D(p || p) is exactly 0, and the
    floor never makes a term negative; a sum below 0 reads 0, as the floor
    only lowers terms and D is at least 0."""
    p, q = _check_prob(p, "p"), _check_prob(q, "q")
    if p.shape != q.shape:
        raise MetricsError(f"p {p.shape} and q {q.shape} differ in shape")
    p1 = np.where(p > 0.0, p, 1.0)      # terms with p = 0 contribute exactly 0
    terms = p * np.log2(p1 / np.maximum(q, np.minimum(p1, EPS_CLIP)))
    return _per_row(np.maximum(np.sum(terms, axis=-1), 0.0))


def stack_mse(model: VflModel, y_act, c, x_pas, attacks, labels: list[str], seed: int,
              init: str, source: str) -> dict[str, np.ndarray]:
    """{attack: its mean per-feature MSE on each system of a batch}: one
    build_system (checked as source says) of model, shared or a stack, on
    the rows y_act and released scores c (S x N x .), one run_attack per
    estimator (system i draws from default_rng(seed + i)), truths x_pas
    (S x N x d, or N x d for all). A numerics.RowsError comes back as
    raised, its labels set so that it names row i as a row of labels[i // N]."""
    try:
        sys_ = build_system(model, y_act, c, source=source)
        x_hat = {name: run_attack(name, sys_, init=init, seed=seed).x_hat
                 for name in attacks}
    except numerics.RowsError as exc:
        exc.labels = (labels, c.shape[-2])
        raise
    size = c.shape[-2] * x_pas.shape[-1]
    return {name: np.sum((x_pas - x_hat[name]) ** 2, axis=(-2, -1)) / size for name in attacks}


def attack_mse_on_rows(model: VflModel, splits, ds: Dataset, rows, attacks, seed: int,
                       init: str = "half") -> dict[str, np.ndarray]:
    """{attack: its mean per-feature MSE over the sample rows on each of S windows}.

    splits are S >= 1 passive windows of one d over the model's d_t features.
    The weights, put in column order by one VflModel.window call, and the
    rows gather onto a leading window axis (y_act S x N x (d_t - d), the
    weights S x k x .) for one predict, and stack_mse scores the stack of
    their clean systems: split i draws from default_rng(seed + i), and every
    window gets the bits it gets alone. A failure names its rows as rows of
    "window start=<its first passive feature>".
    """
    rows = np.asarray(rows, dtype=int)
    if rows.ndim != 1 or rows.size == 0:
        raise MetricsError("need a non-empty list of sample rows")
    if len(set(attacks)) != len(attacks):
        raise MetricsError(f"attack names repeat: {list(attacks)}")
    d_t = model.split.d_t
    if len({s.d for s in splits}) != 1 or {s.d_t for s in splits} != {d_t}:
        named = "; ".join(f"{list(s.passive)} of {s.d_t}" for s in splits)
        raise MetricsError(f"need window splits of one d over the model's {d_t} features, "
                           f"got [{named}]")
    w = model.window(VflSplit.contiguous(d_t, 0, d_t)).w_pas     # k x d_t
    act = np.array([s.active for s in splits], dtype=int)[:, None]
    pas = np.array([s.passive for s in splits])[:, None]
    at, classes = rows[None, :, None], np.arange(model.k)[:, None]
    y_act, x_pas = ds.x[at, act], ds.x[at, pas]
    stack = VflModel(w[classes, act], w[classes, pas], model.b, model.k, splits[0])
    return stack_mse(stack, y_act, predict(stack, y_act, x_pas), x_pas, attacks,
                     [f"window start={s.passive[0]}" for s in splits], seed, init, "clean")


def average_over_space(model: VflModel, ds: Dataset, d: int, attacks,
                       n_pred: int = 1000, seed: int = 0) -> dict[str, float]:
    """Mean MSE of each named attack over all d_t contiguous passive windows (mod d_t).

    Window s gives features {s, ..., s+d-1 mod d_t} to the passive party.
    Every attack runs on each window over up to n_pred test predictions.
    All d_t windows go through one attack_mse_on_rows call, as one stacked
    system, in start order, so window s draws from the generator seeded
    with seed + s. Returns {attack: mean of the d_t window MSE values}.
    """
    if d > ds.d_t:
        raise MetricsError("passive dimension exceeds the feature count")
    rows = np.flatnonzero(ds.test_mask)[:n_pred]
    splits = [VflSplit.contiguous(ds.d_t, s, d) for s in range(ds.d_t)]
    mse = attack_mse_on_rows(model, splits, ds, rows, attacks, seed)
    return {name: float(np.mean(mse[name])) for name in attacks}
