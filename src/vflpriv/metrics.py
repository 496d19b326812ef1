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


@dataclass
class MomentMatrices:
    """Second moments of the passive features about 0, the box center and the mean."""

    k0: np.ndarray       # E[X X^T]
    k_half: np.ndarray   # E[(X - 1/2)(X - 1/2)^T]
    k_mu: np.ndarray     # covariance about mu
    mu: np.ndarray

    def __post_init__(self):
        for name in ("k0", "k_half", "k_mu"):
            m = numerics.as_matrix(getattr(self, name))
            setattr(self, name, 0.5 * (m + m.T))
            if float(np.linalg.eigvalsh(getattr(self, name))[0]) < _PSD_SLACK:
                raise MetricsError(f"{name} is not positive semidefinite")
        self.mu = numerics.as_vector(self.mu)


@dataclass
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
    Each is bracketed by sums of the smallest/largest nul(A) eigenvalues of
    the moment matrix, and lower-bounded by Tr((I - A^+A) K_mu) / d.
    """
    d = sys_.d
    proj = sys_.projector
    mu_lower = float(np.trace(proj @ mom.k_mu)) / d
    out = {}
    for attack, km in (("ls", mom.k0), ("half_star", mom.k_half)):
        closed = float(np.trace(proj @ km)) / d
        lower, upper = numerics.von_neumann_bounds(proj, km)
        out[attack] = MseReport(attack=attack, d=d, closed_form=closed,
                                lower=lower / d, upper=upper / d,
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
    """D(p || q) in bits, q clipped below at EPS_CLIP: a float, or N for N x k rows."""
    p = _check_prob(p, "p")
    q = np.clip(_check_prob(q, "q"), EPS_CLIP, None)
    if p.shape != q.shape:
        raise MetricsError(f"p {p.shape} and q {q.shape} differ in shape")
    # terms with p = 0 contribute exactly 0
    return _per_row(np.sum(p * np.log2(np.where(p > 0.0, p, 1.0) / q), axis=-1))


def attack_mse_on_rows(model: VflModel, ds: Dataset, rows, attacks,
                       rng: np.random.Generator | None = None,
                       init: str = "half") -> dict[str, float]:
    """Mean per-feature MSE of each named attack over the given sample rows.

    The rows go through predict and build_system once, as one batch; the
    attacks then run on that system in the given order, all drawing from rng.
    Returns {attack: MSE}.
    """
    rows = np.asarray(rows, dtype=int)
    if rows.ndim != 1 or rows.size == 0:
        raise MetricsError("need a non-empty list of sample rows")
    if len(set(attacks)) != len(attacks):
        raise MetricsError(f"attack names repeat: {list(attacks)}")
    y_act = ds.x[np.ix_(rows, model.split.active)]
    x_pas = ds.x[np.ix_(rows, model.split.passive)]
    sys_ = build_system(model, y_act, predict(model, y_act, x_pas))
    return {name: empirical_mse(x_pas, run_attack(name, sys_, rng=rng, init=init).x_hat)
            for name in attacks}


def average_over_space(model: VflModel, ds: Dataset, d: int, attacks,
                       n_pred: int = 1000, seed: int = 0) -> dict[str, float]:
    """Mean MSE of each named attack over all d_t contiguous passive windows (mod d_t).

    Window s gives features {s, ..., s+d-1 mod d_t} to the passive party and
    is scored on model.window of that split, one model viewed d_t ways.
    Every attack runs on each window over up to n_pred test predictions,
    drawing from one generator seeded with seed + s. Returns {attack: mean
    of the d_t window MSE values}.
    """
    if d > ds.d_t:
        raise MetricsError("passive dimension exceeds the feature count")
    rows = np.flatnonzero(ds.test_mask)[:n_pred]
    windows = [attack_mse_on_rows(model.window(VflSplit.contiguous(ds.d_t, start, d)),
                                  ds, rows, attacks, rng=np.random.default_rng(seed + start))
               for start in range(ds.d_t)]
    return {name: float(np.mean([w[name] for w in windows])) for name in attacks}


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """Write one result table; every cell is rendered with repr-round-trip floats."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
