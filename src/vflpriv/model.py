"""Multinomial logistic regression with a two-party vertical feature split.

Training runs full-batch Adam on the average cross-entropy plus the
regularizer lam * (Tr(WW^T) + ||b||^2), with early stopping on a validation
plateau. Trained models are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset


class TrainingError(Exception):
    """Raised when optimization diverges (NaN loss) or inputs are invalid."""


@dataclass(frozen=True)
class VflSplit:
    """Disjoint passive/active feature index sets covering [0, d_t)."""

    passive: tuple
    active: tuple

    def __post_init__(self):
        object.__setattr__(self, "passive", tuple(int(i) for i in self.passive))
        object.__setattr__(self, "active", tuple(int(i) for i in self.active))
        for name, idx in (("passive", self.passive), ("active", self.active)):
            if len(set(idx)) != len(idx):
                raise ValueError(f"{name} features repeat an index: {list(idx)}")
        overlap = set(self.passive) & set(self.active)
        if overlap:
            raise ValueError(f"passive/active features overlap: {sorted(overlap)}")

    @property
    def d(self) -> int:
        return len(self.passive)

    @property
    def d_t(self) -> int:
        return len(self.passive) + len(self.active)

    @staticmethod
    def contiguous(d_t: int, start: int, d: int) -> "VflSplit":
        """Passive window {start, ..., start+d-1} modulo d_t; needs 1 <= d <= d_t."""
        if not 1 <= d <= d_t:
            raise ValueError(f"passive window size {d} must lie in [1, {d_t}]")
        passive = tuple((start + i) % d_t for i in range(d))
        active = tuple(i for i in range(d_t) if i not in set(passive))
        return VflSplit(passive=passive, active=active)


@dataclass(frozen=True)
class VflModel:
    """Trained LR parameters partitioned between the two parties."""

    w_act: np.ndarray   # k x (d_t - d)
    w_pas: np.ndarray   # k x d
    b: np.ndarray       # k
    k: int
    split: VflSplit
    lam: float = 0.0

    def __post_init__(self):
        for name, arr in (("w_act", self.w_act), ("w_pas", self.w_pas), ("b", self.b)):
            if not np.all(np.isfinite(arr)):
                raise TrainingError(f"{name} contains non-finite entries")
        if self.k < 2:
            raise ValueError("need at least two classes")
        if self.w_pas.shape != (self.k, self.split.d):
            raise ValueError("w_pas shape disagrees with the split")
        if self.w_act.shape != (self.k, self.split.d_t - self.split.d):
            raise ValueError("w_act shape disagrees with the split")

    def logits(self, y_act, x_pas) -> np.ndarray:
        y_act = np.asarray(y_act, dtype=float)
        x_pas = np.asarray(x_pas, dtype=float)
        if y_act.shape[-1] != self.w_act.shape[1] or x_pas.shape[-1] != self.w_pas.shape[1]:
            raise ValueError("feature dimensions do not match the model")
        return y_act @ self.w_act.T + x_pas @ self.w_pas.T + self.b

    def save(self, path) -> None:
        doc = {
            "k": self.k,
            "lam": self.lam,
            "passive": list(self.split.passive),
            "active": list(self.split.active),
            "w_act": self.w_act.ravel().tolist(),
            "w_pas": self.w_pas.ravel().tolist(),
            "b": self.b.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    @staticmethod
    def load(path) -> "VflModel":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        split = VflSplit(passive=doc["passive"], active=doc["active"])
        k = int(doc["k"])
        return VflModel(
            w_act=np.array(doc["w_act"], dtype=float).reshape(k, split.d_t - split.d),
            w_pas=np.array(doc["w_pas"], dtype=float).reshape(k, split.d),
            b=np.array(doc["b"], dtype=float),
            k=k, split=split, lam=float(doc["lam"]),
        )


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 3000
    lam: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("regularization weight must be non-negative")


def softmax(z) -> np.ndarray:
    """Shift-invariant softmax along the last axis."""
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict(model: VflModel, y_act, x_pas) -> np.ndarray:
    """Confidence scores sigma(W_act y + W_pas x + b); rows sum to 1."""
    return softmax(model.logits(y_act, x_pas))


def _one_hot(y: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((y.shape[0], k))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def _scores_and_loss(w, b, x, y_onehot, lam):
    scores = softmax(x @ w.T + b)
    ce = -np.sum(y_onehot * np.log(scores + 1e-300)) / x.shape[0]
    return scores, ce + lam * (np.sum(w * w) + np.sum(b * b))


def loss_value(w: np.ndarray, b: np.ndarray, x: np.ndarray,
               y_onehot: np.ndarray, lam: float) -> float:
    """The loss of loss_and_grads alone, by the same floating-point operations."""
    return _scores_and_loss(w, b, x, y_onehot, lam)[1]


def loss_and_grads(w: np.ndarray, b: np.ndarray, x: np.ndarray,
                   y_onehot: np.ndarray, lam: float):
    """Average cross-entropy (nats) + lam (Tr(WW^T) + ||b||^2) and its gradients."""
    n = x.shape[0]
    scores, loss = _scores_and_loss(w, b, x, y_onehot, lam)
    delta = (scores - y_onehot) / n
    grad_w = delta.T @ x + 2.0 * lam * w
    grad_b = delta.sum(axis=0) + 2.0 * lam * b
    return loss, grad_w, grad_b


def train(ds: Dataset, split_cfg: VflSplit, cfg: TrainConfig) -> VflModel:
    """Full-batch Adam (step lr) with early stopping on the validation-loss plateau.

    val_fraction of the training rows validate, and patience epochs without a
    relative gain of tol stop it. Deterministic under (dataset, split, config);
    returns the best-validation snapshot, partitioned by the feature split.
    """
    lr, patience, tol, val_fraction = 0.05, 20, 1e-6, 0.1
    if ds.n == 0:
        raise TrainingError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    train_idx = np.flatnonzero(ds.train_mask)
    if train_idx.size < 2:
        raise TrainingError("need at least two training samples")
    # carve a validation slice out of the training rows
    perm = rng.permutation(train_idx.size)
    n_val = max(1, int(round(val_fraction * train_idx.size)))
    val_idx = train_idx[perm[:n_val]]
    fit_idx = train_idx[perm[n_val:]]
    if fit_idx.size == 0:
        fit_idx = val_idx

    order = list(split_cfg.active) + list(split_cfg.passive)
    x_fit = ds.x[fit_idx][:, order]
    x_val = ds.x[val_idx][:, order]
    y_fit = _one_hot(ds.y[fit_idx], ds.k)
    y_val = _one_hot(ds.y[val_idx], ds.k)

    k, d_t = ds.k, ds.d_t
    w = 0.01 * rng.standard_normal((k, d_t))
    b = np.zeros(k)

    m_w = np.zeros_like(w); v_w = np.zeros_like(w)
    m_b = np.zeros_like(b); v_b = np.zeros_like(b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    best = (np.inf, w.copy(), b.copy())
    stall = 0
    for epoch in range(1, cfg.max_epochs + 1):
        loss, gw, gb = loss_and_grads(w, b, x_fit, y_fit, cfg.lam)
        if not np.isfinite(loss):
            raise TrainingError(f"training diverged at epoch {epoch} (loss={loss})")
        m_w = beta1 * m_w + (1 - beta1) * gw
        v_w = beta2 * v_w + (1 - beta2) * gw * gw
        m_b = beta1 * m_b + (1 - beta1) * gb
        v_b = beta2 * v_b + (1 - beta2) * gb * gb
        c1 = 1 - beta1 ** epoch
        c2 = 1 - beta2 ** epoch
        w -= lr * (m_w / c1) / (np.sqrt(v_w / c2) + eps)
        b -= lr * (m_b / c1) / (np.sqrt(v_b / c2) + eps)

        val_loss = loss_value(w, b, x_val, y_val, cfg.lam)
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
    return VflModel(w_act=w[:, :n_act], w_pas=w[:, n_act:], b=b,
                    k=k, split=split_cfg, lam=cfg.lam)


def accuracy(model: VflModel, ds: Dataset) -> float:
    """Fraction of argmax-correct test predictions; ties resolve to the lowest index."""
    mask = ds.test_mask
    if not mask.any():
        raise ValueError("empty evaluation mask")
    x = ds.x[mask]
    scores = predict(model, x[:, list(model.split.active)], x[:, list(model.split.passive)])
    return float(np.mean(np.argmax(scores, axis=1) == ds.y[mask]))
