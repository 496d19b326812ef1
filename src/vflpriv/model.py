"""Multinomial logistic regression with a two-party vertical feature split.

Training runs full-batch Adam on the average cross-entropy plus the
regularizer lam * (Tr(WW^T) + ||b||^2), with early stopping on a validation
plateau. Each epoch is one forward pass over the validation and fit rows
together. Its softmax runs on class-major (class, row) scores and sums each
score row's classes in order, a lone row by its running sum. Its products,
the cross-entropy's total and the bias gradient's running sum keep the
row-major (row, class) order whose bits the reference loop fixes. The
objective does not depend on which party holds which feature, so one trained
model serves every passive window through VflModel.window. A VflModel's
fields cannot be reassigned, but the arrays train returns are writable: a
model is safe to share across threads only while no caller writes into them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .dataset import DataError, Dataset


class TrainingError(Exception):
    """Raised when optimization diverges (NaN loss) or inputs are invalid."""


@dataclass(frozen=True)
class VflSplit:
    """Passive feature indices, distinct and in [0, d_t), over a table of
    d_t >= 1 features (else ValueError). The active party holds the rest, in
    increasing order and worked out here, so a split covers [0, d_t) once."""

    passive: tuple
    d_t: int = field(repr=False)
    active: tuple = field(init=False, compare=False)

    def __post_init__(self):
        passive, d_t = tuple(int(i) for i in self.passive), self.d_t
        if d_t < 1:
            raise ValueError(f"a split needs at least one feature, got d_t={d_t}")
        if len(set(passive)) != len(passive) or not all(0 <= i < d_t for i in passive):
            raise ValueError(f"passive features {list(passive)} must be distinct "
                             f"indices in [0, {d_t})")
        object.__setattr__(self, "passive", passive)
        object.__setattr__(self, "active", tuple(sorted(set(range(d_t)).difference(passive))))

    @property
    def d(self) -> int:
        return len(self.passive)

    @staticmethod
    def contiguous(d_t: int, start: int, d: int) -> "VflSplit":
        """Passive window {start, ..., start+d-1} modulo d_t; needs 1 <= d <= d_t."""
        if not 1 <= d <= d_t:
            raise ValueError(f"passive window size {d} must lie in [1, {d_t}]")
        return VflSplit(tuple((start + i) % d_t for i in range(d)), d_t)


@dataclass(frozen=True)
class VflModel:
    """Trained LR parameters partitioned between the two parties.

    w_act and w_pas may carry matching leading axes: a stack of windows of
    one model that share d, whose split is then the first window's. logits,
    predict and system.build_system take it whole; window and save do not.
    """

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
        if self.w_pas.shape[-2:] != (self.k, self.split.d):
            raise ValueError("w_pas shape disagrees with the split")
        if self.w_act.shape[-2:] != (self.k, self.split.d_t - self.split.d):
            raise ValueError("w_act shape disagrees with the split")
        if self.w_act.shape[:-2] != self.w_pas.shape[:-2]:
            raise ValueError(f"w_act stacks {self.w_act.shape[:-2]} views, "
                             f"w_pas {self.w_pas.shape[:-2]}")
        if self.b.shape != (self.k,):
            raise ValueError(f"b of shape {self.b.shape} disagrees with k={self.k}")

    def logits(self, y_act, x_pas) -> np.ndarray:
        y_act = np.asarray(y_act, dtype=float)
        x_pas = np.asarray(x_pas, dtype=float)
        if y_act.shape[-1] != self.w_act.shape[-1] or x_pas.shape[-1] != self.w_pas.shape[-1]:
            raise ValueError("feature dimensions do not match the model")
        return (y_act @ self.w_act.swapaxes(-1, -2) + x_pas @ self.w_pas.swapaxes(-1, -2)
                + self.b)

    def window(self, split: VflSplit) -> "VflModel":
        """The same weights and bias, their columns regrouped into split's two
        parties; the view's arrays are new, so writing into them leaves self alone."""
        numerics.reject_stack(self.w_pas, "VflModel.window takes one model")
        if split.d_t != self.split.d_t:
            raise ValueError(f"a split of {split.d_t} features cannot view a model "
                             f"of {self.split.d_t}")
        w = np.empty((self.k, split.d_t))
        w[:, list(self.split.active)], w[:, list(self.split.passive)] = self.w_act, self.w_pas
        return VflModel(w_act=w[:, list(split.active)], w_pas=w[:, list(split.passive)],
                        b=self.b.copy(), k=self.k, split=split, lam=self.lam)

    def save(self, path) -> None:
        numerics.reject_stack(self.w_pas, "VflModel.save takes one model")
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
        """The model save wrote to path. A file that does not hold one, such
        as a weight count that disagrees with k and the split or an active
        list that is not the rest of the features in increasing order, raises
        DataError naming the file and the field."""
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:       # not JSON, or not UTF-8
            raise DataError(f"{path}: not a JSON model: {exc}") from None
        if not isinstance(doc, dict):
            raise DataError(f"{path}: not a JSON model: expected an object")

        def read(key, convert):
            if key not in doc:
                raise DataError(f"{path}: no {key} field")
            try:
                return convert(doc[key])
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: {key}: {exc}") from None

        def ints(v):
            return [int(i) for i in v]

        k, lam = read("k", int), read("lam", float)
        passive, active = read("passive", ints), read("active", ints)
        try:
            split = VflSplit(passive, len(passive) + len(active))
            if active != list(split.active):
                raise DataError(f"{path}: active: {active} is not the rest of the "
                                f"features in increasing order, {list(split.active)}")
            d_act = split.d_t - split.d
            w = {}
            for key, cols, need in (("w_act", d_act, f"k={k}, d_t-d={d_act} need"),
                                    ("w_pas", split.d, f"k={k}, d={split.d} need"),
                                    ("b", 1, f"k={k} needs")):
                w[key] = read(key, lambda v: np.array(v, dtype=float).ravel())
                if w[key].size != k * cols:
                    raise DataError(f"{path}: {key} holds {w[key].size} values; "
                                    f"{need} {k * cols}")
            return VflModel(w_act=w["w_act"].reshape(k, d_act),
                            w_pas=w["w_pas"].reshape(k, split.d), b=w["b"],
                            k=k, split=split, lam=lam)
        except (ValueError, TrainingError) as exc:
            raise DataError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 3000
    lam: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:   # a nan fails both comparisons
            raise ValueError(f"regularization weight must be finite and "
                             f"non-negative, got lam={self.lam}")


def softmax(z) -> np.ndarray:
    """Shift-invariant softmax along the last axis: _softmax_columns on a
    class-major copy of z. Each row sums its classes in order, so a row gets
    the same bits alone and in a batch. The result is row-major, as z is."""
    z = np.asarray(z, dtype=float)
    cols = z.reshape(-1, z.shape[-1]).T.copy()     # a copy: the kernel writes into it
    return np.ascontiguousarray(_softmax_columns(cols).T).reshape(z.shape)


def _softmax_columns(scores: np.ndarray) -> np.ndarray:
    """Softmax of each column of class-major scores (k x N), in place. Each
    column sums its classes in order; numpy sums a lone column pairwise, so
    that one takes the last entry of its running sum."""
    scores -= scores.max(0)
    np.exp(scores, out=scores)
    scores /= scores.sum(0) if scores.shape[1] != 1 else np.add.accumulate(scores)[-1]
    return scores


def predict(model: VflModel, y_act, x_pas) -> np.ndarray:
    """Confidence scores sigma(W_act y + W_pas x + b); rows sum to 1."""
    return softmax(model.logits(y_act, x_pas))


def loss_and_grads(w: np.ndarray, b: np.ndarray, x: np.ndarray,
                   y_onehot: np.ndarray, lam: float, n_val: int):
    """Average cross-entropy (nats) + lam (Tr(WW^T) + ||b||^2) and its gradients.

    w is k x d, b k, x n x d and y_onehot n x k. The first n_val rows
    validate and the rest fit: one forward pass returns (validation loss,
    fit loss, grad_w, grad_b), the gradients of the fit loss alone.

    The bias and the softmax (_softmax_columns) run class-major, k x n, each
    score row summing its classes in order. The rest keeps the row-major
    n x k layout, whose bits the reference fixes: the product x W^T (BLAS
    gives others for W x^T at some k), the cross-entropy, summed pairwise over
    the n x k terms, and delta^T x. The bias gradient is the last row of a
    running sum down the rows, the sequence in which numpy sums over that axis.
    """
    n_fit = x.shape[0] - n_val
    rows = x @ w.T
    scores = np.ascontiguousarray(rows.T)   # one contiguous row per class
    scores += b[:, None]
    np.copyto(rows, _softmax_columns(scores).T)
    del scores
    terms = rows + 1e-300
    np.log(terms, out=terms)
    terms *= y_onehot
    reg = lam * ((w * w).sum() + (b * b).sum())
    # a / -n has the bits of -a / n
    val_loss = terms[:n_val].sum() / -n_val + reg
    fit_loss = terms[n_val:].sum() / -n_fit + reg
    rows -= y_onehot
    rows /= n_fit
    delta = rows[n_val:]
    grad_w = delta.T @ x[n_val:] + 2.0 * lam * w
    # in place; numpy's sum over the rows has the same bits, with an inner loop of k
    grad_b = np.add.accumulate(delta, axis=0, out=delta)[-1] + 2.0 * lam * b
    return val_loss, fit_loss, grad_w, grad_b


def train(ds: Dataset, split_cfg: VflSplit, cfg: TrainConfig) -> VflModel:
    """Full-batch Adam (step lr) with early stopping on the validation-loss plateau.

    val_fraction of the training rows validate, and patience epochs without a
    relative gain of tol stop it. Deterministic under (dataset, split, config);
    returns the best-validation snapshot, partitioned by the feature split.

    Each epoch is one loss_and_grads call on the validation and fit rows
    together at the current parameters: its validation loss scores the last
    step and its fit gradient makes the next, so E epochs take E + 1 calls.
    In an epoch the validation bookkeeping comes first, then the stop check,
    then the divergence check, then the Adam step.
    """
    lr, patience, tol, val_fraction = 0.05, 20, 1e-6, 0.1
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if ds.n == 0:
        raise TrainingError("empty dataset")
    if split_cfg.d_t != ds.d_t:
        raise ValueError(f"a split of {split_cfg.d_t} features cannot view a table of {ds.d_t}")
    train_idx = np.flatnonzero(ds.train_mask)
    if train_idx.size < 2:
        raise TrainingError("need at least two training samples")
    # carve a validation slice out of the training rows; the fit keeps at least one
    n_val = max(1, int(round(val_fraction * train_idx.size)))
    rng = np.random.default_rng(cfg.seed)
    rows = train_idx[rng.permutation(train_idx.size)]
    x = ds.x[rows][:, split_cfg.active + split_cfg.passive]
    y = np.zeros((train_idx.size, ds.k))        # one-hot labels
    np.put_along_axis(y, ds.y[rows, None], 1.0, axis=-1)
    # the parameters are [W b], so one Adam step covers both
    n_w = ds.k * ds.d_t
    theta = np.zeros(n_w + ds.k)
    theta[:n_w] = 0.01 * rng.standard_normal(n_w)
    w, b = theta[:n_w].reshape(ds.k, ds.d_t), theta[n_w:]
    m, v, best = np.zeros_like(theta), np.zeros_like(theta), theta.copy()
    best_loss, last_gain, epoch = np.inf, 0, 0      # last_gain: epoch of the last relative gain
    while True:
        # at the parameters after `epoch` steps
        val_loss, loss, gw, gb = loss_and_grads(w, b, x, y, cfg.lam, n_val)
        if epoch:                                   # a NaN loss keeps the best
            if val_loss < best_loss * (1.0 - tol):
                last_gain = epoch
            if val_loss < best_loss:
                best, best_loss = theta.copy(), val_loss
        if epoch - last_gain >= patience or epoch >= cfg.max_epochs:
            break
        epoch += 1
        if not np.isfinite(loss):
            raise TrainingError(f"training diverged at epoch {epoch} (loss={loss})")
        g = np.concatenate((gw.ravel(), gb))
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        c1 = 1 - beta1 ** epoch
        c2 = 1 - beta2 ** epoch
        theta -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    n_act = split_cfg.d_t - split_cfg.d
    best_w = best[:n_w].reshape(ds.k, ds.d_t)
    return VflModel(w_act=best_w[:, :n_act], w_pas=best_w[:, n_act:], b=best[n_w:],
                    k=ds.k, split=split_cfg, lam=cfg.lam)


def accuracy(model: VflModel, ds: Dataset) -> float:
    """Fraction of argmax-correct test predictions; ties resolve to the lowest index."""
    numerics.reject_stack(model.w_pas, "accuracy takes one model")
    if model.split.d_t != ds.d_t:
        raise ValueError(f"a split of {model.split.d_t} features cannot view a table of {ds.d_t}")
    if model.k != ds.k:
        raise ValueError(f"a model of {model.k} classes cannot score a table of {ds.k}")
    mask = ds.test_mask
    if not mask.any():
        raise ValueError("empty evaluation mask")
    x = ds.x[mask]
    scores = predict(model, x[:, list(model.split.active)], x[:, list(model.split.passive)])
    return float(np.mean(np.argmax(scores, axis=1) == ds.y[mask]))
