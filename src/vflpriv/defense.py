"""Defenses: orthonormal reparameterization (PPS-1) and coordinator logit noise (PPS-2).

PPS-1 retrains (or equivalently reveals transformed parameters) so the
adversary reconstructs Hx instead of x, leaving confidence scores untouched.
PPS-2 perturbs the logits before softmax in ways that never change the
predicted label. The score-release schemes and apply_scheme take the logits
of one prediction (a k-vector) or of N predictions (N x k) and return scores
of the same shape; the argmax tie set is taken per row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .dataset import Dataset, normalize
from .model import VflModel, softmax
from .system import LinearSystem, difference_matrix

_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class OrthonormalTransform:
    """A d x d orthonormal matrix."""

    h: np.ndarray

    def __post_init__(self):
        h = numerics.as_matrix(self.h)
        object.__setattr__(self, "h", h)
        if h.shape[0] != h.shape[1]:
            raise ValueError("H must be square")
        if np.max(np.abs(h.T @ h - np.eye(h.shape[0]))) > _ORTHO_TOL:
            raise ValueError("H is not orthonormal")

    @staticmethod
    def neg_identity(d: int) -> "OrthonormalTransform":
        return OrthonormalTransform(h=-np.eye(d))


def check_scheme_param(scheme: str, param: float, k: int) -> None:
    """Raise ValueError unless param lies in the noisy-score scheme's range.

    s1 and s2 take a finite noise budget alpha >= 0, s3 an alpha in [0, 1)
    and class_label an eps in (0, 1/k) for k classes.
    """
    if scheme == "s3":
        ok, rule = 0.0 <= param < 1.0, "scheme-3 alpha must be in [0, 1)"
    elif scheme == "class_label":
        ok = 0.0 < param < 1.0 / k
        rule = f"class_label eps must be in (0, 1/k) for k = {k} classes"
    else:
        ok, rule = 0.0 <= param < np.inf, "noise budget must be finite and non-negative"
    if not ok:
        raise ValueError(f"{rule}, got {param}")


@dataclass(frozen=True)
class NoisePlan:
    """Noise budget alpha of scheme s1 or s2 with the optimal logit direction v1."""

    alpha: float
    v1: np.ndarray

    def __post_init__(self):
        v1 = numerics.as_vector(self.v1)
        check_scheme_param("s1", self.alpha, v1.size)   # s2 shares s1's range
        if abs(np.linalg.norm(v1) - 1.0) > 1e-10:
            raise ValueError("v1 must be unit norm")
        object.__setattr__(self, "v1", v1)


@dataclass(frozen=True)
class Pps1Result:
    """Transformed dataset plus the affine renormalization x_new = (Hx - off) / scale."""

    dataset: Dataset
    transform: OrthonormalTransform
    scale: np.ndarray
    offset: np.ndarray


def pps1_transform(ds: Dataset, transform: OrthonormalTransform,
                   passive: tuple | None = None) -> Pps1Result:
    """Map the passive feature block x -> Hx and renormalize it to [0, 1] in a
    dataclasses.replace of ds; normalize's lo and span are offset and scale.
    For H = -I this reduces to x -> 1 - x. passive defaults to all features."""
    h = transform.h
    d = h.shape[0]
    if passive is None:
        passive = tuple(range(d))
    cols = list(passive)
    if len(cols) != d:
        raise ValueError("H size must match the passive feature count")
    block, lo, span = normalize(ds.x[:, cols] @ h.T)
    x_new = ds.x.copy()
    x_new[:, cols] = block
    return Pps1Result(dataset=replace(ds, x=x_new), transform=transform, scale=span, offset=lo)


def pps1_reveal_params(model: VflModel, transform: OrthonormalTransform) -> VflModel:
    """Disclose W_pas H^T (= W_pas H^{-1}) instead of the true passive weights.

    Logits on the transformed features Hx equal the original logits exactly.
    """
    return VflModel(w_act=model.w_act, w_pas=model.w_pas @ transform.h.T,
                    b=model.b, k=model.k, split=model.split, lam=model.lam)


def pps1_reveal_params_renormalized(model: VflModel, res: Pps1Result) -> VflModel:
    """Parameters consistent with the renormalized features of pps1_transform.

    With x_new = (Hx - off) / scale the disclosed weights are
    W_pas H^T diag(scale) and the bias absorbs W_pas H^T off, keeping logits
    on x_new identical to the originals.
    """
    w_h = model.w_pas @ res.transform.h.T
    return VflModel(w_act=model.w_act, w_pas=w_h * res.scale,
                    b=model.b + w_h @ res.offset,
                    k=model.k, split=model.split, lam=model.lam)


def pps1_optimal_h(sys_: LinearSystem, k0) -> OrthonormalTransform:
    """MSE-maximizing orthonormal transform against the min-norm attack.

    With USV^T an SVD of A^+A K0, the maximizer is -VU^T; when A^+A = I
    (fewer passive features than classes) this collapses to -I.
    """
    numerics.reject_stack(sys_.a, "pps1_optimal_h takes one system")
    k0 = numerics.as_matrix(k0)
    proj = sys_.pinv @ sys_.a
    f = numerics.svd(proj @ k0)
    return OrthonormalTransform(h=-f.v @ f.u.T)


def pps2_optimal_direction(sys_: LinearSystem, alpha: float) -> NoisePlan:
    """Noise plan along the top right singular vector of A^+ J.

    The achievable MSE inflation under trace budget alpha is sigma_1^2 alpha,
    attained by the correlation matrix alpha v1 v1^T.
    """
    numerics.reject_stack(sys_.a, "pps2_optimal_direction takes one system")
    k = sys_.a.shape[0] + 1
    apj = sys_.pinv @ difference_matrix(k)
    f = numerics.svd(apj)
    v1 = f.v[:, 0]
    i_big = int(np.argmax(np.abs(v1)))
    if v1[i_big] < 0:   # fix the SVD sign ambiguity
        v1 = -v1
    return NoisePlan(alpha=float(alpha), v1=v1)


def _as_logits(z) -> np.ndarray:
    """Finite logits of one prediction (k) or N of them (N x k), and no more axes."""
    return numerics.as_vector(z) if np.ndim(z) < 2 else numerics.as_matrix(z)


def _argmax_set(z: np.ndarray) -> np.ndarray:
    """Per-row mask of the entries that attain the row maximum."""
    return z == z.max(axis=-1, keepdims=True)


def pps2_scheme1(z, plan: NoisePlan) -> np.ndarray:
    """Reveal sigma(z + sqrt(alpha) n/||n||) with the top entries of n forced to max v1.

    The noise direction follows v1 except at the argmax indices of z, which
    receive max_j v1_j so the predicted label cannot change.
    """
    z = _as_logits(z)
    n_tilde = np.where(_argmax_set(z), plan.v1.max(), plan.v1)
    norm = np.linalg.norm(n_tilde, axis=-1, keepdims=True)
    return softmax(z + np.sqrt(plan.alpha) * n_tilde / norm)


def pps2_scheme2(z, plan: NoisePlan) -> np.ndarray:
    """Add sqrt(alpha) v1 to the logits, then lift the argmax entries to the new max."""
    z = _as_logits(z)
    z_prime = z + np.sqrt(plan.alpha) * plan.v1
    return softmax(np.where(_argmax_set(z), z_prime.max(axis=-1, keepdims=True),
                            z_prime))


def pps2_scheme3(z, alpha: float) -> np.ndarray:
    """Reveal sigma((1 - alpha) z + alpha 1): logits shrink toward uniform."""
    z = _as_logits(z)
    check_scheme_param("s3", alpha, z.shape[-1])
    return softmax((1.0 - alpha) * z + alpha)


def pps2_class_label(z, eps: float) -> np.ndarray:
    """Reveal (almost) the class label: argmax -> 1-(k-1) eps, the rest -> eps."""
    z = _as_logits(z)
    k = z.shape[-1]
    check_scheme_param("class_label", eps, k)
    out = np.full(z.shape, eps)
    np.put_along_axis(out, np.argmax(z, axis=-1)[..., None], 1.0 - (k - 1) * eps,
                      axis=-1)
    return out


_SCHEMES = {"s1": pps2_scheme1, "s2": pps2_scheme2, "s3": pps2_scheme3,
            "class_label": pps2_class_label}


def apply_scheme(z, plan_or_param, scheme: str) -> np.ndarray:
    """Dispatch one noisy-score scheme by name on k or N x k logits.

    s1 and s2 take a NoisePlan, s3 its alpha and class_label its eps.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _SCHEMES[scheme](z, plan_or_param)
