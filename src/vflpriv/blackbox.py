"""Single-feature reconstruction from scalar observations v_i = w x_i + b.

The adversary sees only the v_i plus partial sign knowledge about (w, b).
With x_i in [0, 1] drawn from a population, order statistics of v pin down
the affine map well enough to invert it per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class BlackboxError(Exception):
    """Raised for inputs the estimators cannot handle (e.g. all-zero v in case 1)."""


@dataclass
class BlackboxEstimate:
    """Per-sample estimates in [0, 1] plus case-specific flags."""

    x_hat: np.ndarray
    case: str
    flags: dict = field(default_factory=dict)


def _as_obs(v) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if v.size < 1:
        raise BlackboxError("need at least one observation")
    if not np.all(np.isfinite(v)):
        raise BlackboxError("observations must be finite")
    return v


def bb_case1(v) -> BlackboxEstimate:
    """b = 0: the largest-|v| sample is assumed to have x = 1, others scale off it.

    X_hat_i = v_i / v_M with M = argmax |v_i| (lowest index on ties). The sign
    of w cancels in the ratio.
    """
    v = _as_obs(v)
    big = int(np.argmax(np.abs(v)))
    if v[big] == 0.0:
        raise BlackboxError("all observations are zero; x is unidentifiable")
    x_hat = np.clip(v / v[big], 0.0, 1.0)
    return BlackboxEstimate(x_hat=x_hat, case="1", flags={"argmax": big})


def bb_case2(v) -> BlackboxEstimate:
    """w and b share a sign: min-max normalization of the observations.

    With m = argmin |v_i| and M = argmax |v_i| the estimate
    (v_i - v_m) / (v_M - v_m) treats the extreme samples as x = 0 and x = 1.
    Constant v yields all-zero estimates with a warning flag.
    """
    v = _as_obs(v)
    small = int(np.argmin(np.abs(v)))
    big = int(np.argmax(np.abs(v)))
    span = v[big] - v[small]
    flags = {"argmin": small, "argmax": big, "constant_input": span == 0.0}
    if span == 0.0:
        return BlackboxEstimate(x_hat=np.zeros(v.size), case="2", flags=flags)
    x_hat = np.clip((v - v[small]) / span, 0.0, 1.0)
    return BlackboxEstimate(x_hat=x_hat, case="2", flags=flags)


def bb_case3(v) -> BlackboxEstimate:
    """w and b have opposite signs but the adversary does not know which is which.

    If every v_i shares one sign, b must share it too (case 3a): the sign of w
    follows and a correspondingly oriented min-max estimate applies. Mixed
    signs (case 3b) are undecidable; fall back to the constant 1/2 guess.
    """
    v = _as_obs(v)
    if np.all(v > 0.0) or np.all(v < 0.0):
        sign_b = 1.0 if v[0] > 0.0 else -1.0
        est = bb_case2(v)
        # opposite signs of w and b put x = 0 at the largest |v|, so the
        # |v|-oriented min-max of case 2 always flips here
        x_hat = np.zeros(v.size) if est.flags["constant_input"] else 1.0 - est.x_hat
        return BlackboxEstimate(
            x_hat=x_hat, case="3a",
            flags={"sign_b": sign_b, "sign_w": -sign_b,
                   "constant_input": est.flags["constant_input"]})
    return BlackboxEstimate(x_hat=np.full(v.size, 0.5), case="3b",
                            flags={"undecidable": True})
