"""A reference kernel that measures how fast the machine runs right now.

On a shared 2-vCPU Intel Xeon virtual machine the same command takes up to
1.6 times longer in some stretches of tens of seconds than in others, with
no steal time: the host's load changes how fast our cores run. Process CPU
time slows down with wall time, so it does not help. A fixed kernel of the
same kind of work as vflpriv (tiny SVDs and matrix products, clipping and
Python float arithmetic), timed right before and right after a command,
slows down with it: the ratio of the two held within 5% in stretches where
the raw command time moved by 30%.

Every time the benchmark reports is therefore in nominal seconds: the wall
time scaled by REF_NOMINAL_S over the kernel's time measured around it,
i.e. seconds on a machine on which the kernel takes REF_NOMINAL_S. Changing
the kernel or the constant changes every reported time; do it only in a
change that redefines the benchmark.
"""

from __future__ import annotations

import time

import numpy as np

REF_NOMINAL_S = 0.02

_RNG = np.random.default_rng(2207)
_A = _RNG.normal(size=(3, 6))
_X = _RNG.random((128, 6))


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    s = 0.0
    for x in _X:
        for _ in range(4):
            u, sv, vt = np.linalg.svd(_A, full_matrices=True)
            p = vt[:3].T @ (u.T / sv[:, None])
            z = np.clip(x - p @ (_A @ x), 0.0, 1.0)
            s += float(np.linalg.norm(z)) + sum(float(v) for v in x)
    if not np.isfinite(s):
        raise ArithmeticError("reference kernel produced a non-finite sum")
    return time.perf_counter() - t0


class NominalClock:
    """Converts wall times to nominal seconds with the kernel timed around them."""

    def __init__(self):
        self._last = kernel_seconds()
        self.wall = 0.0        # total wall seconds converted so far
        self.nominal = 0.0     # the same time in nominal seconds

    def nominal_seconds(self, wall: float) -> float:
        """Call right after timing a piece of work of ``wall`` seconds."""
        after = kernel_seconds()
        nominal = wall * REF_NOMINAL_S * 2.0 / (self._last + after)
        self._last = after
        self.wall += wall
        self.nominal += nominal
        return nominal
