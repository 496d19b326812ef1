"""Seeded bimodal classification tables, and the CLI's view of them.

Why bimodal: on the CLI's own ``--synth`` Gaussian data the rcc2 estimator
never leaves its closed form, because the box-centre projection of the
solution space already lies inside the box. Real tabular data is often
binarized or one-hot, so its features pile up near 0 and 1 and the true
features sit near a corner of the box. There the closed-form point leaves
the box and rcc2 takes its Dykstra path, on roughly a third to two thirds of
the rows at k=4, d=6. A benchmark on Gaussian data would never time that
path.

Each feature of a row is a class-conditional Bernoulli draw of a low or a
high mode, pushed into the box by a half-normal jitter. The per-class
probabilities of the high mode are fixed for each table shape, so every seed
samples rows from the same population; a seed that also redrew them would
pose a different problem each time, and its solver costs would differ more
from seed to seed than a performance change should. Labels are written
as strings (``class_a``, ``class_b``, ...), so the CLI's CSV parser and label
encoder run on every command.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

JITTER = 0.05          # scale of the half-normal jitter away from 0 and 1
P_HIGH = (0.15, 0.85)  # range of the per-class probability of the high mode
POPULATION = 2207      # seeds the per-class probabilities, not the rows


@dataclass(frozen=True)
class Table:
    """A generated table exactly as written to ``path``."""

    path: str
    values: np.ndarray   # n x d_t raw feature values
    labels: np.ndarray   # n class indices; written as label_name(i)
    k: int

    @property
    def d_t(self) -> int:
        return self.values.shape[1]


def label_name(c: int) -> str:
    return "class_" + chr(ord("a") + c)


def generate(path, seed: int, n: int, d_t: int, k: int) -> Table:
    """Write an n-row table with d_t bimodal features and k string labels."""
    p_high = np.random.default_rng([POPULATION, k, d_t]).uniform(
        *P_HIGH, size=(k, d_t))
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % k)
    high = rng.random((n, d_t)) < p_high[labels]
    jitter = np.abs(rng.normal(0.0, JITTER, size=(n, d_t)))
    values = np.clip(np.where(high, 1.0 - jitter, jitter), 0.0, 1.0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(d_t)] + ["label"])
        for row, c in zip(values.tolist(), labels.tolist()):
            writer.writerow([repr(v) for v in row] + [label_name(c)])
    return Table(path=str(path), values=values, labels=labels, k=k)


def cli_view(table: Table, train_frac: float, seed: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """The normalized features and sorted test-row indices the CLI derives.

    Mirrors the documented pipeline of ``vflpriv --data``: min-max scaling of
    every column over the whole table, then a train/test split drawn from
    ``default_rng(seed).permutation(n)``. Written independently of the
    package so the output checks do not trust the code they check.
    """
    v = table.values
    lo, hi = v.min(axis=0), v.max(axis=0)
    span = hi - lo
    span[span == 0.0] = 1.0
    x = np.clip((v - lo) / span, 0.0, 1.0)
    n = v.shape[0]
    n_train = int(round(train_frac * n))
    perm = np.random.default_rng(seed).permutation(n)
    test = np.ones(n, dtype=bool)
    test[perm[:n_train]] = False
    return x, np.flatnonzero(test)
