"""Independent checks of the CSV tables the CLI writes.

Each check returns when the output is right and raises CheckFailed with a
one-line reason when it is not. Reference values are computed here with plain numpy from the
generated table and the saved model files, never through vflpriv.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# the CLI's default figure1 attacks without rcc2; see Figure1 in workloads.py
FIGURE1_ATTACKS = ("rg", "zero", "half", "ls", "clamped_ls", "half_star")
TRADEOFF_SWEEP = ([("s1", a) for a in (0.1, 1.0, 10.0)]
                  + [("s2", a) for a in (0.1, 1.0, 10.0)]
                  + [("s3", a) for a in (0.1, 0.5, 0.9)]
                  + [("class_label", e) for e in (0.01, 0.1)])

DATA_ONLY_TOL = 1e-12     # half and zero depend on the data alone
CLOSED_FORM_TOL = 1e-9    # ls and half_star against a numpy closed form


class CheckFailed(Exception):
    """An output table is wrong; the message says how."""


def _read(path, header: list[str], n_rows: int) -> list[dict[str, str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"no output table: {exc}") from exc
    if not rows or rows[0] != header:
        raise CheckFailed(f"header {rows[:1]} is not {header}")
    body = rows[1:]
    if len(body) != n_rows or any(len(r) != len(header) for r in body):
        raise CheckFailed(f"expected {n_rows} rows of {len(header)} cells")
    return [dict(zip(header, r)) for r in body]


def _number(cell: str, what: str, lo: float = -math.inf,
            hi: float = math.inf) -> float:
    try:
        v = float(cell)
    except ValueError as exc:
        raise CheckFailed(f"{what}={cell!r} is not a number") from exc
    if not (math.isfinite(v) and lo <= v <= hi):
        raise CheckFailed(f"{what}={v!r} is outside [{lo}, {hi}]")
    return v


def _close(got: float, want: float, tol: float, what: str) -> None:
    if abs(got - want) > tol:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} (tol {tol})")


def figure1(path, d: int, x: np.ndarray, test: np.ndarray, n_pred: int) -> None:
    """One `figure1 --d-grid d` table; half and zero against the data."""
    rows = _read(path, ["d", "attack", "mse"], len(FIGURE1_ATTACKS))
    d_t = x.shape[1]
    sub = x[test[:n_pred]]
    half, zero = [], []
    for start in range(d_t):
        cols = [(start + i) % d_t for i in range(d)]
        half.append(np.sum((sub[:, cols] - 0.5) ** 2) / sub[:, cols].size)
        zero.append(np.sum(sub[:, cols] ** 2) / sub[:, cols].size)
    want = {"half": float(np.mean(half)), "zero": float(np.mean(zero))}
    for row, attack in zip(rows, FIGURE1_ATTACKS):
        if row["attack"] != attack or row["d"] != str(d):
            raise CheckFailed(f"row {row} is not d={d} attack={attack}")
        mse = _number(row["mse"], f"{attack} mse", 0.0, 1.0)
        if attack in want:
            _close(mse, want[attack], DATA_ONLY_TOL, f"{attack} mse")


def closed_forms(model_path, x: np.ndarray, rows: np.ndarray
                 ) -> dict[str, float]:
    """MSE of the min-norm and box-centre estimators, from the model file."""
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    k = int(doc["k"])
    act, pas = list(doc["active"]), list(doc["passive"])
    w_act = np.array(doc["w_act"]).reshape(k, len(act))
    w_pas = np.array(doc["w_pas"]).reshape(k, len(pas))
    b = np.array(doc["b"])
    y, truth = x[np.ix_(rows, act)], x[np.ix_(rows, pas)]
    z = y @ w_act.T + truth @ w_pas.T + b
    c = np.exp(z - z.max(axis=1, keepdims=True))
    c /= c.sum(axis=1, keepdims=True)
    j = np.eye(k)[1:] - np.eye(k)[:-1]          # consecutive differences
    a = j @ w_pas
    logc = np.log(c)
    bprime = (logc[:, 1:] - logc[:, :-1]) - (y @ w_act.T + b) @ j.T
    a_pinv = np.linalg.pinv(a)
    ls = bprime @ a_pinv.T
    null_proj = np.eye(len(pas)) - a_pinv @ a
    half_star = ls + 0.5 * (null_proj @ np.ones(len(pas)))
    return {name: float(np.mean((est - truth) ** 2))
            for name, est in (("ls", ls), ("half_star", half_star))}


def attack(path, attacks: list[str], d: int, n: int, model_path,
           x: np.ndarray, test: np.ndarray) -> None:
    """One `attack --model` table; ls and half_star against the closed form."""
    rows = _read(path, ["attack", "d", "n", "mse"], len(attacks))
    want = closed_forms(model_path, x, test[:n])
    for row, name in zip(rows, attacks):
        if row["attack"] != name or row["d"] != str(d) or row["n"] != str(n):
            raise CheckFailed(f"row {row} is not attack={name} d={d} n={n}")
        mse = _number(row["mse"], f"{name} mse", 0.0, 1.0)
        if name in want:
            _close(mse, want[name], CLOSED_FORM_TOL, f"{name} mse")


def tradeoff(path) -> None:
    """The 11-setting noise sweep; accuracy must survive every setting."""
    rows = _read(path, ["scheme", "param", "avg_kl_bits", "mse_half_star",
                        "accuracy"], len(TRADEOFF_SWEEP))
    for row, (scheme, param) in zip(rows, TRADEOFF_SWEEP):
        if row["scheme"] != scheme or float(row["param"]) != param:
            raise CheckFailed(f"row {row} is not {scheme} {param}")
        what = f"{scheme} {param}"
        _number(row["avg_kl_bits"], f"{what} avg_kl_bits", 0.0)
        # the estimate comes from noisy scores, so it may leave the box and
        # its MSE has no upper bound, unlike the clean-score tables
        _number(row["mse_half_star"], f"{what} mse_half_star", 0.0)
        # NaN accuracy means some noisy score lost the predicted label
        _number(row["accuracy"], f"{what} accuracy", 0.0, 1.0)


def model(path, k: int, d: int, d_t: int, stdout: str) -> None:
    """A `train --out` model file and the accuracy line it prints."""
    if not stdout.startswith("accuracy="):
        raise CheckFailed(f"train printed {stdout[:60]!r}")
    _number(stdout.split("=", 1)[1], "accuracy", 0.0, 1.0)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"model file: {exc}") from exc
    if (doc.get("k") != k or len(doc["passive"]) != d
            or len(doc["w_act"]) != k * (d_t - d) or len(doc["w_pas"]) != k * d):
        raise CheckFailed("model file has the wrong shape")
