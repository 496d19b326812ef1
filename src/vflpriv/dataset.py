"""Loading, encoding, normalizing, splitting and synthesizing classification data.

All transformations are pure and deterministic given their inputs and seeds.
Feature matrices live in [0, 1]; labels are integers in [0, k-1].
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np


class DataError(Exception):
    """Raised for malformed input tables or invalid dataset parameters."""


@dataclass
class RawTable:
    """A rectangular table of mixed numeric/categorical cells plus a label
    column, as the parsers make it: each caller owns the one it gets."""

    columns: list                # per feature: a float array, or the raw
                                 # strings if categorical; label excluded
    names: list[str]             # feature names (label column excluded)
    labels: list                 # raw label cells
    categorical: list[bool]      # per-feature flag

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return len(self.columns)


@dataclass
class Dataset:
    """Normalized feature matrix with labels and a train/test partition."""

    x: np.ndarray                # n x d_t, entries in [0, 1]
    y: np.ndarray                # n integer labels in [0, k-1]
    k: int
    feature_names: list[str]
    train_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.x.ndim != 2 or self.x.shape[0] != self.y.shape[0]:
            raise DataError("feature matrix and labels disagree on sample count")
        if self.x.size and (self.x.min() < 0.0 or self.x.max() > 1.0):
            raise DataError("feature values must lie in [0, 1]")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.k):
            raise DataError("labels must lie in [0, k-1]")
        if self.train_mask is None:
            self.train_mask = np.ones(self.n, dtype=bool)

    @property
    def test_mask(self) -> np.ndarray:
        return ~self.train_mask

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d_t(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the class-conditional Gaussian synthetic generator."""

    n: int = 50_000
    d_t: int = 10
    k: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n < self.k:
            raise DataError("need at least one sample per class")
        if self.d_t < 1:
            raise DataError("need at least one feature")
        if self.k < 2:
            raise DataError(f"need at least two classes, got k={self.k}")


def _parse_column(cells: list[str], name: str) -> tuple[np.ndarray | list, bool]:
    """(the cells as a float array, False), or (the cells, True) if one cell
    is not a number; a numeric column with an inf or nan cell raises."""
    try:
        col = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        return cells, True
    if not np.isfinite(col).all():
        i = int(np.isfinite(col).argmin())
        raise DataError(f"column {name!r}, row {i + 2}: {cells[i]!r} is not finite")
    return col, False


_last_load: tuple = (None, None)    # (key, Dataset) of the last load_dataset


def _read(path) -> bytes:
    """A file's bytes: the load cache keys on them, so a kept Dataset is
    reused only for the very bytes it came from (a byte comparison, no digest)."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _label_index(label_col: int, width: int) -> int:
    """label_col as an index in [0, width); a value outside [-width, width) raises."""
    if not -width <= label_col < width:
        raise DataError(f"label column {label_col} is out of range for a table of "
                        f"{width} columns (-{width} to {width - 1})")
    return label_col % width


def _parse_plain(raw: bytes, label_col: int) -> RawTable | None:
    """The RawTable of a table whose feature cells numpy.loadtxt reads as
    finite floats, or None where the csv module might read it otherwise.

    loadtxt tokenizes in C and converts each cell with PyOS_string_to_double,
    the routine float() uses, so the columns get float()'s bits; the label
    column is read as text. Lines end in LF or CRLF. None for a quote or a
    NUL, a CR or LF outside the line endings, text that is not UTF-8, no data rows, a
    row without one cell per header column (a blank, whitespace-only or
    ragged line), a line longer than csv.field_size_limit(), fewer than 2
    distinct labels, a cell loadtxt rejects (such as "abc", "1_000" or an
    empty cell) and a non-finite value.
    """
    if b'"' in raw or b"\0" in raw:    # a NUL fails the csv module before 3.11
        return None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    eol = "\r\n" if "\r" in text else "\n"
    lines = text.split(eol)
    # a CR or LF outside the line endings would end a csv row as well
    if text.count("\r") + text.count("\n") != len(eol) * (len(lines) - 1):
        return None
    if not lines[-1]:
        lines.pop()
    # loadtxt warns on an empty body; the csv module rejects a long cell
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header, body = lines[0].split(","), lines[1:]
    width = len(header)
    if width < 2 or any(line.count(",") != width - 1 for line in body):
        return None
    j = _label_index(label_col, width)
    labels = [line.rsplit(",", width - j)[j - width] for line in body]
    if len(set(labels)) < 2:
        return None
    feat_idx = [i for i in range(width) if i != j]
    try:
        values = np.loadtxt(io.BytesIO(raw), delimiter=",", dtype=float, usecols=feat_idx,
                            comments=None, skiprows=1, ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return RawTable(columns=list(np.ascontiguousarray(values.T)),
                    names=[header[i] for i in feat_idx], labels=labels,
                    categorical=[False] * len(feat_idx))


def _parse_csv(raw: bytes, label_col: int) -> RawTable:
    """The RawTable of a UTF-8 comma-delimited file's bytes, header row first.

    label_col indexes the header (-1: the last column); a value outside
    [-width, width) for a table of width columns raises DataError. A column
    with any non-numeric cell keeps its raw strings and is tagged
    categorical, and an inf or nan cell in a numeric column raises
    DataError. A table of plain numbers takes _parse_plain's C reader; any
    other table is read by the csv module, cell by cell with float(), and
    that path raises every error. Both give the same names, labels and bits.
    Nothing is kept: the caller owns the table.
    """
    plain = _parse_plain(raw, label_col)
    return plain if plain is not None else _parse_rows(raw, label_col)


def _parse_rows(raw: bytes, label_col: int) -> RawTable:
    """The csv module's RawTable of a CSV file's bytes, each cell read by float()."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:    # such as a cell past csv.field_size_limit()
        raise DataError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError("empty file")
    header, data = rows[0], rows[1:]
    if not data:
        raise DataError("no data rows")
    width = len(header)
    for i, row in enumerate(data):
        if len(row) != width:
            raise DataError(f"ragged row {i + 2}: expected {width} cells, got {len(row)}")
    label_col = _label_index(label_col, width)
    labels = [row[label_col] for row in data]
    if len(set(labels)) < 2:
        raise DataError("label column must have at least 2 distinct values")
    feat_idx = [j for j in range(width) if j != label_col]
    parsed = [_parse_column([row[j] for row in data], header[j]) for j in feat_idx]
    return RawTable(columns=[col for col, _ in parsed],
                    names=[header[j] for j in feat_idx], labels=labels,
                    categorical=[cat for _, cat in parsed])


def encode_labels(raw_labels) -> tuple[np.ndarray, int]:
    """Map raw label cells to dense integers 0..k-1 in sorted-value order."""
    values = sorted(set(str(v) for v in raw_labels))
    lut = {v: i for i, v in enumerate(values)}
    return np.array([lut[str(v)] for v in raw_labels]), len(values)


def encode_categoricals(table: RawTable, y, train_mask) -> np.ndarray:
    """Replace categorical values by the mean label of the category over the
    training rows, those where train_mask is true.

    y holds the table's encoded labels (see encode_labels). Categories never
    seen in training fall back to the global training mean. Numeric columns
    pass through unchanged. Returns an n x d float matrix.
    """
    train_mask = np.asarray(train_mask, dtype=bool)
    out = np.empty((table.n_rows, table.n_features))
    y_train = y[train_mask].astype(float)
    global_mean = float(y_train.mean()) if y_train.size else 0.0
    for j, col in enumerate(table.columns):
        if not table.categorical[j]:
            out[:, j] = col
            continue
        keys, code = np.unique(np.asarray(col, dtype=object), return_inverse=True)
        # bincount adds in row order: the counts, then each category's label sum
        counts, sums = (np.bincount(code[train_mask], w, keys.size) for w in (None, y_train))
        means = np.divide(sums, counts, out=np.full(keys.size, global_mean), where=counts > 0)
        out[:, j] = means[code]
    return out


def normalize(values: np.ndarray, labels, k: int, feature_names=None) -> Dataset:
    """Per-feature min-max scaling into [0, 1], computed over the whole table.

    The reference procedure scales the entire table, train and test rows
    alike, so every value lands in [0, 1] without clipping. Constant
    features map to 0.
    """
    values = np.asarray(values, dtype=float)
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    span = hi - lo
    span[span == 0.0] = 1.0  # constant features map to 0
    x = (values - lo) / span
    names = list(feature_names) if feature_names is not None else [
        f"f{j}" for j in range(values.shape[1])]
    return Dataset(x=x, y=labels, k=k, feature_names=names)


def split_mask(n: int, fraction: float, seed: int) -> np.ndarray:
    """The first round(fraction n) rows of a seeded shuffle of n rows."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"train fraction must be in (0, 1), got {fraction}")
    perm = np.random.default_rng(seed).permutation(n)
    train_mask = np.zeros(n, dtype=bool)
    train_mask[perm[:int(round(fraction * n))]] = True
    return train_mask


def synthesize(spec: SyntheticSpec) -> Dataset:
    """Class-conditional Gaussian clusters, min-max normalized to [0, 1].

    Per-class means sit on random corners of the hypercube {-1, 1}^d_t, with
    unit isotropic covariance before normalization. Labels are balanced, and
    split_mask(n, 0.8, seed) picks the training rows.
    """
    rng = np.random.default_rng(spec.seed)
    # balanced labels: round-robin assignment, then shuffled
    y = np.arange(spec.n) % spec.k
    rng.shuffle(y)
    signs = rng.choice([-1.0, 1.0], size=(spec.k, spec.d_t))
    x = signs[y] + rng.standard_normal((spec.n, spec.d_t))
    ds = normalize(x, y, k=spec.k)
    ds.train_mask = split_mask(spec.n, 0.8, spec.seed)
    if ds.train_mask.all():     # 0.8 of n >= 1 rows always trains on one
        raise DataError("the 0.8 split leaves fewer than one sample on a side")
    return ds


def load_dataset(path, label_col: int = -1, train_fraction: float = 0.8,
                 seed: int = 0) -> Dataset:
    """Full pipeline: CSV -> categorical encoding -> normalize -> split.

    The last Dataset built is the one table a process keeps, keyed on the
    file's bytes themselves, label_col, train_fraction and seed, so repeated
    in-process ``vflpriv.cli.main`` calls on one table and split parse and
    encode it once; another split parses the table again. Each call gets a
    Dataset with its own writable arrays.
    """
    global _last_load
    raw = _read(path)
    key = (raw, label_col, train_fraction, seed)
    last_key, ds = _last_load
    if last_key != key:
        table = _parse_csv(raw, label_col)
        y, k = encode_labels(table.labels)
        # the split must be fixed before target-mean encoding (training rows only)
        train_mask = split_mask(table.n_rows, train_fraction, seed)
        values = encode_categoricals(table, y, train_mask)
        ds = normalize(values, y, k=k, feature_names=table.names)
        ds.train_mask = train_mask
        _last_load = key, ds
    return Dataset(x=ds.x.copy(), y=ds.y.copy(), k=ds.k,
                   feature_names=list(ds.feature_names), train_mask=ds.train_mask.copy())
