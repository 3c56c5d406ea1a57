"""Dataset ingestion and preparation.

Covers delimiter-separated tables (any numeric CSV, and the WBCD layout),
each loaded whole or refused; train/test splitting with training-block
standardization; and a two-Gaussians generator so the test suite never
needs a download.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .rng import RngStream


@dataclass(frozen=True)
class RawTable:
    """Numeric feature table with labels.

    A loaded table holds no NaN.  One built by hand may hold NaN at its
    missing cells; `split_standardize` refuses it until they are imputed.
    """

    features: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    feature_names: tuple = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.labels.shape[0] != self.features.shape[0]:
            raise DataError(
                f"label count {self.labels.shape[0]} != row count "
                f"{self.features.shape[0]}")

    @property
    def present(self) -> np.ndarray:
        """False exactly at the missing cells."""
        return ~np.isnan(self.features)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Standardized features with +-1 targets and a fixed train/test split."""

    x_train: np.ndarray = field(repr=False)
    t_train: np.ndarray = field(repr=False)
    x_test: np.ndarray = field(repr=False)
    t_test: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        return self.x_train.shape[1]


def _to_pm1(labels: np.ndarray) -> np.ndarray:
    """Normalize label codes to +-1: accepts {-1,+1} as-is and {0,1} as
    0 -> -1, 1 -> +1; anything else is an error."""
    labels = np.asarray(labels)
    vals = set(labels.tolist())
    if vals <= {-1, 1}:
        return labels.astype(float)
    if vals <= {0, 1}:
        return np.where(labels == 1, 1.0, -1.0)
    raise DataError(f"cannot map label values {sorted(vals)} to -1/+1")


def _read_text(path) -> io.StringIO:
    """The file's text, decoded as UTF-8 with newlines kept for the csv
    module, or a DataError naming the file, or the line of its first byte
    that is not UTF-8."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        return io.StringIO(raw.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text ({exc.reason} at "
                        f"byte {exc.start})") from None


def _check_cell(cell: str, path, lineno: int, column: int) -> None:
    """A DataError naming file, line and column if the feature cell is
    non-numeric, NaN or infinite."""
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-numeric cell {cell!r} in "
                        f"column {column}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}:{lineno}: non-finite cell {cell!r} in "
                        f"column {column}")


def load_csv(path, label_column, delimiter: str = ",",
             has_header: bool = True, label_map: dict = None) -> RawTable:
    """Parse a delimiter-separated table into a RawTable.

    label_column is a header name (with has_header) or a 0-based column
    index in [0, width).  A non-numeric (`NA` included), NaN or infinite
    feature cell is a DataError naming file, line and column, as is a row
    whose label fails to parse (through label_map if given).
    """
    reader = csv.reader(_read_text(path), delimiter=delimiter)
    try:
        rows = [r for r in reader if r]
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")

    header = [h.strip() for h in rows[0]] if has_header else None
    body = rows[1:] if has_header else rows
    width = len(rows[0])
    if has_header and isinstance(label_column, str):
        if label_column not in header:
            raise DataError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
    else:
        try:
            label_idx = int(label_column)
        except (TypeError, ValueError):
            raise DataError(f"{path}: label_column {label_column!r} is "
                            f"neither a header name nor an index") from None
        # a negative index would pick the label but keep it as a feature
        if not 0 <= label_idx < width:
            raise DataError(f"{path}: label_column {label_idx} is outside the "
                            f"{width} columns")

    # every feature cell converts in this one call, which reads what
    # float(cell) reads; where it fails, the row loop names the first bad cell
    features = None
    with contextlib.suppress(ValueError):
        features = np.array([row[:label_idx] + row[label_idx + 1:]
                             for row in body], dtype=float)
    whole = features is not None and np.isfinite(features).all()

    labels = np.empty(len(body), dtype=int)
    for i, row in enumerate(body):
        lineno = i + (2 if has_header else 1)
        if len(row) != width:
            raise DataError(
                f"{path}:{lineno}: ragged row, expected {width} cells got {len(row)}")
        raw_label = row[label_idx].strip()
        if label_map is not None and raw_label not in label_map:
            raise DataError(
                f"{path}:{lineno}: label {raw_label!r} not in mapping")
        try:        # an integer label too large for the array overflows
            labels[i] = (int(label_map[raw_label]) if label_map is not None
                         else int(float(raw_label)))
        except (ValueError, OverflowError):
            raise DataError(
                f"{path}:{lineno}: unparseable label {raw_label!r}") from None
        if not whole:
            for j, cell in enumerate(row):
                if j != label_idx:
                    _check_cell(cell.strip(), path, lineno, j)

    names = None
    if header is not None:
        names = tuple(h for j, h in enumerate(header) if j != label_idx)
    # D x (width - 1) even for a table with no rows
    return RawTable(features=features.reshape(len(body), width - 1),
                    labels=labels, feature_names=names)


def load_wbcd(path) -> RawTable:
    """Wisconsin breast-cancer diagnostic table in its canonical CSV layout:
    case id, M/B diagnosis, 30 numeric features; no header row.  Benign maps
    to +1, malignant to -1; the case-id column is dropped."""
    table = load_csv(path, label_column=1, has_header=False,
                     label_map={"M": -1, "B": 1})
    if table.n_features != 31:
        raise DataError(
            f"{path}: expected id + 30 features, got {table.n_features} columns")
    return RawTable(features=table.features[:, 1:], labels=table.labels)


def train_count(d_total: int, train_ratio: float) -> int:
    """Rows `split_standardize` puts in the training block of a d_total-row
    table: round(d_total * train_ratio), leaving each block at least one."""
    n_tr = int(round(d_total * train_ratio))
    return min(max(n_tr, 1), d_total - 1)


def split_standardize(table: RawTable, train_ratio: float = 0.8, *,
                      rng: RngStream) -> Dataset:
    """Uniform random split + per-feature standardization.

    Standardization statistics come from the training block only and are
    applied to both blocks; a constant training column gets std 1 and
    passes through as zeros after centering.  Labels are normalized to
    +-1, and a single-class table is an error.
    """
    if not (0.0 < train_ratio < 1.0):
        raise DataError(f"train_ratio must lie in (0, 1), got {train_ratio}")
    d_total = table.n_rows
    if d_total < 2:
        raise DataError("need at least 2 rows to split")
    if np.isnan(table.features).any():
        raise DataError("table still has missing cells; impute before splitting")
    labels = _to_pm1(table.labels)
    if np.all(labels == labels[0]):
        raise DataError("single-class table")

    perm = rng.permutation(d_total)
    n_tr = train_count(d_total, train_ratio)
    tr, te = perm[:n_tr], perm[n_tr:]

    x_tr_raw = table.features[tr]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = x_tr_raw.mean(axis=0), x_tr_raw.std(axis=0)
    # a bitwise-constant column can still show std ~ 1e-16 when its mean
    # is not exactly representable, so test constancy directly
    constant = np.all(x_tr_raw == x_tr_raw[:1], axis=0) | (std == 0.0)
    mean = np.where(constant, x_tr_raw[0], mean)
    std = np.where(constant, 1.0, std)
    _check_finite(table, np.isfinite(mean) & np.isfinite(std),
                  "its training mean or std overflows float64")
    # a test cell far outside the training spread can still overflow
    with np.errstate(over="ignore", invalid="ignore"):
        x_te = (table.features[te] - mean) / std
    _check_finite(table, np.isfinite(x_te).all(axis=0),
                  "a test-block value overflows float64 when standardized")
    return Dataset(x_train=(x_tr_raw - mean) / std, t_train=labels[tr],
                   x_test=x_te, t_test=labels[te])


def _check_finite(table: RawTable, finite: np.ndarray, what: str) -> None:
    """DataError naming the first feature whose entry of finite is False."""
    if not finite.all():
        j = int(np.argmin(finite))
        name = table.feature_names[j] if table.feature_names else j
        raise DataError(f"feature {name!r}: {what}")


def synth_two_gaussians(rng: RngStream, d_total: int, d: int,
                        separation: float) -> RawTable:
    """Two isotropic Gaussians at means +-(separation/2)(1,...,1)/sqrt(d).

    Class counts differ by at most one; labels are +-1.  separation is the
    distance between the class means, so the Bayes error depends on it alone
    (unit variance per coordinate).
    """
    if d_total < 2 or d < 1:
        raise DataError(f"need d_total >= 2 and d >= 1, got {d_total}, {d}")
    n_pos = (d_total + 1) // 2
    n_neg = d_total - n_pos
    mu = (separation / 2.0) * np.ones(d) / np.sqrt(d)
    x = np.vstack([rng.normal(0.0, 1.0, (n_pos, d)) + mu,
                   rng.normal(0.0, 1.0, (n_neg, d)) - mu])
    labels = np.concatenate([np.ones(n_pos, dtype=int),
                             -np.ones(n_neg, dtype=int)])
    return RawTable(features=x, labels=labels)
