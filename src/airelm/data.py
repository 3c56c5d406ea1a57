"""Dataset ingestion and preparation.

Covers delimiter-separated tables, the MNIST IDX binary format, the two
dataset transforms used by the experiments (even/odd MNIST with random pixel
subsampling, SECOM feature selection with mean imputation), train/test
splitting with training-block standardization, and a self-contained
two-Gaussians generator so the test suite never needs a download.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .rng import RngStream


@dataclass(frozen=True)
class RawTable:
    """Numeric feature table with labels.

    A missing cell holds NaN in `features`; it is never silently zeroed.
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


def _open(path):
    """open(path, "rb"), or a DataError naming the file."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _read_text(path, newline=None) -> io.StringIO:
    """The file's text, decoded as UTF-8, with `open`'s newline handling,
    or a DataError naming the line of the first byte that is not UTF-8."""
    with _open(path) as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text ({exc.reason} at "
                        f"byte {exc.start})") from None


def _finite_cell(cell: str, missing: str, path, lineno: int,
                 column: int) -> float:
    """A feature cell as a float, NaN for the missing token; any other
    non-numeric, NaN or infinite value is an error naming file, line and
    column."""
    if cell == missing:
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-numeric cell {cell!r} in "
                        f"column {column}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}:{lineno}: non-finite cell {cell!r} in "
                        f"column {column}")
    return value


def load_csv(path, label_column, delimiter: str = ",", missing_token: str = None,
             has_header: bool = True, label_map: dict = None) -> RawTable:
    """Parse a delimiter-separated table into a RawTable.

    label_column is a header name (with has_header) or a 0-based column
    index in [0, width).  Cells equal to missing_token become NaN;
    any other non-numeric, NaN or infinite feature cell is a row-indexed
    error, as is a row whose label fails to parse (through label_map if
    given).
    """
    reader = csv.reader(_read_text(path, newline=""), delimiter=delimiter)
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

    # without a missing token, every feature cell converts in one call; the
    # cell loop below runs where that fails, to name the first bad cell
    cells = None
    if missing_token is None:
        with contextlib.suppress(ValueError):
            cells = np.array([row[:label_idx] + row[label_idx + 1:]
                              for row in body], dtype=float)
            cells = cells if np.isfinite(cells).all() else None

    feats, labels = [], np.empty(len(body), dtype=int)
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
        if cells is None:
            feats.append([_finite_cell(cell.strip(), missing_token, path,
                                       lineno, j)
                          for j, cell in enumerate(row) if j != label_idx])

    names = None
    if header is not None:
        names = tuple(h for j, h in enumerate(header) if j != label_idx)
    # D x (width - 1) even for a table with no rows
    features = np.array(feats, dtype=float) if cells is None else cells
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


def _text_rows(path) -> list:
    """(line number, whitespace-split cells) for every nonblank line."""
    return [(n, line.split()) for n, line in enumerate(_read_text(path), 1)
            if line.strip()]


def load_secom(features_path, labels_path) -> RawTable:
    """SECOM's two files: a space-separated feature matrix with "NaN" for a
    missing cell, and a label file whose first column is the -1/+1 label.

    An empty features file, a ragged row, a non-numeric or infinite cell or
    a NaN spelt other than "NaN", an unparseable label and unequal row
    counts are errors; a row's error names its file and line.
    """
    feat_rows = _text_rows(features_path)
    if not feat_rows:
        raise DataError(f"{features_path}: empty file")
    width = len(feat_rows[0][1])
    feats = np.empty((len(feat_rows), width))
    for i, (lineno, row) in enumerate(feat_rows):
        if len(row) != width:
            raise DataError(
                f"{features_path}:{lineno}: ragged row, expected {width} "
                f"cells got {len(row)}")
        feats[i] = [_finite_cell(cell, "NaN", features_path, lineno, j)
                    for j, cell in enumerate(row)]
    label_rows = _text_rows(labels_path)
    if len(label_rows) != len(feat_rows):
        raise DataError(
            f"{features_path} has {len(feat_rows)} feature rows, "
            f"{labels_path} {len(label_rows)} labels")
    labels = np.empty(len(label_rows), dtype=int)
    for i, (lineno, row) in enumerate(label_rows):
        try:
            labels[i] = int(float(row[0]))
        except (ValueError, OverflowError):
            raise DataError(
                f"{labels_path}:{lineno}: unparseable label {row[0]!r}") from None
    return RawTable(features=feats, labels=labels)


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_idx(path, magic: int, n_dims: int, what: str) -> np.ndarray:
    """An IDX file's unsigned-byte payload in the shape its header gives.
    The payload size the header claims is checked against the bytes the
    file holds before any array is made."""
    with _open(path) as fh:
        raw = fh.read()
    start = 4 * (n_dims + 1)
    if len(raw) < start:
        raise DataError(f"{path}: truncated header ({len(raw)} of {start} "
                        f"bytes)")
    header = struct.unpack_from(f">{n_dims + 1}I", raw)
    if header[0] != magic:
        raise DataError(f"{path}: bad {what} magic 0x{header[0]:08x}, "
                        f"expected 0x{magic:08x}")
    dims, left = header[1:], len(raw) - start
    size = math.prod(dims)
    if left < size:
        raise DataError(f"{path}: truncated {what} payload ({left} of {size} "
                        f"bytes)")
    return np.frombuffer(raw, np.uint8, size, start).reshape(dims)


def load_idx(images_path, labels_path) -> RawTable:
    """Parse an MNIST-style IDX image/label file pair.

    Big-endian 32-bit magics (0x00000803 images, 0x00000801 labels),
    unsigned-byte payloads; pixels are flattened row-major and rescaled to
    [0, 1].
    """
    pixels = _read_idx(images_path, _IDX_IMAGE_MAGIC, 3, "image")
    labels = _read_idx(labels_path, _IDX_LABEL_MAGIC, 1, "label").astype(int)
    count, h, w = pixels.shape
    if len(labels) != count:
        raise DataError(f"image/label count mismatch: {images_path} has "
                        f"{count} images, {labels_path} {len(labels)} labels")
    feats = pixels.reshape(count, h * w).astype(float) / 255.0
    return RawTable(features=feats, labels=labels)


def mnist_binarize(table: RawTable, n_pixels: int = 100,
                   rng: RngStream = None) -> RawTable:
    """Even/odd digit task on a random pixel subset.

    Selects n_pixels distinct pixel indices uniformly (kept in index order,
    shared by every row) and maps digit labels to +1 (even) / -1 (odd).
    """
    if n_pixels > table.n_features:
        raise DataError(
            f"n_pixels={n_pixels} exceeds available {table.n_features}")
    if n_pixels == table.n_features:
        idx = np.arange(table.n_features)
    else:
        idx = np.sort(rng.choice(table.n_features, n_pixels, replace=False))
    labels = np.where(table.labels % 2 == 0, 1, -1)
    return RawTable(features=table.features[:, idx],
                    labels=labels,
                    feature_names=None if table.feature_names is None
                    else tuple(table.feature_names[i] for i in idx))


def secom_prepare(table: RawTable, n_features: int = 20,
                  rng: RngStream = None) -> RawTable:
    """SECOM-style preparation: drop all-missing columns, pick n_features at
    random, mean-impute what is still missing, normalize labels to +-1."""
    usable = np.flatnonzero(~np.isnan(table.features).all(axis=0))
    if len(usable) < n_features:
        raise DataError(
            f"only {len(usable)} usable columns, need {n_features}")
    idx = np.sort(rng.choice(len(usable), n_features, replace=False))
    cols = usable[idx]
    feats = table.features[:, cols].copy()
    for col in feats.T:                 # views: imputing writes into feats
        missing = np.isnan(col)
        if missing.any():
            col[missing] = col[~missing].mean()
    labels = _to_pm1(table.labels).astype(int)
    return RawTable(features=feats, labels=labels,
                    feature_names=None if table.feature_names is None
                    else tuple(table.feature_names[c] for c in cols))


def train_count(d_total: int, train_ratio: float) -> int:
    """Rows `split_standardize` puts in the training block of a d_total-row
    table: round(d_total * train_ratio), leaving each block at least one."""
    n_tr = int(round(d_total * train_ratio))
    return min(max(n_tr, 1), d_total - 1)


def split_standardize(table: RawTable, train_ratio: float = 0.8,
                      rng: RngStream = None) -> Dataset:
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
