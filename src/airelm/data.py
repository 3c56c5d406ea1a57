"""Dataset ingestion and preparation.

Covers delimiter-separated tables, the MNIST IDX binary format, the two
dataset transforms used by the experiments (even/odd MNIST with random pixel
subsampling, SECOM feature selection with mean imputation), train/test
splitting with training-block standardization, and a self-contained
two-Gaussians generator so the test suite never needs a download.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .rng import RngStream


@dataclass(frozen=True)
class RawTable:
    """Numeric feature table with labels and an explicit presence mask.

    Missing cells hold NaN in `features` and False in `present`; they are
    never silently zeroed.
    """

    features: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    present: np.ndarray = field(repr=False)
    feature_names: tuple = None

    def __post_init__(self):
        if self.labels.shape[0] != self.features.shape[0]:
            raise DataError(
                f"label count {self.labels.shape[0]} != row count "
                f"{self.features.shape[0]}")
        if self.present.shape != self.features.shape:
            raise DataError("presence mask shape must match features")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class StandardizationStats:
    """Per-feature training-block mean/std; zero-variance columns get std = 1
    and are flagged in `constant`."""

    mean: np.ndarray = field(repr=False)
    std: np.ndarray = field(repr=False)
    constant: np.ndarray = field(repr=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def invert(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) * self.std + self.mean


@dataclass(frozen=True)
class Dataset:
    """Standardized features with +-1 targets and a fixed train/test split."""

    x_train: np.ndarray = field(repr=False)
    t_train: np.ndarray = field(repr=False)
    x_test: np.ndarray = field(repr=False)
    t_test: np.ndarray = field(repr=False)
    stats: StandardizationStats = None

    @property
    def d(self) -> int:
        return self.x_train.shape[1]


def _to_pm1(labels: np.ndarray) -> np.ndarray:
    """Normalize label codes to +-1: accepts {-1,+1} as-is and {0,1} as
    0 -> -1, 1 -> +1; anything else is an error."""
    labels = np.asarray(labels)
    vals = set(np.unique(labels).tolist())
    if vals <= {-1, 1}:
        return labels.astype(float)
    if vals <= {0, 1}:
        return np.where(labels == 1, 1.0, -1.0)
    raise DataError(f"cannot map label values {sorted(vals)} to -1/+1")


def _finite_cell(cell: str, path, lineno: int, column: int) -> float:
    """A present feature cell as a float; non-numeric, NaN and infinite
    values are errors naming file, line and column."""
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-numeric cell {cell!r} in "
                        f"column {column}") from None
    if not np.isfinite(value):
        raise DataError(f"{path}:{lineno}: non-finite cell {cell!r} in "
                        f"column {column}")
    return value


def load_csv(path, label_column, delimiter: str = ",", missing_token: str = None,
             has_header: bool = True, label_map: dict = None) -> RawTable:
    """Parse a delimiter-separated table into a RawTable.

    label_column is a header name (with has_header) or a 0-based column
    index in [0, width).  Cells equal to missing_token become masked NaNs;
    any other non-numeric, NaN or infinite feature cell is a row-indexed
    error, as is a row whose label fails to parse (through label_map if
    given).
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        rows = [r for r in csv.reader(fh, delimiter=delimiter) if r]
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

    feats, labels, mask = [], [], []
    for i, row in enumerate(body):
        lineno = i + (2 if has_header else 1)
        if len(row) != width:
            raise DataError(
                f"{path}:{lineno}: ragged row, expected {width} cells got {len(row)}")
        raw_label = row[label_idx].strip()
        if label_map is not None:
            if raw_label not in label_map:
                raise DataError(
                    f"{path}:{lineno}: label {raw_label!r} not in mapping")
            labels.append(int(label_map[raw_label]))
        else:
            try:
                labels.append(int(float(raw_label)))
            except (ValueError, OverflowError):
                raise DataError(
                    f"{path}:{lineno}: unparseable label {raw_label!r}") from None
        frow, mrow = [], []
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            cell = cell.strip()
            if missing_token is not None and cell == missing_token:
                frow.append(np.nan)
                mrow.append(False)
                continue
            frow.append(_finite_cell(cell, path, lineno, j))
            mrow.append(True)
        feats.append(frow)
        mask.append(mrow)

    names = None
    if header is not None:
        names = tuple(h for j, h in enumerate(header) if j != label_idx)
    return RawTable(features=np.array(feats, dtype=float),
                    labels=np.array(labels, dtype=int),
                    present=np.array(mask, dtype=bool),
                    feature_names=names)


def load_wbcd(path) -> RawTable:
    """Wisconsin breast-cancer diagnostic table in its canonical CSV layout:
    case id, M/B diagnosis, 30 numeric features; no header row.  Benign maps
    to +1, malignant to -1; the case-id column is dropped."""
    table = load_csv(path, label_column=1, has_header=False,
                     label_map={"M": -1, "B": 1})
    if table.n_features != 31:
        raise DataError(
            f"{path}: expected id + 30 features, got {table.n_features} columns")
    return RawTable(features=table.features[:, 1:],
                    labels=table.labels,
                    present=table.present[:, 1:])


def _text_rows(path) -> list:
    """(line number, whitespace-split cells) for every nonblank line."""
    try:
        fh = open(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        return [(n, line.split()) for n, line in enumerate(fh, 1)
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
    mask = np.ones_like(feats, dtype=bool)
    for i, (lineno, row) in enumerate(feat_rows):
        if len(row) != width:
            raise DataError(
                f"{features_path}:{lineno}: ragged row, expected {width} "
                f"cells got {len(row)}")
        for j, cell in enumerate(row):
            if cell == "NaN":
                feats[i, j] = np.nan
                mask[i, j] = False
                continue
            feats[i, j] = _finite_cell(cell, features_path, lineno, j)
    label_rows = _text_rows(labels_path)
    if len(label_rows) != len(feat_rows):
        raise DataError(
            f"SECOM: {len(feat_rows)} feature rows vs {len(label_rows)} labels")
    labels = np.empty(len(label_rows), dtype=int)
    for i, (lineno, row) in enumerate(label_rows):
        try:
            labels[i] = int(float(row[0]))
        except (ValueError, OverflowError):
            raise DataError(
                f"{labels_path}:{lineno}: unparseable label {row[0]!r}") from None
    return RawTable(features=feats, labels=labels, present=mask)


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_exact(fh, n: int, path, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise DataError(f"{path}: truncated {what} ({len(buf)} of {n} bytes)")
    return buf


def load_idx(images_path, labels_path) -> RawTable:
    """Parse an MNIST-style IDX image/label file pair.

    Big-endian 32-bit magics (0x00000803 images, 0x00000801 labels),
    unsigned-byte payloads; pixels are flattened row-major and rescaled to
    [0, 1].
    """
    try:
        fh = open(images_path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {images_path}: {exc}") from None
    with fh:
        magic, count, h, w = struct.unpack(">IIII",
                                           _read_exact(fh, 16, images_path, "header"))
        if magic != _IDX_IMAGE_MAGIC:
            raise DataError(
                f"{images_path}: bad image magic 0x{magic:08x}, "
                f"expected 0x{_IDX_IMAGE_MAGIC:08x}")
        payload = _read_exact(fh, count * h * w, images_path, "pixel payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, h * w)

    try:
        fh = open(labels_path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {labels_path}: {exc}") from None
    with fh:
        magic, lcount = struct.unpack(">II",
                                      _read_exact(fh, 8, labels_path, "header"))
        if magic != _IDX_LABEL_MAGIC:
            raise DataError(
                f"{labels_path}: bad label magic 0x{magic:08x}, "
                f"expected 0x{_IDX_LABEL_MAGIC:08x}")
        lpayload = _read_exact(fh, lcount, labels_path, "label payload")
    labels = np.frombuffer(lpayload, dtype=np.uint8).astype(int)
    if lcount != count:
        raise DataError(
            f"image/label count mismatch: {count} images vs {lcount} labels")

    feats = pixels.astype(float) / 255.0
    return RawTable(features=feats, labels=labels,
                    present=np.ones_like(feats, dtype=bool))


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
                    present=table.present[:, idx],
                    feature_names=None if table.feature_names is None
                    else tuple(table.feature_names[i] for i in idx))


def secom_prepare(table: RawTable, n_features: int = 20,
                  rng: RngStream = None) -> RawTable:
    """SECOM-style preparation: drop all-missing columns, pick n_features at
    random, mean-impute what is still missing, normalize labels to +-1."""
    usable = np.where(table.present.any(axis=0))[0]
    if len(usable) < n_features:
        raise DataError(
            f"only {len(usable)} usable columns, need {n_features}")
    idx = np.sort(rng.choice(len(usable), n_features, replace=False))
    cols = usable[idx]
    feats = table.features[:, cols].copy()
    mask = table.present[:, cols]
    for j in range(n_features):
        col = feats[:, j]
        missing = ~mask[:, j]
        if missing.any():
            col[missing] = col[mask[:, j]].mean()
    labels = _to_pm1(table.labels).astype(int)
    return RawTable(features=feats, labels=labels,
                    present=np.ones_like(feats, dtype=bool),
                    feature_names=None if table.feature_names is None
                    else tuple(table.feature_names[c] for c in cols))


def train_count(d_total: int, train_ratio: float) -> int:
    """Rows `split_standardize` puts in the training block of a d_total-row
    table: round(d_total * train_ratio), leaving each block at least one."""
    n_tr = int(round(d_total * train_ratio))
    return min(max(n_tr, 1), d_total - 1)


def split_standardize(table: RawTable, train_ratio: float = 0.8,
                      rng: RngStream = None,
                      allow_single_class: bool = False) -> Dataset:
    """Uniform random split + per-feature standardization.

    Standardization statistics come from the training block only and are
    applied to both blocks; zero-variance columns are flagged and pass
    through as zeros after centering.  Labels are normalized to +-1.
    """
    if not (0.0 < train_ratio < 1.0):
        raise DataError(f"train_ratio must lie in (0, 1), got {train_ratio}")
    d_total = table.n_rows
    if d_total < 2:
        raise DataError("need at least 2 rows to split")
    if not table.present.all():
        raise DataError("table still has missing cells; impute before splitting")
    labels = _to_pm1(table.labels)
    if len(np.unique(labels)) < 2 and not allow_single_class:
        raise DataError("single-class table (pass allow_single_class to override)")

    perm = rng.permutation(d_total)
    n_tr = train_count(d_total, train_ratio)
    tr, te = perm[:n_tr], perm[n_tr:]

    x_tr_raw = table.features[tr]
    mean = x_tr_raw.mean(axis=0)
    std = x_tr_raw.std(axis=0)
    # a bitwise-constant column can still show std ~ 1e-16 when its mean
    # is not exactly representable, so test constancy directly
    constant = np.all(x_tr_raw == x_tr_raw[:1], axis=0) | (std == 0.0)
    mean = np.where(constant, x_tr_raw[0], mean)
    std = np.where(constant, 1.0, std)
    stats = StandardizationStats(mean=mean, std=std, constant=constant)
    return Dataset(x_train=stats.apply(x_tr_raw),
                   t_train=labels[tr],
                   x_test=stats.apply(table.features[te]),
                   t_test=labels[te],
                   stats=stats)


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
    return RawTable(features=x, labels=labels,
                    present=np.ones_like(x, dtype=bool))
