"""Experiment configuration: dataclasses plus strict INI-file parsing.

Config files are flat INI text: each config field is one key, in the section
named by its field metadata.  Unknown sections or keys are hard errors so
typos fail fast instead of silently running defaults.
"""

from __future__ import annotations

import configparser
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

from .activation import RappParams
from .channel import ArConfig, RiceanConfig
from .data import train_count
from .errors import ConfigError, OutputError

KINDS = ("sweep_nr", "sweep_snr", "sweep_kappa", "online", "single")

# the [dataset] keys naming the files each dataset reads
DATASET_FILES = {"synthetic": (), "wbcd": ("path",), "csv": ("path",),
                 "mnist": ("images", "labels"), "secom": ("path", "labels")}

DEFAULT_GRIDS = {
    "sweep_nr": (64.0, 128.0),
    "sweep_snr": (0.0, 10.0, 20.0, 30.0),
    "sweep_kappa": (0.0, 1.0, 10.0, 100.0),
}


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _to_float(raw: str) -> float:
    low = raw.strip().lower()
    if low in ("inf", "+inf", "infinity", "noiseless"):
        return float("inf")
    return float(raw)


def _to_grid(raw: str) -> tuple:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError(raw)
    return tuple(_to_float(p) for p in parts)


def _to_label_map(raw: str) -> dict:
    out = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, val = item.partition(":")
        if not _:
            raise ValueError(raw)
        out[key.strip()] = int(val)
    if not out:
        raise ValueError(raw)
    return out


def _to_label_column(raw: str):
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        return raw


def _key(section: str, default, parse):
    """A config field read from INI key `[section] <field name>` by `parse`."""
    return field(default=default,
                 metadata={"section": section, "parse": parse})


@dataclass(frozen=True)
class DatasetConfig:
    # synthetic | wbcd | csv | mnist | secom
    name: str = _key("dataset", "synthetic", str)
    path: str = _key("dataset", None, str)     # csv file; secom features file
    images: str = _key("dataset", None, str)   # mnist idx images
    labels: str = _key("dataset", None, str)   # mnist idx labels; secom labels
    label_column: object = _key("dataset", 0, _to_label_column)
    delimiter: str = _key("dataset", ",", str)
    missing_token: str = _key("dataset", None, str)
    has_header: bool = _key("dataset", True, _to_bool)
    label_map: dict = _key("dataset", None, _to_label_map)
    train_ratio: float = _key("dataset", 0.8, float)
    # optional row cap before splitting
    subsample: int = _key("dataset", None, int)
    synth_size: int = _key("dataset", 400, int)
    synth_d: int = _key("dataset", 8, int)
    synth_separation: float = _key("dataset", 4.0, float)
    mnist_pixels: int = _key("dataset", 100, int)
    secom_features: int = _key("dataset", 20, int)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = _key("experiment", "single", str)
    seeds: int = _key("experiment", 300, int)
    master_seed: int = _key("experiment", 0, int)
    baseline: bool = _key("experiment", False, _to_bool)
    threads: int = _key("experiment", 1, int)
    out: str = _key("experiment", None, str)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    kappa: float = _key("channel", 0.0, float)
    pathloss: float = _key("channel", 1.0, float)
    los_angle_rx: float = _key("channel", 0.0, float)
    los_angle_tx: float = _key("channel", 0.0, float)
    snr_db: float = _key("channel", float("inf"), _to_float)
    y_sat: float = _key("activation", 1.5, float)
    alpha: int = _key("activation", 2, int)
    # resolved by `resolved()`: 1024 online, else 256
    n_r: int = _key("model", None, int)
    digital_low: float = _key("model", -1.0, float)
    digital_high: float = _key("model", 1.0, float)
    grid: tuple = _key("sweep", None, _to_grid)
    eta: float = _key("online", 0.9, float)
    gamma: float = _key("online", 0.5, float)
    batch_size: int = _key("online", 32, int)
    steps: int = _key("online", 5, int)
    iters_per_step: int = _key("online", 20, int)

    def resolved(self) -> "ExperimentConfig":
        """Fill kind-dependent defaults and validate."""
        cfg = self
        if cfg.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
        if cfg.n_r is None:
            cfg = replace(cfg, n_r=1024 if cfg.kind == "online" else 256)
        if cfg.grid is None and cfg.kind in DEFAULT_GRIDS:
            cfg = replace(cfg, grid=DEFAULT_GRIDS[cfg.kind])
        if cfg.kind in DEFAULT_GRIDS and not cfg.grid:
            raise ConfigError(f"{cfg.kind} needs a nonempty sweep grid")
        for g in cfg.grid or ():
            if math.isnan(g):
                raise ConfigError(f"sweep grid values must be numbers, got {g}")
            if cfg.kind == "sweep_nr" and not (1 <= g <= sys.maxsize
                                               and g == int(g)):
                raise ConfigError(
                    f"sweep_nr grid values are antenna counts and must be "
                    f"integers in [1, {sys.maxsize}], got {g}")
        snrs = cfg.grid if cfg.kind == "sweep_snr" else ()
        for snr in (cfg.snr_db, *snrs):
            # -inf dB is a zero signal: sigma2 = P / 0 is infinite, the fit NaN
            if math.isnan(snr) or snr == -math.inf:
                raise ConfigError(
                    f"snr_db must be a finite number or inf, got {snr}")
        if cfg.seeds < 1:
            raise ConfigError(f"seeds must be >= 1, got {cfg.seeds}")
        if cfg.master_seed < 0:
            raise ConfigError(
                f"master_seed must be >= 0, got {cfg.master_seed}")
        if cfg.n_r < 1:
            raise ConfigError(f"n_r must be >= 1, got {cfg.n_r}")
        if cfg.n_r > sys.maxsize:
            raise ConfigError(
                f"n_r must be at most {sys.maxsize}, got {cfg.n_r}")
        kappas = cfg.grid if cfg.kind == "sweep_kappa" else ()
        for kappa in (cfg.kappa, *kappas):                # validates each
            RiceanConfig(n_r=cfg.n_r, n_t=1, kappa=kappa,
                         pathloss=cfg.pathloss, los_angle_rx=cfg.los_angle_rx,
                         los_angle_tx=cfg.los_angle_tx)
        RappParams(y_sat=cfg.y_sat, alpha=cfg.alpha)    # validates both
        ArConfig(eta=cfg.eta)                           # eta in (0, 1]
        if not (0.0 < cfg.gamma < 1.0):
            raise ConfigError(f"gamma must lie in (0, 1), got {cfg.gamma}")
        if cfg.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {cfg.batch_size}")
        if cfg.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {cfg.steps}")
        if cfg.iters_per_step < 0:
            raise ConfigError(
                f"iters_per_step must be >= 0, got {cfg.iters_per_step}")
        if not -math.inf < cfg.digital_low < cfg.digital_high < math.inf:
            raise ConfigError(f"need finite digital_low < digital_high, got "
                              f"[{cfg.digital_low}, {cfg.digital_high}]")
        if cfg.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
        if not (0.0 < cfg.dataset.train_ratio < 1.0):
            raise ConfigError(
                f"train_ratio must lie in (0, 1), got {cfg.dataset.train_ratio}")
        ds = cfg.dataset
        if ds.subsample is not None and ds.subsample < 2:
            raise ConfigError(f"subsample must be >= 2, got {ds.subsample}")
        if ds.name not in DATASET_FILES:
            raise ConfigError(f"unknown dataset name {ds.name!r}")
        # a file key the dataset does not read is ignored, set or not
        for key in DATASET_FILES[ds.name]:
            p = getattr(ds, key)
            if p is None:
                raise ConfigError(f"dataset {ds.name!r} needs [dataset] {key}")
            if not os.path.exists(p):
                raise ConfigError(f"[dataset] {key} file does not exist: {p}")
        if ds.name == "synthetic":
            if ds.synth_size < 2:
                raise ConfigError(
                    f"synth_size must be >= 2, got {ds.synth_size}")
            if ds.synth_d < 1:
                raise ConfigError(f"synth_d must be >= 1, got {ds.synth_d}")
            if ds.synth_size * ds.synth_d > sys.maxsize:
                raise ConfigError("synth_size x synth_d must be at most "
                                  f"{sys.maxsize} cells, got "
                                  f"{ds.synth_size} x {ds.synth_d}")
            if not math.isfinite(ds.synth_separation):
                raise ConfigError(f"synth_separation must be finite, got "
                                  f"{ds.synth_separation}")
            cfg.check_batch_size(ds.synth_size)
        if cfg.out is not None:
            parent = os.path.dirname(os.path.abspath(cfg.out))
            if not os.path.isdir(parent):
                raise OutputError(f"output directory does not exist: {parent}")
            if os.path.isdir(cfg.out):
                raise OutputError(f"output path is a directory: {cfg.out}")
        return cfg

    def check_batch_size(self, n_rows: int) -> None:
        """Reject an online batch_size above the training block that an
        n_rows table leaves after `subsample` and the train/test split."""
        ds = self.dataset
        if ds.subsample is not None:
            n_rows = min(n_rows, ds.subsample)
        if self.kind != "online" or n_rows < 2:
            return          # too few rows is a data error, found on loading
        d_train = train_count(n_rows, ds.train_ratio)
        if self.batch_size > d_train:
            raise ConfigError(
                f"batch_size must be at most the {d_train} training rows, "
                f"got {self.batch_size}")


def parse_config(path: str, kind: str = None) -> ExperimentConfig:
    """Read an INI config file into an ExperimentConfig.

    Each config field is one INI key, in the section its field metadata
    names; keys the file leaves unset or empty keep the field default.
    `kind`, when given (by the CLI subcommand), overrides any kind in the
    file.  Unknown sections/keys, and a file that cannot be read as UTF-8
    text, raise ConfigError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    keys = {(f.metadata["section"], f.name): (cls, f.metadata["parse"])
            for cls in (DatasetConfig, ExperimentConfig)
            for f in fields(cls) if f.metadata}
    values = {DatasetConfig: {}, ExperimentConfig: {}}
    for section in parser.sections():
        if section not in {sec for sec, _ in keys}:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser[section].items():
            if (section, key) not in keys:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            cls, parse = keys[section, key]
            if not raw.strip():
                continue
            try:
                values[cls][key] = parse(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"{path}: bad value for [{section}] {key} = "
                                  f"{raw!r}") from None
    if kind:
        values[ExperimentConfig]["kind"] = kind
    return ExperimentConfig(dataset=DatasetConfig(**values[DatasetConfig]),
                            **values[ExperimentConfig]).resolved()

