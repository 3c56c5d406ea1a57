"""Experiment configuration: dataclasses plus strict INI-file parsing.

Config files are flat INI text with sections mirroring the config fields
(see the schema table below).  Unknown sections or keys are hard errors so
typos fail fast instead of silently running defaults.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, replace

from .errors import ConfigError, OutputError

KINDS = ("sweep_nr", "sweep_snr", "sweep_kappa", "online", "single")

DEFAULT_GRIDS = {
    "sweep_nr": (64.0, 128.0),
    "sweep_snr": (0.0, 10.0, 20.0, 30.0),
    "sweep_kappa": (0.0, 1.0, 10.0, 100.0),
}


@dataclass(frozen=True)
class DatasetConfig:
    name: str = "synthetic"          # synthetic | wbcd | csv | mnist | secom
    path: str = None                 # csv file (wbcd/csv); secom features file
    images: str = None               # mnist idx images
    labels: str = None               # mnist idx labels; secom labels file
    label_column: object = 0
    delimiter: str = ","
    missing_token: str = None
    has_header: bool = True
    label_map: dict = None
    train_ratio: float = 0.8
    subsample: int = None            # optional row cap before splitting
    synth_size: int = 400
    synth_d: int = 8
    synth_separation: float = 4.0
    mnist_pixels: int = 100
    secom_features: int = 20


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "single"
    seeds: int = 300
    master_seed: int = 0
    baseline: bool = False
    threads: int = 1
    out: str = None
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    # channel
    kappa: float = 0.0
    pathloss: float = 1.0
    los_angle_rx: float = 0.0
    los_angle_tx: float = 0.0
    snr_db: float = float("inf")
    # activation
    y_sat: float = 1.5
    alpha: int = 2
    # model
    n_r: int = None                  # resolved by `resolved()`: 1024 online, else 256
    digital_low: float = -1.0
    digital_high: float = 1.0
    # sweep
    grid: tuple = None
    # online
    eta: float = 0.9
    gamma: float = 0.5
    batch_size: int = 32
    steps: int = 5
    iters_per_step: int = 20

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
            if cfg.kind == "sweep_nr" and not (math.isfinite(g) and g >= 1
                                               and g == int(g)):
                raise ConfigError(
                    f"sweep_nr grid values are antenna counts and must be "
                    f"positive integers, got {g}")
        snrs = cfg.grid if cfg.kind == "sweep_snr" else ()
        for snr in (cfg.snr_db, *snrs):
            # -inf dB is a zero signal: sigma2 = P / 0 is infinite, the fit NaN
            if math.isnan(snr) or snr == -math.inf:
                raise ConfigError(
                    f"snr_db must be a finite number or inf, got {snr}")
        if cfg.seeds < 1:
            raise ConfigError(f"seeds must be >= 1, got {cfg.seeds}")
        if cfg.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
        if not (0.0 < cfg.dataset.train_ratio < 1.0):
            raise ConfigError(
                f"train_ratio must lie in (0, 1), got {cfg.dataset.train_ratio}")
        ds = cfg.dataset
        if ds.name not in ("synthetic", "wbcd", "csv", "mnist", "secom"):
            raise ConfigError(f"unknown dataset name {ds.name!r}")
        for label, p in (("dataset path", ds.path), ("images", ds.images),
                         ("labels", ds.labels)):
            if p is not None and not os.path.exists(p):
                raise ConfigError(f"{label} file does not exist: {p}")
        if ds.name == "csv" and ds.path is None:
            raise ConfigError("dataset name 'csv' needs a path")
        if ds.name == "mnist" and (ds.images is None or ds.labels is None):
            raise ConfigError("dataset name 'mnist' needs images and labels paths")
        if ds.name == "secom" and (ds.path is None or ds.labels is None):
            raise ConfigError("dataset name 'secom' needs path and labels")
        if cfg.out is not None:
            parent = os.path.dirname(os.path.abspath(cfg.out))
            if not os.path.isdir(parent):
                raise OutputError(f"output directory does not exist: {parent}")
            if os.path.isdir(cfg.out):
                raise OutputError(f"output path is a directory: {cfg.out}")
        return cfg


_SCHEMA = {
    "experiment": ("kind", "seeds", "master_seed", "baseline", "threads", "out"),
    "dataset": ("name", "path", "images", "labels", "label_column", "delimiter",
                "missing_token", "has_header", "label_map", "train_ratio",
                "subsample", "synth_size", "synth_d", "synth_separation",
                "mnist_pixels", "secom_features"),
    "channel": ("kappa", "pathloss", "los_angle_rx", "los_angle_tx", "snr_db"),
    "activation": ("y_sat", "alpha"),
    "model": ("n_r", "digital_low", "digital_high"),
    "sweep": ("grid",),
    "online": ("eta", "gamma", "batch_size", "steps", "iters_per_step"),
}


def _convert(section, key, raw, to, path):
    try:
        return to(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{path}: bad value for [{section}] {key} = {raw!r}") from None


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


def parse_config(path: str, kind: str = None) -> ExperimentConfig:
    """Read an INI config file into an ExperimentConfig.

    `kind`, when given (by the CLI subcommand), overrides any kind in the
    file.  Unknown sections/keys raise ConfigError.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file does not exist: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")

    def get(section, key, to, default):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            if raw.strip() == "":
                return default
            return _convert(section, key, raw, to, path)
        return default

    ds = DatasetConfig(
        name=get("dataset", "name", str, "synthetic"),
        path=get("dataset", "path", str, None),
        images=get("dataset", "images", str, None),
        labels=get("dataset", "labels", str, None),
        label_column=get("dataset", "label_column", _to_label_column, 0),
        delimiter=get("dataset", "delimiter", str, ","),
        missing_token=get("dataset", "missing_token", str, None),
        has_header=get("dataset", "has_header", _to_bool, True),
        label_map=get("dataset", "label_map", _to_label_map, None),
        train_ratio=get("dataset", "train_ratio", float, 0.8),
        subsample=get("dataset", "subsample", int, None),
        synth_size=get("dataset", "synth_size", int, 400),
        synth_d=get("dataset", "synth_d", int, 8),
        synth_separation=get("dataset", "synth_separation", float, 4.0),
        mnist_pixels=get("dataset", "mnist_pixels", int, 100),
        secom_features=get("dataset", "secom_features", int, 20),
    )
    cfg = ExperimentConfig(
        kind=kind or get("experiment", "kind", str, "single"),
        seeds=get("experiment", "seeds", int, 300),
        master_seed=get("experiment", "master_seed", int, 0),
        baseline=get("experiment", "baseline", _to_bool, False),
        threads=get("experiment", "threads", int, 1),
        out=get("experiment", "out", str, None),
        dataset=ds,
        kappa=get("channel", "kappa", float, 0.0),
        pathloss=get("channel", "pathloss", float, 1.0),
        los_angle_rx=get("channel", "los_angle_rx", float, 0.0),
        los_angle_tx=get("channel", "los_angle_tx", float, 0.0),
        snr_db=get("channel", "snr_db", _to_float, float("inf")),
        y_sat=get("activation", "y_sat", float, 1.5),
        alpha=get("activation", "alpha", int, 2),
        n_r=get("model", "n_r", int, None),
        digital_low=get("model", "digital_low", float, -1.0),
        digital_high=get("model", "digital_high", float, 1.0),
        grid=get("sweep", "grid", _to_grid, None),
        eta=get("online", "eta", float, 0.9),
        gamma=get("online", "gamma", float, 0.5),
        batch_size=get("online", "batch_size", int, 32),
        steps=get("online", "steps", int, 5),
        iters_per_step=get("online", "iters_per_step", int, 20),
    )
    return cfg.resolved()


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flatten a config into plain JSON-serializable types (for the manifest)."""
    out = {}
    for key, val in vars(cfg).items():
        if key == "dataset":
            out["dataset"] = {k: (list(v) if isinstance(v, tuple) else v)
                              for k, v in vars(val).items()}
        elif isinstance(val, tuple):
            out[key] = list(val)
        elif isinstance(val, float) and val == float("inf"):
            out[key] = "inf"
        else:
            out[key] = val
    return out
