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
from dataclasses import dataclass, field, fields

from .activation import RappParams
from .channel import ArConfig, RiceanConfig, noise_for_snr
from .data import train_count
from .elm import COMBINERS
from .errors import ConfigError, OutputError, shown

# each kind's swept field, the one its [sweep] grid sets point by point
# (None: the kind runs one point), its default grid and its default n_r
KIND_TABLE = {
    "sweep_nr": ("n_r", (64.0, 128.0), 256),
    "sweep_snr": ("snr_db", (0.0, 10.0, 20.0, 30.0), 256),
    "sweep_kappa": ("kappa", (0.0, 1.0, 10.0, 100.0), 256),
    "online": (None, None, 1024),
    "single": (None, None, 256),
}
KINDS = tuple(KIND_TABLE)
DATASETS = ("synthetic", "wbcd", "csv")


def _to_bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


def _to_float(raw: str) -> float:
    # float() reads inf, +inf and infinity in any case
    return math.inf if raw.strip().lower() == "noiseless" else float(raw)


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


def _key(section: str, default, parse, least=None, between=None):
    """A config field read from INI key `[section] <field name>` by `parse`.
    `resolved` rejects a set value below `least` or outside the open
    interval `between`."""
    return field(default=default,
                 metadata={"section": section, "parse": parse,
                           "least": least, "between": between})


@dataclass(frozen=True)
class DatasetConfig:
    name: str = _key("dataset", "synthetic", str)   # one of DATASETS
    path: str = _key("dataset", None, str)     # wbcd and csv: the data file
    label_column: object = _key("dataset", 0, _to_label_column)
    delimiter: str = _key("dataset", ",", str)
    has_header: bool = _key("dataset", True, _to_bool)
    label_map: dict = _key("dataset", None, _to_label_map)
    train_ratio: float = _key("dataset", 0.8, float, between=(0, 1))
    synth_size: int = _key("dataset", 400, int, least=2)
    synth_d: int = _key("dataset", 8, int, least=1)
    synth_separation: float = _key("dataset", 4.0, float)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = _key("experiment", "single", str)
    seeds: int = _key("experiment", 300, int, least=1)
    master_seed: int = _key("experiment", 0, int, least=0)
    baseline: bool = _key("experiment", False, _to_bool)
    threads: int = _key("experiment", 1, int, least=1)
    out: str = _key("experiment", None, str)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    kappa: float = _key("channel", 0.0, float)
    los_angle_rx: float = _key("channel", 0.0, float)
    los_angle_tx: float = _key("channel", 0.0, float)
    snr_db: float = _key("channel", float("inf"), _to_float)
    y_sat: float = _key("activation", 1.5, float)
    alpha: int = _key("activation", 2, int)
    # unset: the default of the kind it runs as, in KIND_TABLE
    n_r: int = _key("model", None, int, least=1)
    combiner: str = _key("model", "ridge", str)     # one of elm.COMBINERS
    grid: tuple = _key("sweep", None, _to_grid)
    eta: float = _key("online", 0.9, float)
    gamma: float = _key("online", 0.5, float, between=(0, 1))
    batch_size: int = _key("online", 32, int, least=1)
    steps: int = _key("online", 5, int, least=1)
    iters_per_step: int = _key("online", 20, int, least=0)

    def points(self) -> list:
        """The (n_r, kappa, snr_db) of each point the config runs as its
        kind, in run order: the kind's swept field takes each grid value,
        and sweep_snr ends with its noiseless point.  An unset n_r or grid
        is the kind's (`KIND_TABLE`).  A ConfigError names an n_r that is
        not an antenna count."""
        swept, grid, n_r = KIND_TABLE[self.kind]
        point = {"n_r": n_r if self.n_r is None else self.n_r,
                 "kappa": self.kappa, "snr_db": self.snr_db}
        points = [point]
        if swept is not None:
            grid = self.grid or grid
            if swept == "snr_db":
                grid = (*grid, math.inf)
            points = [{**point, swept: float(g)} for g in grid]
        for n_r in (p["n_r"] for p in points):  # negated, so NaN fails
            if not (1 <= n_r <= sys.maxsize and n_r == int(n_r)):
                raise ConfigError(f"n_r must be a whole number in "
                                  f"[1, {sys.maxsize}], got {shown(n_r)}")
        return [(int(p["n_r"]), p["kappa"], p["snr_db"]) for p in points]

    def resolved(self) -> "ExperimentConfig":
        """Validate the config as run as its kind, checking every point of
        `points()`, and return it as set: an unset n_r or grid stays unset
        and takes the defaults of whichever kind it is run as."""
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        ds = self.dataset
        for obj in (self, ds):
            for f in fields(obj):
                value = getattr(obj, f.name)
                least, between = map(f.metadata.get, ("least", "between"))
                # a synth_ key is checked only for the dataset that reads it
                if value is None or (f.name.startswith("synth_")
                                     and ds.name != "synthetic"):
                    continue
                # an int beyond float64, which only code can set, would
                # raise OverflowError where compute first converts it
                parse = f.metadata.get("parse")
                if parse in (float, _to_float, _to_grid) and any(
                        isinstance(v, int) and abs(v) > sys.float_info.max
                        for v in (value if parse is _to_grid else (value,))):
                    raise ConfigError(f"{f.name} must be a float64 number, "
                                      f"got an integer beyond its range")
                # negated comparisons, so that NaN fails them
                if least is not None and not value >= least:
                    raise ConfigError(
                        f"{f.name} must be >= {least}, got {shown(value)}")
                if between and not between[0] < value < between[1]:
                    raise ConfigError(
                        f"{f.name} must lie in {between}, got {value}")
        points = self.points()
        for i, (n_r, kappa, snr_db) in enumerate(points):
            noise_for_snr(0.0, snr_db)      # NaN, -inf and huge |snr| fail
            RiceanConfig(n_r=n_r, n_t=1, kappa=kappa,     # validates each
                         los_angle_rx=self.los_angle_rx,
                         los_angle_tx=self.los_angle_tx)
            if (n_r, kappa, snr_db) in points[:i]:  # it would rerun trials
                raise ConfigError(f"sweep grid repeats the point n_r = {n_r}"
                                  f", kappa = {kappa}, snr_db = {snr_db}")
        if self.combiner not in COMBINERS:
            raise ConfigError(f"combiner must be one of {COMBINERS}, got "
                              f"{self.combiner!r}")
        RappParams(y_sat=self.y_sat, alpha=self.alpha)  # validates both
        ArConfig(eta=self.eta)                          # eta in (0, 1]
        if ds.name not in DATASETS:
            raise ConfigError(f"unknown dataset name {ds.name!r}")
        if ds.name != "synthetic":      # which ignores path, set or not
            if ds.path is None:
                raise ConfigError(f"dataset {ds.name!r} needs [dataset] path")
            if not os.path.exists(ds.path):
                raise ConfigError(
                    f"[dataset] path file does not exist: {ds.path}")
        if ds.name == "csv" and len(ds.delimiter) != 1:
            raise ConfigError(f"delimiter must be one character, got "
                              f"{ds.delimiter!r}")
        if ds.name == "synthetic":
            if ds.synth_size * ds.synth_d > sys.maxsize:
                raise ConfigError("synth_size x synth_d must be at most "
                                  f"{sys.maxsize} cells, got "
                                  f"{shown(ds.synth_size * ds.synth_d)}")
            # a feature's training std sums up to synth_size squared
            # deviations of about (separation / 2)^2 / synth_d each
            bound = 2 * math.sqrt(sys.float_info.max) * math.sqrt(
                ds.synth_d / ds.synth_size)     # so that the sum is finite
            if not abs(ds.synth_separation) <= bound:
                raise ConfigError(f"synth_separation must be finite and at "
                                  f"most {bound:.3g} in magnitude for "
                                  f"{ds.synth_size} x {ds.synth_d} features, "
                                  f"got {ds.synth_separation}")
            self.check_table(ds.synth_size, ds.synth_d)
        if self.out is not None:
            parent = os.path.dirname(os.path.abspath(self.out))
            if not os.path.isdir(parent):
                raise OutputError(f"output directory does not exist: {parent}")
            for path in (self.out, manifest_path(self.out)):
                if os.path.isdir(path):
                    raise OutputError(f"output path is a directory: {path}")
                # writing it would replace the input the manifest hashes
                if (ds.name != "synthetic" and os.path.exists(path)
                        and os.path.samefile(path, ds.path)):
                    raise OutputError(f"output path is the dataset file: "
                                      f"{path}")
        return self

    def check_table(self, n_rows: int, n_features: int) -> None:
        """Reject, before any trial, what an n_rows x n_features table cannot
        run: an online batch_size above the training block of its train/test
        split, or a channel matrix H or a hidden matrix G larger than
        physical memory."""
        ds = self.dataset
        if n_rows < 2:
            return          # too few rows is a data error, found on loading
        d_train = train_count(n_rows, ds.train_ratio)
        if self.kind == "online" and self.batch_size > d_train:
            raise ConfigError(
                f"batch_size must be at most the {d_train} training rows, "
                f"got {shown(self.batch_size)}")
        n_r = max(n_r for n_r, _, _ in self.points())
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        for name, rows, cols, item in (
                ("channel matrix H", n_r, n_features + 1, 16),  # complex
                ("hidden matrix G", max(d_train, n_rows - d_train), n_r, 8)):
            if rows * cols * item > memory:
                raise ConfigError(
                    f"the {rows} x {cols} {name} needs "
                    f"{rows * cols * item / 2 ** 30:.1f} GiB, more than the "
                    f"{memory / 2 ** 30:.1f} GiB of physical memory")


def manifest_path(out: str) -> str:
    """Where a run writes the manifest of its results CSV at out."""
    return f"{out}.manifest.json"


def parse_config(path: str, kind: str = None) -> ExperimentConfig:
    """Read an INI config file into an ExperimentConfig, unresolved:
    `experiments.run` resolves it, after the caller's overrides.

    Each config field is one INI key, in the section its field metadata
    names; keys the file leaves unset or empty keep the field default.
    `kind`, when given (by the CLI subcommand), overrides any kind in the
    file.  Unknown sections/keys, a value its converter refuses, and a file
    that is not UTF-8 text raise ConfigError.
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
            except (TypeError, ValueError, KeyError):
                raise ConfigError(f"{path}: bad value for [{section}] {key} = "
                                  f"{raw!r}") from None
    if kind:
        values[ExperimentConfig]["kind"] = kind
    return ExperimentConfig(dataset=DatasetConfig(**values[DatasetConfig]),
                            **values[ExperimentConfig])

