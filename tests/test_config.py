import pathlib
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from airelm import experiments
from airelm.activation import RappParams
from airelm.config import (DATASETS, KINDS, DatasetConfig, ExperimentConfig,
                           parse_config)
from airelm.data import split_standardize, synth_two_gaussians
from airelm.errors import ConfigError, OutputError
from airelm.rng import RngStream


def _all_keys_ini(tmp_path):
    """An INI setting each of the 30 keys to a value other than its default."""
    data = tmp_path / "data.txt"
    data.write_text("1\n")
    text = (
        "[experiment]\n"
        "kind = sweep_kappa\n"
        "seeds = 7\n"
        "master_seed = 11\n"
        "baseline = yes\n"
        "threads = 2\n"
        f"out = {tmp_path / 'r.csv'}\n"
        "[dataset]\n"
        "name = csv\n"
        f"path = {data}\n"
        "label_column = 3\n"
        "delimiter = ;\n"
        "has_header = off\n"
        "label_map = M:-1, B:1\n"
        "train_ratio = 0.7\n"
        "synth_size = 120\n"
        "synth_d = 5\n"
        "synth_separation = 2.5\n"
        "[channel]\n"
        "kappa = 3.5\n"
        "los_angle_rx = 0.25\n"
        "los_angle_tx = -0.5\n"
        "snr_db = 15\n"
        "[activation]\n"
        "y_sat = 2\n"
        "alpha = 4\n"
        "[model]\n"
        "n_r = 96\n"
        "combiner = min_norm\n"
        "[sweep]\n"
        "grid = 0.5 2, 8\n"
        "[online]\n"
        "eta = 0.8\n"
        "gamma = 0.25\n"
        "batch_size = 16\n"
        "steps = 3\n"
        "iters_per_step = 4\n")
    path = tmp_path / "all.ini"
    path.write_text(text)
    return path, text, data


def test_parse_config_reads_every_key(tmp_path):
    path, text, data = _all_keys_ini(tmp_path)
    # written out literally, not derived from the dataclasses, so a key in the
    # wrong section or behind the wrong converter fails here
    expected = ExperimentConfig(
        kind="sweep_kappa", seeds=7, master_seed=11, baseline=True, threads=2,
        out=str(tmp_path / "r.csv"),
        dataset=DatasetConfig(
            name="csv", path=str(data), label_column=3, delimiter=";",
            has_header=False, label_map={"M": -1, "B": 1},
            train_ratio=0.7, synth_size=120, synth_d=5,
            synth_separation=2.5),
        kappa=3.5, los_angle_rx=0.25, los_angle_tx=-0.5,
        snr_db=15.0, y_sat=2.0, alpha=4, n_r=96, combiner="min_norm",
        grid=(0.5, 2.0, 8.0), eta=0.8, gamma=0.25,
        batch_size=16, steps=3, iters_per_step=4)
    cfg = parse_config(str(path))
    assert cfg == expected
    # repr tells 7 from 7.0, so a float converter on an int key fails too
    assert repr(cfg) == repr(expected)
    assert parse_config(str(path), kind="online").kind == "online"


def test_parse_config_empty_key_keeps_default(tmp_path):
    path, text, _ = _all_keys_ini(tmp_path)
    full = parse_config(str(path))
    for line, expected in (
            ("seeds = 7", replace(full, seeds=300)),
            ("label_column = 3",
             replace(full, dataset=replace(full.dataset, label_column=0))),
            ("snr_db = 15", replace(full, snr_db=float("inf")))):
        path.write_text(text.replace(line, line.split("=")[0] + "="))
        assert repr(parse_config(str(path))) == repr(expected), line


def test_readme_ini_example_names_every_key_and_parses(tmp_path):
    """The README's INI example, with its comments cut and its commented-out
    keys restored, is a config file that names every key of the schema."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```ini\n")[1]
    lines = [line.split(" ;")[0].strip().removeprefix("; ")
             for line in block.split("```")[0].splitlines()]
    path = tmp_path / "readme.ini"
    path.write_text("".join(f"{line}\n" for line in lines if line))
    parse_config(str(path))         # no unknown key, no value it refuses
    named = {line.split("=")[0].strip() for line in lines if "=" in line}
    assert named == {f.name for cls in (ExperimentConfig, DatasetConfig)
                     for f in fields(cls) if f.metadata}


@pytest.mark.parametrize("section, key", [
    ("experiment", "seeds"), ("online", "gamma"), ("dataset", "train_ratio"),
    ("dataset", "synth_size")])
def test_declared_ranges_reject_nan(section, key):
    """A NaN fails the range a key declares, open interval or bound."""
    cfg = ExperimentConfig()
    if section == "dataset":
        cfg = replace(cfg, dataset=replace(cfg.dataset, **{key: float("nan")}))
    else:
        cfg = replace(cfg, **{key: float("nan")})
    with pytest.raises(ConfigError, match=f"^{key} must .*, got nan$"):
        cfg.resolved()


def _no_trial(*args):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("kind, key, value", [
    ("single", "kappa", 10 ** 400), ("single", "los_angle_rx", -10 ** 400),
    ("single", "los_angle_tx", 10 ** 400), ("single", "y_sat", 10 ** 400),
    ("single", "snr_db", -10 ** 400), ("single", "alpha", 10 ** 400),
    ("sweep_nr", "grid", (64, 10 ** 400)), ("sweep_snr", "grid", (10 ** 400,)),
    ("sweep_kappa", "grid", (0.0, -10 ** 400))],
    ids=lambda v: "1e400" if isinstance(v, (int, tuple)) else None)
def test_an_int_beyond_float64_is_refused_before_compute(monkeypatch, kind,
                                                        key, value):
    """An integer too large for a float64, which only the Python API can
    give, is a ConfigError naming its key, raised before any trial."""
    monkeypatch.setattr(experiments, "_per_seed", _no_trial)
    cfg = ExperimentConfig(kind=kind, seeds=1, n_r=8, **{key: value})
    with pytest.raises(ConfigError, match=f"^{key} must"):
        experiments.run(cfg)


def test_synth_key_ranges_apply_to_the_synthetic_dataset_only(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a,label\n1,1\n2,-1\n")
    ds = DatasetConfig(name="csv", path=str(data), synth_size=0, synth_d=0)
    assert ExperimentConfig(dataset=ds).resolved().dataset.synth_size == 0
    with pytest.raises(ConfigError, match="synth_size must be >= 2, got 0"):
        ExperimentConfig(dataset=replace(ds, name="synthetic")).resolved()


@pytest.mark.parametrize("delimiter", ["", ";;", "\t\t"])
def test_csv_delimiter_must_be_one_character(tmp_path, delimiter):
    """An empty delimiter cannot come from an INI file, where an empty value
    keeps the default, but it can from code."""
    data = tmp_path / "d.csv"
    data.write_text("a,label\n1,1\n2,-1\n")
    ds = DatasetConfig(name="csv", path=str(data), delimiter=delimiter)
    with pytest.raises(ConfigError, match="delimiter must be one character"):
        ExperimentConfig(dataset=ds).resolved()
    assert ExperimentConfig(dataset=replace(ds, delimiter="\t")).resolved()


@pytest.mark.parametrize("synth_size, train_ratio, table_rows", [
    (40, 0.8, None), (41, 0.5, None), (3, 0.9, None), (400, 0.8, 25),
    (30, 0.7, 90)])
def test_online_batch_size_limit_is_the_split_train_block(
        synth_size, train_ratio, table_rows):
    """The limit is the training block of the table the run splits: the
    synth_size rows of a synthetic run, checked by `resolved`, or the rows
    of a loaded table, checked by `check_table` whatever synth_size says."""
    rows = table_rows or synth_size
    table = synth_two_gaussians(RngStream(0), rows, 2, 1.0)
    d_train = split_standardize(table, train_ratio, rng=RngStream(1)).x_train.shape[0]
    cfg = ExperimentConfig(kind="online", dataset=DatasetConfig(
        synth_size=synth_size, train_ratio=train_ratio))

    def check(**changes):
        changed = replace(cfg, **changes)
        if table_rows is None:
            return changed.resolved()
        return changed.check_table(table_rows, 2)

    check(batch_size=d_train)
    with pytest.raises(ConfigError, match=f"at most the {d_train} training"):
        check(batch_size=d_train + 1)
    # only online runs draw mini-batches
    check(kind="single", batch_size=d_train + 1)


@pytest.mark.parametrize("make, message", [
    (lambda: ExperimentConfig(n_r=10 ** 5000).resolved(),
     r"n_r must be a whole number in \[1, \d+\], got an integer of 16610 "
     r"bits$"),
    (lambda: ExperimentConfig(seeds=-10 ** 5000).resolved(),
     r"^seeds must be >= 1, got a negative integer of 16610 bits$"),
    (lambda: RappParams(alpha=10 ** 5000),
     r"^alpha must be an even integer >= 2 that a float64 holds, got an "
     r"integer of 16610 bits$")], ids=["n_r", "seeds", "alpha"])
def test_an_int_too_long_to_print_is_a_config_error(make, message):
    """An integer beyond Python's int-to-str digit limit, which only code
    can give, is shown by its bit length, so the refusal is a ConfigError
    and not the ValueError that printing it would raise."""
    with pytest.raises(ConfigError, match=message):
        make()


# ------------------------------------------------------------ parser fuzz

_KEYS = {f.name: f.metadata["section"] for cls in (DatasetConfig,
                                                   ExperimentConfig)
         for f in fields(cls) if f.metadata}
_VALUES = st.one_of(
    st.text(max_size=20),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.floats().map(repr),
    # numbers at the edges of int and float64
    st.sampled_from(["0", "-1", "2", "inf", "-inf", "nan", "1e999",
                     "1" + "0" * 400, "-" + "9" * 400]),
    st.sampled_from(["", "noiseless", "yes", "off", "0, 10", "64 128", ",",
                     "M:-1, B:1", "a:", ":1", *DATASETS, *KINDS]))
_LINES = st.one_of(
    st.sampled_from(sorted({*_KEYS.values(), "bogus"})).map("[{}]".format),
    st.tuples(st.sampled_from(sorted(_KEYS)) | st.text(max_size=10),
              st.sampled_from(["=", ":", " = "]), _VALUES).map("".join),
    st.text(max_size=30))


def _ini(entries, junk):
    """INI text setting each key of entries in its own section, then the
    junk lines."""
    sections = {}
    for key, value in entries.items():
        sections.setdefault(_KEYS[key], []).append(f"{key} = {value}")
    return "\n".join([line for section, lines in sections.items()
                      for line in (f"[{section}]", *lines)] + junk)


_INI_TEXT = st.one_of(
    st.builds(_ini, st.dictionaries(st.sampled_from(sorted(_KEYS)), _VALUES,
                                    max_size=6),
              st.lists(_LINES, max_size=2)),
    st.lists(_LINES, max_size=12).map("\n".join))


def _parse_or_config_error(path, kind):
    """parse_config, then `resolved`, must give a resolved config or raise
    ConfigError or OutputError."""
    try:
        cfg = parse_config(str(path), kind=kind).resolved()
    except (ConfigError, OutputError):
        return
    assert cfg.kind in KINDS
    assert all(1 <= n_r <= sys.maxsize for n_r, _, _ in cfg.points())


@settings(max_examples=500)
@given(text=_INI_TEXT, kind=st.sampled_from([None, *KINDS]))
def test_parse_config_of_any_ini_text_returns_a_config_or_raises_config_error(
        tmp_path_factory, text, kind):
    """Any INI-shaped text parses and resolves to a config or raises
    ConfigError (OutputError for a bad out path), never another exception.
    Nothing runs: no generated value starts a trial or a thread."""
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    path.write_text(text, encoding="utf-8")
    _parse_or_config_error(path, kind)


@settings(max_examples=150)
@given(data=st.binary(max_size=200) | st.text(max_size=60).map(
    lambda text: text.encode("utf-16")))
def test_parse_config_of_any_bytes_returns_a_config_or_raises_config_error(
        tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    path.write_bytes(data)
    _parse_or_config_error(path, None)
