from dataclasses import replace

import pytest

from airelm.config import DatasetConfig, ExperimentConfig, parse_config
from airelm.data import split_standardize, synth_two_gaussians
from airelm.errors import ConfigError
from airelm.rng import RngStream


def _all_keys_ini(tmp_path):
    """An INI setting each of the 38 keys to a value other than its default."""
    files = {}
    for name in ("features.txt", "images.idx", "labels.txt"):
        files[name] = tmp_path / name
        files[name].write_text("1\n")
    text = (
        "[experiment]\n"
        "kind = sweep_kappa\n"
        "seeds = 7\n"
        "master_seed = 11\n"
        "baseline = yes\n"
        "threads = 2\n"
        f"out = {tmp_path / 'r.csv'}\n"
        "[dataset]\n"
        "name = secom\n"
        f"path = {files['features.txt']}\n"
        f"images = {files['images.idx']}\n"
        f"labels = {files['labels.txt']}\n"
        "label_column = 3\n"
        "delimiter = ;\n"
        "missing_token = NA\n"
        "has_header = off\n"
        "label_map = M:-1, B:1\n"
        "train_ratio = 0.7\n"
        "subsample = 50\n"
        "synth_size = 120\n"
        "synth_d = 5\n"
        "synth_separation = 2.5\n"
        "mnist_pixels = 49\n"
        "secom_features = 10\n"
        "[channel]\n"
        "kappa = 3.5\n"
        "pathloss = 2\n"
        "los_angle_rx = 0.25\n"
        "los_angle_tx = -0.5\n"
        "snr_db = 15\n"
        "[activation]\n"
        "y_sat = 2\n"
        "alpha = 4\n"
        "[model]\n"
        "n_r = 96\n"
        "digital_low = -0.5\n"
        "digital_high = 0.75\n"
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
    return path, text, files


def test_parse_config_reads_every_key(tmp_path):
    path, text, files = _all_keys_ini(tmp_path)
    # written out literally, not derived from the dataclasses, so a key in the
    # wrong section or behind the wrong converter fails here
    expected = ExperimentConfig(
        kind="sweep_kappa", seeds=7, master_seed=11, baseline=True, threads=2,
        out=str(tmp_path / "r.csv"),
        dataset=DatasetConfig(
            name="secom", path=str(files["features.txt"]),
            images=str(files["images.idx"]), labels=str(files["labels.txt"]),
            label_column=3, delimiter=";", missing_token="NA",
            has_header=False, label_map={"M": -1, "B": 1}, train_ratio=0.7,
            subsample=50, synth_size=120, synth_d=5, synth_separation=2.5,
            mnist_pixels=49, secom_features=10),
        kappa=3.5, pathloss=2.0, los_angle_rx=0.25, los_angle_tx=-0.5,
        snr_db=15.0, y_sat=2.0, alpha=4, n_r=96, digital_low=-0.5,
        digital_high=0.75, grid=(0.5, 2.0, 8.0), eta=0.8, gamma=0.25,
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


@pytest.mark.parametrize("synth_size, train_ratio, subsample", [
    (40, 0.8, None), (41, 0.5, None), (3, 0.9, None), (400, 0.8, 25),
    (30, 0.7, 90)])
def test_online_batch_size_limit_is_the_split_train_block(
        synth_size, train_ratio, subsample):
    rows = min(synth_size, subsample or synth_size)
    table = synth_two_gaussians(RngStream(0), rows, 2, 1.0)
    d_train = split_standardize(table, train_ratio, RngStream(1)).x_train.shape[0]
    cfg = ExperimentConfig(kind="online", dataset=DatasetConfig(
        synth_size=synth_size, train_ratio=train_ratio, subsample=subsample))
    assert replace(cfg, batch_size=d_train).resolved().batch_size == d_train
    with pytest.raises(ConfigError, match=f"at most the {d_train} training"):
        replace(cfg, batch_size=d_train + 1).resolved()
    # only online runs draw mini-batches
    replace(cfg, kind="single", batch_size=d_train + 1).resolved()
