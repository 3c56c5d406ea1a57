import csv
import dataclasses
import json
import math
import os
import pathlib

import numpy as np
import pytest

from airelm.config import DatasetConfig, ExperimentConfig, parse_config
from airelm import experiments
from airelm.errors import ConfigError
from airelm.experiments import (
    SUMMARY_COLUMNS,
    TRIAL_COLUMNS,
    TrialResult,
    emit_csv,
    run,
    run_online,
    run_single,
    run_sweep_kappa,
    run_sweep_nr,
    summarize,
    write_manifest,
)
from airelm.numkernel import blas_thread_control
from airelm.rng import RngStream, SUB_TEST_NOISE, SUB_TRAIN_NOISE


def _cfg(kind="sweep_nr", **kw):
    base = dict(kind=kind, seeds=2, master_seed=0,
                dataset=DatasetConfig(name="synthetic", synth_size=120))
    base.update(kw)
    return ExperimentConfig(**base).resolved()


# ------------------------------------------------------ row contracts

def test_sweep_nr_row_shape():
    rows = run_sweep_nr(_cfg(grid=(64,)))
    assert len(rows) == 2
    for r in rows:
        assert r.experiment == "sweep_nr"
        assert r.dataset == "synthetic"
        assert r.model == "mimo"
        assert r.n_r == 64
        assert 0.0 <= r.accuracy <= 1.0
        assert r.receive_power > 0
        assert r.wall_ms >= 0


def test_sweep_nr_baseline_rows():
    rows = run_sweep_nr(_cfg(grid=(64,), baseline=True))
    models = [r.model for r in rows]
    assert models.count("mimo") == 2
    assert models.count("digital") == 2
    for r in rows:
        if r.model == "digital":
            assert math.isinf(r.snr_db)


def test_seeds_grid_cross_product():
    rows = run_sweep_nr(_cfg(grid=(32, 64), seeds=3))
    assert len(rows) == 6
    assert sorted({r.seed for r in rows}) == [0, 1, 2]
    assert sorted({r.n_r for r in rows}) == [32, 64]


def test_runs_are_deterministic():
    a = [r.accuracy for r in run_sweep_nr(_cfg(grid=(48,), seeds=3))]
    b = [r.accuracy for r in run_sweep_nr(_cfg(grid=(48,), seeds=3))]
    assert a == b


def test_master_seed_changes_results():
    a = [r.accuracy for r in run_sweep_nr(_cfg(grid=(48,), seeds=3))]
    b = [r.accuracy for r in run_sweep_nr(_cfg(grid=(48,), seeds=3, master_seed=1))]
    assert a != b


def test_threads_do_not_change_results():
    a = run_sweep_nr(_cfg(grid=(32, 64), seeds=2))
    b = run_sweep_nr(_cfg(grid=(32, 64), seeds=2, threads=2))
    assert [(r.seed, r.n_r, r.accuracy) for r in a] == \
           [(r.seed, r.n_r, r.accuracy) for r in b]


def test_trials_run_on_one_blas_thread(monkeypatch):
    control = blas_thread_control()
    if control is None:
        pytest.skip("this BLAS exposes no thread-count control")
    get, put = control
    fit = experiments.fit
    seen = []

    def fit_and_record(*args, **kwargs):
        seen.append(get())
        return fit(*args, **kwargs)

    monkeypatch.setattr(experiments, "fit", fit_and_record)
    original = get()
    put(2)              # a count other than 1, so the restore is visible
    try:
        before = get()
        run(_cfg(grid=(32,), threads=2))
        assert seen and set(seen) == {1}
        assert get() == before
    finally:
        put(original)


# -------------------------------------------------- seed-major driver

def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(experiments, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    return calls


@pytest.mark.parametrize("kind, grid", [("sweep_snr", (0.0, 10.0, 20.0)),
                                        ("sweep_nr", (16, 32, 64))])
def test_each_seed_builds_its_dataset_once(monkeypatch, kind, grid):
    built = _count_calls(monkeypatch, "_trial_dataset")
    prepared = _count_calls(monkeypatch, "split_standardize")
    run(_cfg(kind=kind, grid=grid, seeds=3, n_r=32, snr_db=20.0))
    assert len(built) == len(prepared) == 3


def test_snr_sweep_draws_each_seeds_channel_and_noise_once(monkeypatch):
    drawn = _count_calls(monkeypatch, "sample_ricean")
    calibrated = _count_calls(monkeypatch, "sigma2_for_snr")
    noise_draws = []
    normal = RngStream.normal

    def counted(stream, *args, **kwargs):
        if stream.key[-1] in (SUB_TRAIN_NOISE, SUB_TEST_NOISE):
            noise_draws.append(stream.key)
        return normal(stream, *args, **kwargs)

    monkeypatch.setattr(RngStream, "normal", counted)
    rows = run(_cfg(kind="sweep_snr", grid=(0.0, 10.0, 20.0), seeds=3, n_r=32))
    assert len(rows) == 4 * 3           # the grid plus the noiseless point
    assert len(drawn) == len(calibrated) == 3
    assert sorted(noise_draws) == sorted(
        (seed, sub) for seed in range(3)
        for sub in (SUB_TRAIN_NOISE, SUB_TEST_NOISE))


@pytest.mark.parametrize("kind, grid, extra", [
    ("sweep_snr", (0.0, 30.0), {}),
    # n_r = 32 comes back after 64, so its noise blocks are held across it
    ("sweep_nr", (32, 64, 32), {"snr_db": 10.0, "baseline": True}),
    ("sweep_kappa", (0.0, 10.0), {"snr_db": 10.0}),
])
def test_sweep_rows_equal_single_runs(kind, grid, extra):
    """Reusing a seed's dataset, channel and noise draws across the grid
    gives every point the rows a run of that point alone gives."""
    cfg = _cfg(kind=kind, grid=grid, seeds=3, n_r=32, **extra)
    rows = run(cfg)
    points = [(r.n_r, r.kappa, r.snr_db) for r in rows if r.model == "mimo"]
    expected = []
    for n_r, kappa, snr_db in dict.fromkeys(points):
        expected += run(dataclasses.replace(
            cfg, kind="single", n_r=n_r, kappa=kappa, snr_db=snr_db,
            grid=None))
    # a repeated sweep_nr grid value repeats its rows
    if kind == "sweep_nr":
        expected += expected[:len(expected) // 2]
    fields = ("seed", "model", "n_r", "snr_db", "kappa", "accuracy",
              "train_residual", "receive_power")
    assert [[getattr(r, f) for f in fields] for r in rows] == \
           [[getattr(r, f) for f in fields] for r in expected]


def test_noise_replay_equals_stream_draws():
    replay = experiments._NoiseReplay(RngStream(4).split(0, 2))
    for std, last in ((0.3, False), (2.5, False), (0.7, True)):
        replay.last = last
        expected = RngStream(4).split(0, 2).normal(0.0, std, (5, 3))
        got = replay.normal(0.0, std, (5, 3))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_kappa_zero_cell_matches_nr_sweep():
    """The same (seed, n_r, kappa) cell must not depend on which sweep
    produced it."""
    nr_rows = run_sweep_nr(_cfg(grid=(64,), seeds=3))
    kp_rows = run_sweep_kappa(_cfg(kind="sweep_kappa", grid=(0.0, 10.0),
                                   seeds=3, n_r=64))
    kp0 = [r for r in kp_rows if r.kappa == 0.0]
    assert [r.accuracy for r in kp0] == [r.accuracy for r in nr_rows]


def test_infinite_snr_equals_noiseless():
    base = _cfg(kind="single", n_r=64)
    noiseless = run_single(base)
    explicit = run_single(dataclasses.replace(base, snr_db=float("inf")))
    assert [r.accuracy for r in noiseless] == [r.accuracy for r in explicit]


def test_trial_columns_have_no_timing():
    assert "wall_ms" not in TRIAL_COLUMNS
    assert "accuracy" in TRIAL_COLUMNS


# ---------------------------------------------------------- summarize

def _mk_row(**kw):
    base = dict(experiment="sweep_nr", dataset="synthetic", seed=0,
                model="mimo", n_r=64, snr_db=float("inf"), kappa=0.0,
                eta=None, step=None, iteration=None, accuracy=0.5,
                normalized_accuracy=None, train_residual=0.1,
                receive_power=1.0, wall_ms=1.0)
    base.update(kw)
    return TrialResult(**base)


def test_summarize_single_trial():
    out = summarize([_mk_row(accuracy=0.8)])
    assert len(out) == 1
    assert out[0]["n_trials"] == 1
    assert out[0]["mean_accuracy"] == 0.8
    assert out[0]["std_accuracy"] == 0.0


def test_summarize_population_std():
    out = summarize([_mk_row(seed=0, accuracy=0.8), _mk_row(seed=1, accuracy=0.9)])
    assert len(out) == 1
    assert out[0]["mean_accuracy"] == pytest.approx(0.85, rel=1e-12)
    assert out[0]["std_accuracy"] == pytest.approx(0.05, rel=1e-12)
    assert out[0]["min_accuracy"] == 0.8
    assert out[0]["max_accuracy"] == 0.9


def test_summarize_groups_by_grid_point():
    rows = [_mk_row(n_r=64), _mk_row(n_r=128), _mk_row(n_r=64, seed=1)]
    out = summarize(rows)
    assert len(out) == 2
    by_nr = {o["n_r"]: o["n_trials"] for o in out}
    assert by_nr == {64: 2, 128: 1}


def test_summarize_column_set():
    out = summarize([_mk_row()])
    assert tuple(out[0].keys()) == SUMMARY_COLUMNS


# ----------------------------------------------------------- csv i/o

def test_emit_csv_empty(tmp_path):
    path = tmp_path / "r.csv"
    emit_csv([], str(path))
    text = path.read_text()
    assert text.splitlines() == [",".join(TRIAL_COLUMNS)]


def test_emit_csv_roundtrip(tmp_path):
    rows = [_mk_row(accuracy=0.9561403508771931, snr_db=float("inf")),
            _mk_row(seed=1, accuracy=0.125, eta=0.9, step=2, iteration=3,
                    normalized_accuracy=1.0127)]
    path = tmp_path / "r.csv"
    emit_csv(rows, str(path))
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 2
    assert back[0]["accuracy"] == "0.9561403508771931"
    assert back[0]["snr_db"] == "inf"
    assert back[0]["eta"] == ""
    assert back[1]["iteration"] == "3"
    assert float(back[1]["normalized_accuracy"]) == 1.0127


def test_emit_csv_byte_identical(tmp_path):
    rows = run_sweep_nr(_cfg(grid=(32,), seeds=2))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, str(p1))
    emit_csv(run_sweep_nr(_cfg(grid=(32,), seeds=2)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_crlf_line_endings(tmp_path):
    path = tmp_path / "r.csv"
    emit_csv([_mk_row()], str(path))
    assert path.read_bytes().count(b"\r\n") == 2


# ----------------------------------------------------------- manifest

def test_manifest_contents(tmp_path):
    cfg = _cfg(grid=(32,))
    rows = run_sweep_nr(cfg)
    csv_path = tmp_path / "out.csv"
    emit_csv(rows, str(csv_path))
    mpath = write_manifest(cfg, rows, str(csv_path))
    assert mpath == str(csv_path) + ".manifest.json"
    doc = json.loads(pathlib.Path(mpath).read_text())
    assert doc["master_seed"] == 0
    assert doc["config"]["kind"] == "sweep_nr"
    assert "library_version" in doc
    assert doc["dataset_checksums"] == {"synthetic": "size=120,d=8,sep=4.0"}
    assert doc["n_result_rows"] == len(rows)
    assert doc["total_wall_ms"] > 0
    assert doc["elapsed_ms"] is None        # the caller did not time the run
    env = doc["environment"]
    assert env["numpy"] == np.__version__
    assert env["threads"] == 1
    assert {"blas", "blas_version", "blas_threads"} <= set(env)
    assert env["blas_threads"] == (1 if blas_thread_control() else None)
    assert set(env) - {"numpy", "blas", "blas_version", "threads",
                       "blas_threads"} <= {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    # run() records the runner's own wall time; on one thread it encloses
    # every trial, and the CSV bytes do not depend on it
    csv_bytes = csv_path.read_bytes()
    run(dataclasses.replace(cfg, out=str(csv_path)))
    doc = json.loads(pathlib.Path(mpath).read_text())
    assert doc["elapsed_ms"] >= doc["total_wall_ms"] > 0
    assert csv_path.read_bytes() == csv_bytes


def test_manifest_checksum_tracks_source_file(tmp_path, wbcd_csv):
    import shutil
    local = tmp_path / "w.csv"
    shutil.copy(wbcd_csv, local)
    cfg = _cfg(grid=(32,), dataset=DatasetConfig(name="wbcd", path=str(local)),
               seeds=1)
    rows = run_sweep_nr(cfg)
    csv_path = tmp_path / "out.csv"
    emit_csv(rows, str(csv_path))
    manifest = pathlib.Path(write_manifest(cfg, rows, str(csv_path)))
    doc1 = json.loads(manifest.read_text())
    with open(local, "ab") as f:
        f.write(b" ")
    write_manifest(cfg, rows, str(csv_path))
    doc2 = json.loads(manifest.read_text())
    assert doc1["dataset_checksums"] != doc2["dataset_checksums"]


def test_run_dispatcher_writes_outputs(tmp_path):
    out = tmp_path / "res.csv"
    cfg = _cfg(grid=(32,), out=str(out))
    run(cfg)
    assert out.exists()
    assert os.path.exists(str(out) + ".manifest.json")


# ------------------------------------------------------------- online

def test_online_frozen_channel_normalized_accuracy():
    cfg = _cfg(kind="online", n_r=64, seeds=2, eta=1.0, steps=2,
               iters_per_step=3)
    rows = run_online(cfg)
    stale = [r for r in rows if r.iteration == 0]
    assert stale, "expected pre-update rows"
    for r in stale:
        if r.step == 1:
            # channel never moves, so the untouched initial combiner ties
            # the step-1 refit exactly
            assert r.normalized_accuracy == 1.0
        else:
            # later steps carry the online-updated combiner forward
            assert r.normalized_accuracy >= 0.9
    updated = [r for r in rows if r.iteration and r.iteration >= 1]
    assert len(updated) == 2 * 2 * 3
    for r in updated:
        assert r.normalized_accuracy >= 0.9
        assert r.eta == 1.0
        assert r.step in (1, 2)


def test_online_row_schema():
    cfg = _cfg(kind="online", n_r=48, seeds=1, steps=2, iters_per_step=2)
    rows = run_online(cfg)
    # per seed: (iteration 0 + 2 updates) per step
    assert len(rows) == 2 * (1 + 2)
    assert all(r.experiment == "online" for r in rows)
    assert all(r.model == "mimo" for r in rows)
    # each step's time sits on its iteration-0 row, none on the others
    assert all(r.wall_ms > 0 for r in rows if r.iteration == 0)
    assert all(r.wall_ms is None for r in rows if r.iteration > 0)


# -------------------------------------------------------------- config

def test_parse_config_roundtrip(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(
        "[experiment]\n"
        "kind = sweep_nr\n"
        "seeds = 7\n"
        "master_seed = 3\n"
        "baseline = true\n"
        "[dataset]\n"
        "name = synthetic\n"
        "synth_size = 200\n"
        "[sweep]\n"
        "grid = 32, 64\n"
        "[channel]\n"
        "kappa = 2.5\n"
        "snr_db = inf\n"
    )
    cfg = parse_config(str(p))
    assert cfg.kind == "sweep_nr"
    assert cfg.seeds == 7
    assert cfg.master_seed == 3
    assert cfg.baseline is True
    assert cfg.grid == (32, 64)
    assert cfg.kappa == 2.5
    assert math.isinf(cfg.snr_db)
    assert cfg.dataset.synth_size == 200


def test_parse_config_unknown_key(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nkind = single\nfrobnicate = 1\n")
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(str(p))


def test_parse_config_unknown_section(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nkind = single\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(str(p))


def test_parse_config_bad_value(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nkind = single\nseeds = banana\n")
    with pytest.raises(ConfigError):
        parse_config(str(p))


def test_parse_config_label_map(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(
        "[experiment]\nkind = single\n"
        "[dataset]\nname = csv\npath = /dev/null\nlabel_map = M:-1,B:1\n"
    )
    cfg = parse_config(str(p))
    assert cfg.dataset.label_map == {"M": -1, "B": 1}


def test_resolved_defaults():
    cfg = ExperimentConfig(kind="sweep_snr",
                           dataset=DatasetConfig(name="synthetic")).resolved()
    assert cfg.n_r == 256
    assert cfg.grid == (0.0, 10.0, 20.0, 30.0)
    online = ExperimentConfig(kind="online",
                              dataset=DatasetConfig(name="synthetic")).resolved()
    assert online.n_r == 1024


def test_resolved_missing_dataset_file():
    cfg = ExperimentConfig(kind="single",
                           dataset=DatasetConfig(name="wbcd", path="/no/such/file.csv"))
    with pytest.raises(ConfigError):
        cfg.resolved()


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="sweep_everything",
                         dataset=DatasetConfig(name="synthetic")).resolved()
