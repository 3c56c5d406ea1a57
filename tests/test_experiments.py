import csv
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from airelm.channel import noise_for_snr, sigma2_for_snr
from airelm.config import DatasetConfig, ExperimentConfig, parse_config
from airelm import cli, elm, experiments, numkernel
from airelm.elm import augment
from airelm.errors import ConfigError, OutputError
from airelm.experiments import (
    SUMMARY_COLUMNS,
    TRIAL_COLUMNS,
    TrialResult,
    emit_csv,
    run,
    run_online,
    run_sweep_kappa,
    run_sweep_nr,
    summarize,
    write_manifest,
)
from airelm.numkernel import blas_thread_control, lapack_cholesky
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
    # a sweep whose points replay each seed's noise draws, on 1 and 2 workers
    cfg = _cfg(kind="sweep_snr", grid=(0.0, 10.0), seeds=5, n_r=32)
    fields = ("seed", "snr_db", "accuracy", "train_residual", "receive_power")
    assert [[getattr(r, f) for f in fields] for r in run(cfg)] == \
           [[getattr(r, f) for f in fields]
            for r in run(dataclasses.replace(cfg, threads=2))]


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


def _fail_on_a_helper(monkeypatch):
    """Make each seed's fit raise ConfigError on a helper thread; the
    calling thread's seed waits until a helper has taken its seed."""
    fit, helper_took = experiments.fit, threading.Event()

    def fit_or_fail(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            helper_took.set()
            raise ConfigError("raised on a helper thread")
        assert helper_took.wait(timeout=60)
        return fit(*args, **kwargs)

    monkeypatch.setattr(experiments, "fit", fit_or_fail)
    return helper_took


def test_a_helper_threads_exception_reaches_run_and_the_cli(
        tmp_path, monkeypatch, capsys):
    """A seed that fails on a helper thread raises its own exception from
    `run`, so a ConfigError exits 1 through the CLI; no helper is left
    alive either way."""
    before = threading.active_count()
    helper_took = _fail_on_a_helper(monkeypatch)
    with pytest.raises(ConfigError, match="raised on a helper thread"):
        run(_cfg(kind="single", seeds=2, threads=2))
    assert threading.active_count() == before
    helper_took.clear()
    assert cli.main(["single", "--seeds", "2", "--threads", "2", "--out",
                     str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err == \
        "config error: raised on a helper thread\n"
    assert threading.active_count() == before
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("late", [0, 1])
def test_the_lowest_failing_seeds_exception_is_raised(late):
    """When two seeds fail, in either order, the lower seed's exception is
    the one `_per_seed` raises, after both workers have ended."""
    cfg = _cfg(kind="single", seeds=2, threads=2)
    both_started = threading.Barrier(2, timeout=60)

    def body(seed, trial, dataset):
        both_started.wait()
        if seed == late:
            time.sleep(0.05)
        raise ValueError(f"seed {seed}")

    before = threading.active_count()
    with pytest.raises(ValueError, match="^seed 0$"):
        experiments._per_seed(cfg, body)
    assert threading.active_count() == before


def test_no_seed_starts_after_a_failure():
    """Once a seed has failed, no worker takes another seed."""
    cfg = _cfg(kind="single", seeds=6, threads=2)
    started = []

    def body(seed, trial, dataset):
        started.append(seed)
        raise ValueError(f"seed {seed}")

    with pytest.raises(ValueError):
        experiments._per_seed(cfg, body)
    # each worker fails on its first seed and takes no other
    assert 1 <= len(started) <= 2


@pytest.mark.parametrize("threads, seeds, helpers", [
    (1, 3, 0), (2, 3, 1), (4, 2, 1), (3, 1, 0)])
def test_the_calling_thread_is_one_worker(monkeypatch, threads, seeds,
                                          helpers):
    """min(threads, seeds) - 1 helper threads start, the calling thread
    being the other worker; results come back in seed order."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    cfg = _cfg(kind="single", seeds=seeds, threads=threads)
    assert experiments._per_seed(cfg, lambda seed, *_: seed) == \
        list(range(seeds))
    assert len(started) == helpers
    assert not any(t.is_alive() for t in started)


def test_each_seed_runs_once_under_fast_thread_switching():
    """More workers than cores, switching every microsecond: every seed is
    taken by exactly one worker and its result lands in its own slot."""
    cfg = _cfg(kind="single", seeds=200, threads=8)
    ran = []

    def body(seed, trial, dataset):
        ran.append(seed)
        return seed, trial.key

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = experiments._per_seed(cfg, body)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(200))
    assert results == [(seed, (seed,)) for seed in range(200)]


def test_grid_layers_hold_a_c_contiguous_h_real_and_no_h(monkeypatch):
    """Every channel layer a grid run fits through holds H^r as its own
    C-contiguous float64 array, and no complex H its thread drew is alive.
    Another seed's thread may still hold the H it is drawing."""
    fit, sample = experiments.fit, experiments.sample_ricean
    drawn, layers = {}, []      # thread id: weakrefs to the H it drew

    def sample_and_track(*args):
        h = sample(*args)
        drawn.setdefault(threading.get_ident(), []).append(weakref.ref(h))
        return h

    def fit_and_capture(layer, *args, **kwargs):
        if isinstance(layer, elm.HiddenLayer):
            layers.append(layer)
            assert all(ref() is None for ref in drawn[threading.get_ident()])
        return fit(layer, *args, **kwargs)

    monkeypatch.setattr(experiments, "sample_ricean", sample_and_track)
    monkeypatch.setattr(experiments, "fit", fit_and_capture)
    run(_cfg(kind="sweep_kappa", grid=(0.0, 2.0), snr_db=10.0))
    run(_cfg(grid=(16, 32), baseline=True, threads=2))
    assert len(layers) == 8
    for layer in layers:
        h_real = layer.h_real
        assert h_real.dtype == np.float64 and h_real.flags.c_contiguous
        assert h_real.base is None


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
    calibrated = _count_calls(monkeypatch, "signal_power")
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


def test_noiseless_nr_sweep_measures_each_channels_signal_power_once(
        monkeypatch):
    """P_sig is measured for every channel, noiseless or not, so a
    receive block that overflows float64 is found at any snr_db."""
    drawn = _count_calls(monkeypatch, "sample_ricean")
    calibrated = _count_calls(monkeypatch, "signal_power")
    run(_cfg(grid=(16, 32, 64), seeds=3, snr_db=math.inf))
    assert len(drawn) == len(calibrated) == 3 * 3


@pytest.mark.parametrize("grid, snr_db", [
    pytest.param((16, 32, 64), 10.0, id="grid0"),
    pytest.param((64, 16, 32), 10.0, id="grid1"),
    pytest.param((16, 32, 64), math.inf, id="noiseless"),
])
def test_nr_sweep_draws_each_normal_once_for_the_widest_n_r(monkeypatch,
                                                            grid, snr_db):
    """Every N_r reads a prefix of the same two noise streams, so a seed
    draws D_train * 64 training and D_test * 64 test normals, not
    D * (16 + 32 + 64), each once, in whatever order the grid runs.  The
    replay holds the D * 32 draws that n_r = 32 reads again, and n_r = 64
    streams the rest; a sweep without noise draws none."""
    drawn, held = {}, []
    normal, replay = RngStream.normal, experiments._NoiseReplay

    def counted(stream, mean=0.0, std=1.0, size=None):
        if stream.key[-1] in (SUB_TRAIN_NOISE, SUB_TEST_NOISE):
            drawn[stream.key] = drawn.get(stream.key, 0) + int(np.prod(size))
        return normal(stream, mean, std, size)

    def built(stream, size):
        held.append((stream.key, size))
        return replay(stream, size)

    monkeypatch.setattr(RngStream, "normal", counted)
    monkeypatch.setattr(experiments, "_NoiseReplay", built)
    run(_cfg(grid=grid, seeds=3, snr_db=snr_db))
    rows = {SUB_TRAIN_NOISE: 96, SUB_TEST_NOISE: 24}
    streams = [] if snr_db == math.inf else [
        (seed, sub) for seed in range(3) for sub in rows]
    assert drawn == {key: rows[key[1]] * 64 for key in streams}
    assert held == [(key, rows[key[1]] * 32) for key in streams]


def _sigma2_reference(h_real, x_tilde, snr_db):
    """`sigma2_for_snr` as it computed sigma^2 before the receive block
    owned P_sig."""
    if snr_db == math.inf:
        return 0.0
    p_sig = np.mean(np.sum((x_tilde @ h_real.T) ** 2, axis=1)) / len(h_real)
    return float(p_sig / 10.0 ** (snr_db / 10.0))


def test_noise_from_the_receive_block_is_sigma2_for_snr_bit_for_bit():
    """The noise power a sweep takes from its training receive block, and
    `sigma2_for_snr`, both give the bits of the formula they replaced."""
    cfg = _cfg(kind="sweep_snr", n_r=32)
    for seed in range(3):
        trial = RngStream(cfg.master_seed).split(seed)
        dataset = experiments._trial_dataset(cfg, None, trial)
        h, p_sig = experiments._draw_channel(cfg, dataset, trial, 32, 1.0)
        h_real, x_tilde = h.real, augment(dataset.x_train)
        for snr_db in (-3.0, 0.0, 7.5, 30.0, math.inf):
            expected = _sigma2_reference(h_real, x_tilde, snr_db)
            assert noise_for_snr(p_sig, snr_db).sigma2 == expected
            assert sigma2_for_snr(h_real, x_tilde, snr_db) == expected


@pytest.mark.parametrize("kind, grid, extra", [
    ("sweep_snr", (0.0, 30.0), {}),
    # n_r = 16 comes after 64, so it is served a prefix of 64's noise draws
    ("sweep_nr", (32, 64, 16), {"snr_db": 10.0, "baseline": True}),
    ("sweep_kappa", (0.0, 10.0), {"snr_db": 10.0}),
    # the widest point runs first and streams what no later point reads
    ("sweep_nr", (64, 32, 16), {"snr_db": 10.0}),
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
    fields = ("seed", "model", "n_r", "snr_db", "kappa", "accuracy",
              "train_residual", "receive_power")
    assert [[getattr(r, f) for f in fields] for r in rows] == \
           [[getattr(r, f) for f in fields] for r in expected]


def test_noise_replay_equals_stream_draws():
    """Each pass after `rewind` gives the stream's own draws, at any noise
    level and any width up to the replay's size, however a pass splits its
    calls; the last pass lets the draws go."""
    replay = experiments._NoiseReplay(RngStream(4).split(0, 2), 5 * 8)
    passes = ((0.3, [(5, 3)]), (2.5, [(5, 3)]), (0.7, [(2, 8), (3, 8)]),
              (1.1, [(2, 2)]), (0.2, [(1, 30), (3, 1), (7,)]),
              (4.0, [(5, 8)]), (0.5, [(4, 5), (1, 5), (3,)]))
    for i, (std, calls) in enumerate(passes):
        replay.rewind(sum(math.prod(size) for size in calls),
                      last=i + 1 == len(passes))
        stream = RngStream(4).split(0, 2)
        for size in calls:
            assert replay._z is not None
            expected = stream.normal(0.0, std, size)
            got = replay.normal(0.0, std, size)
            assert np.array_equal(got.view(np.int64),
                                  expected.view(np.int64))
    assert replay._z is None            # the last pass let every draw go
    with pytest.raises(ValueError, match="last pass"):
        replay.rewind(1)


def test_noise_replay_streams_the_draws_past_the_held_ones():
    """A pass that reads past the held draws, in calls that end inside the
    held block, straddle its end and lie wholly past it, gets the stream's
    own bits; a later pass replays the held draws as before."""
    replay = experiments._NoiseReplay(RngStream(4).split(0, 2), 5 * 3)
    for std, calls, last in ((0.7, [(2, 4), (3, 4), (6,), (2, 3)], False),
                             (1.9, [(4, 2), (7,)], True)):
        replay.rewind(sum(math.prod(size) for size in calls), last=last)
        stream = RngStream(4).split(0, 2)
        for size in calls:
            expected = stream.normal(0.0, std, size)
            got = replay.normal(0.0, std, size)
            assert np.array_equal(got.view(np.int64),
                                  expected.view(np.int64))
    assert replay._z is None


@pytest.mark.parametrize("held", [0, 6])
def test_noise_replay_serves_a_streamed_draw_once(held):
    """The draws past the held ones come from the stream itself, so a
    second pass that reads one again is refused, not served other bits."""
    replay = experiments._NoiseReplay(RngStream(4).split(0, 3), held)
    replay.rewind(10).normal(0.0, 1.0, (2, 5))
    replay.rewind(held)
    replay.normal(0.0, 1.0, (held,))    # the held draws replay as often
    replay.rewind(10)
    with pytest.raises(ValueError, match="read once"):
        replay.normal(0.0, 1.0, (10,))


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
    noiseless = run(base)
    explicit = run(dataclasses.replace(base, snr_db=float("inf")))
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
                receive_power=1.0)
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

def test_manifest_that_cannot_be_written_is_an_output_error(tmp_path):
    """A manifest path that turned into a directory after the config was
    checked is an OutputError, as an unwritable CSV is."""
    cfg = _cfg(grid=(32,), seeds=1)
    rows = run_sweep_nr(cfg)
    (tmp_path / "out.csv.manifest.json").mkdir()
    with pytest.raises(OutputError, match="cannot write manifest to"):
        write_manifest(cfg, rows, str(tmp_path / "out.csv"))


def test_manifest_contents(tmp_path):
    cfg = _cfg(grid=(32,))
    rows = run_sweep_nr(cfg)
    csv_path = tmp_path / "out.csv"
    emit_csv(rows, str(csv_path))
    mpath = write_manifest(cfg, rows, str(csv_path))
    assert mpath == str(csv_path) + ".manifest.json"
    doc = json.loads(pathlib.Path(mpath).read_text())
    assert doc["config"]["master_seed"] == 0
    assert doc["config"]["kind"] == "sweep_nr"
    assert "library_version" in doc
    assert doc["dataset_checksums"] == {}     # synthetic data has no file
    assert doc["n_result_rows"] == len(rows)
    assert doc["elapsed_ms"] is None        # the caller did not time the run
    env = doc["environment"]
    assert env["numpy"] == np.__version__
    assert doc["config"]["threads"] == 1    # and not in the environment
    assert {"blas", "blas_version", "blas_threads"} <= set(env)
    assert env["blas_threads"] == (1 if blas_thread_control() else None)
    # OpenBLAS's CPU kernel, such as "SkylakeX"; null for another BLAS
    assert env["blas_core"] == numkernel.blas_core()
    if "openblas" in (env["blas"] or ""):
        assert env["blas_core"]
    # the routine of the Gram solve, which sets the round-off bits of w
    assert env["lapack"] == ("scipy_dposv_64_" if lapack_cholesky() else None)
    # the allocator policy as this process has it: `cli.main` sets it
    assert env["malloc"] == numkernel.malloc_applied in (
        None, numkernel.MALLOC_POLICY)
    assert set(env) - {"numpy", "blas", "blas_version", "blas_core",
                       "blas_threads", "lapack", "malloc"} <= {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    # run() records the runner's own wall time, and the CSV bytes do not
    # depend on it
    csv_bytes = csv_path.read_bytes()
    run(dataclasses.replace(cfg, out=str(csv_path)))
    doc = json.loads(pathlib.Path(mpath).read_text())
    assert doc["elapsed_ms"] > 0
    assert csv_path.read_bytes() == csv_bytes


def test_manifest_records_the_allocator_policy_or_null(tmp_path,
                                                     monkeypatch, capsys):
    """Every runner sets glibc's mmap and trim thresholds and the manifest
    records them; without a C library that has mallopt it records null,
    and the CSV bytes are the same."""
    out = tmp_path / "r.csv"
    argv = ["sweep-nr", "--seeds", "2", "--out", str(out)]
    has_mallopt = getattr(numkernel._libc(), "mallopt", None) is not None
    manifests, csvs = [], []
    for libc in (numkernel._libc, lambda: None):
        monkeypatch.setattr(numkernel, "_libc", libc)
        assert cli.main(argv) == 0
        manifests.append(json.loads(pathlib.Path(
            str(out) + ".manifest.json").read_text())["environment"])
        csvs.append(out.read_bytes())
    if has_mallopt:
        assert manifests[0]["malloc"] == {"mmap_threshold": 32 << 20,
                                          "trim_threshold": 64 << 20}
    assert manifests[1]["malloc"] is None
    assert csvs[0] == csvs[1]


def test_a_direct_runner_call_sets_the_allocator_policy(tmp_path):
    """A program that calls a runner itself, as the demos do, runs under
    the allocator policy and writes the CSV bytes `cli.main` writes.  The
    runner runs in a fresh process, where nothing has set the policy."""
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nseeds = 3\nmaster_seed = 7919\n"
                   "[dataset]\nname = synthetic\nsynth_size = 60\n"
                   "synth_d = 3\n[model]\nn_r = 16\n[sweep]\ngrid = 0, 20\n")
    direct, by_cli = tmp_path / "direct.csv", tmp_path / "cli.csv"
    script = (
        "import sys\nfrom airelm import experiments, numkernel\n"
        "from airelm.config import parse_config\n"
        "before = numkernel.malloc_applied\n"
        "cfg = parse_config(sys.argv[1], kind='sweep_snr')\n"
        "experiments.emit_csv(experiments.run_sweep_snr(cfg), sys.argv[2])\n"
        "has_mallopt = getattr(numkernel._libc(), 'mallopt', None) is not None\n"
        "print(before, numkernel.malloc_applied == (\n"
        "    numkernel.MALLOC_POLICY if has_mallopt else None))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(ini), str(direct)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "None True"
    assert cli.main(["sweep-snr", "--config", str(ini),
                     "--out", str(by_cli)]) == 0
    assert direct.read_bytes() == by_cli.read_bytes()


def test_manifest_records_no_lapack_routine_in_numpy_fallback(tmp_path,
                                                              numpy_linalg):
    cfg = _cfg(grid=(32,))
    rows = run_sweep_nr(cfg)
    csv_path = tmp_path / "out.csv"
    emit_csv(rows, str(csv_path))
    doc = json.loads(pathlib.Path(
        write_manifest(cfg, rows, str(csv_path))).read_text())
    assert doc["environment"]["lapack"] is None


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


# ------------------------------------------- each runner owns its kind

_SYNTHETIC = DatasetConfig(name="synthetic", synth_size=60)


def test_a_runner_fills_its_own_kinds_defaults():
    """run_sweep_nr on a config of the default kind, single, runs the
    sweep_nr default grid: it used to iterate the unset grid, None.  A
    config resolved as sweep_snr keeps its grid unset, so it runs the
    same grid; it used to be refused for the sweep_snr default grid."""
    cfg = ExperimentConfig(seeds=1, dataset=_SYNTHETIC)
    for cfg in (cfg, dataclasses.replace(cfg, kind="sweep_snr").resolved()):
        rows = run_sweep_nr(cfg)
        assert [r.n_r for r in rows] == [64, 128]
        assert {r.experiment for r in rows} == {"sweep_nr"}


def test_run_online_takes_the_online_n_r_whatever_the_kind():
    """An unset n_r is online's 1024, not single's 256, also in a config
    resolved as single, which keeps n_r unset; it used to run at 256."""
    cfg = ExperimentConfig(kind="single", seeds=1, dataset=_SYNTHETIC,
                           steps=1, iters_per_step=1, batch_size=8)
    for cfg in (cfg, cfg.resolved()):
        rows = run_online(cfg)
        assert {r.n_r for r in rows} == {1024}
        assert {r.experiment for r in rows} == {"online"}


def test_a_runner_checks_the_grid_as_its_own_kind():
    """A sweep_snr grid handed to run_sweep_nr gets the antenna-count
    check; it used to run unchecked and fail on a channel of 0 antennas."""
    cfg = ExperimentConfig(kind="sweep_snr", seeds=1, dataset=_SYNTHETIC,
                           grid=(0.5, 10.0))
    with pytest.raises(ConfigError, match=r"n_r must be a whole number in "
                                          r"\[1, \d+\], got 0.5"):
        run_sweep_nr(cfg)


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
    """`resolved` returns n_r and grid as set; `points` fills the kind's
    defaults."""
    cfg = ExperimentConfig(kind="sweep_snr",
                           dataset=DatasetConfig(name="synthetic")).resolved()
    assert cfg.n_r is None and cfg.grid is None
    assert cfg.points() == [(256, 0.0, snr) for snr in
                            (0.0, 10.0, 20.0, 30.0, math.inf)]
    online = ExperimentConfig(kind="online",
                              dataset=DatasetConfig(name="synthetic")).resolved()
    assert online.n_r is None and online.points() == [(1024, 0.0, math.inf)]


def test_resolved_missing_dataset_file():
    cfg = ExperimentConfig(kind="single",
                           dataset=DatasetConfig(name="wbcd", path="/no/such/file.csv"))
    with pytest.raises(ConfigError):
        cfg.resolved()


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="sweep_everything",
                         dataset=DatasetConfig(name="synthetic")).resolved()


# ------------------------------------------------------- solver paths

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_default_combiner_fits_take_one_cholesky_solve_each(
        tmp_path, monkeypatch):
    """With the default combiner, ridge, every fit of a sweep over the
    WBCD stand-in's interpolation threshold (N_r = D_train = 455), mimo
    and digital alike, is one `_cholesky_in_place` call: no certificate,
    `np.linalg.lstsq` or SVD runs."""
    import runpy
    from airelm.cli import main

    write_wdbc = runpy.run_path(str(WORKLOADS))["write_wdbc"]
    data = tmp_path / "wdbc.data"
    write_wdbc(data, 7919)
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nseeds = 2\nmaster_seed = 7919\n"
                   "baseline = true\n"
                   f"[dataset]\nname = wbcd\npath = {data}\n"
                   "[channel]\nsnr_db = 20\n[sweep]\ngrid = 128, 455, 512\n")
    calls = dict.fromkeys(("train", "_cholesky_in_place", "_certified",
                           "lstsq", "svd"), 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(elm, "train")
    counted(np.linalg, "lstsq")
    for name in ("_cholesky_in_place", "_certified", "svd"):
        counted(numkernel, name)
    assert main(["sweep-nr", "--config", str(ini)]) == 0
    assert calls == {"train": 12, "_cholesky_in_place": 12, "_certified": 0,
                     "lstsq": 0, "svd": 0}
