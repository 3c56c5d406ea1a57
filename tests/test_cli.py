import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import pytest
from dataclasses import fields
from hypothesis import given, settings, strategies as st

from airelm.cli import build_parser, main
from airelm.config import (DATASETS, KIND_TABLE, KINDS, DatasetConfig,
                           ExperimentConfig)


def _ini(tmp_path, body):
    p = tmp_path / "exp.ini"
    p.write_text(body)
    return str(p)


def test_all_subcommands_registered():
    parser = build_parser()
    subs = parser._subparsers._group_actions[0].choices
    assert set(subs) == {"sweep-nr", "sweep-snr", "sweep-kappa", "online", "single"}


def test_single_runs_with_defaults(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["single", "--seeds", "2", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert os.path.exists(str(out) + ".manifest.json")
    text = capsys.readouterr().out
    assert "mean_accuracy" in text
    assert str(out) in text


def test_printed_summary_shows_every_summary_column(tmp_path, capsys):
    """The printed table takes its columns from `summarize`, and drops a
    column empty in every row (online columns in a sweep)."""
    cfg = _ini(tmp_path, "[experiment]\nseeds = 1\n[dataset]\n"
               "synth_size = 40\n[online]\nsteps = 1\niters_per_step = 1\n"
               "batch_size = 8\n")
    assert main(["online", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == [
        "model", "n_r", "snr_db", "kappa", "eta", "step", "iteration",
        "n_trials", "mean_accuracy", "std_accuracy",
        "mean_normalized_accuracy"]
    assert main(["single", "--seeds", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == [
        "model", "n_r", "snr_db", "kappa", "n_trials", "mean_accuracy",
        "std_accuracy"]


def test_printed_summary_is_the_same_on_a_rerun(capsys):
    """Nothing timed reaches stdout: two identical runs print the same
    bytes."""
    printed = []
    for _ in range(2):
        assert main(["single", "--seeds", "2"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_seed_flag_changes_output(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["single", "--seeds", "2", "--out", str(a)]) == 0
    assert main(["single", "--seeds", "2", "--out", str(b), "--seed", "5"]) == 0
    assert main(["single", "--seeds", "2", "--out", str(c), "--seed", "5"]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert b.read_bytes() == c.read_bytes()


def test_baseline_flag_adds_digital_rows(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["sweep-nr", "--seeds", "1", "--out", str(out), "--baseline",
               "--config", _ini(tmp_path,
                                "[experiment]\nkind = sweep_nr\n"
                                "[dataset]\nname = synthetic\nsynth_size = 120\n"
                                "[sweep]\ngrid = 32\n")])
    assert rc == 0
    body = out.read_text()
    assert "digital" in body
    assert "mimo" in body


def test_config_file_drives_run(tmp_path):
    out = tmp_path / "r.csv"
    cfgp = _ini(tmp_path,
                "[experiment]\nkind = sweep_kappa\nseeds = 2\n"
                "[dataset]\nname = synthetic\nsynth_size = 120\n"
                "[model]\nn_r = 32\n"
                "[sweep]\ngrid = 0, 10\n")
    rc = main(["sweep-kappa", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + seeds x kappa grid


def test_missing_config_exits_1(capsys):
    rc = main(["single", "--config", "/no/such/file.ini"])
    assert rc == 1
    assert capsys.readouterr().err.strip() != ""


def test_config_path_that_is_a_directory_exits_1(tmp_path, capsys):
    rc = main(["single", "--config", str(tmp_path), "--seeds", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config file")
    assert err.count("\n") == 1


def test_config_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    p = tmp_path / "exp.ini"
    p.write_bytes("[experiment]\nseeds = 1\n# café\n".encode("latin-1"))
    rc = main(["single", "--config", str(p)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config file")
    assert "utf-8" in err and err.count("\n") == 1


def test_unknown_config_key_exits_1(tmp_path, capsys):
    rc = main(["single", "--config",
               _ini(tmp_path, "[experiment]\nkind = single\nbogus = 1\n")])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


def test_data_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,l\n1,2,1\n3,4\n")
    rc = main(["single", "--config",
               _ini(tmp_path,
                    "[experiment]\nkind = single\n"
                    f"[dataset]\nname = csv\npath = {bad}\nlabel_column = 2\n")])
    assert rc == 2
    assert "ragged" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_data_cell_exits_2(tmp_path, capsys, cell):
    data = tmp_path / "d.csv"
    rows = [f"{i},{i % 3},{1 if i % 2 else -1}" for i in range(8)]
    rows[4] = f"{cell},4,-1"
    data.write_text("a,b,label\n" + "\n".join(rows) + "\n")
    rc = main(["single", "--seeds", "1", "--config",
               _ini(tmp_path, f"[dataset]\nname = csv\npath = {data}\n"
                              "label_column = label\n[model]\nn_r = 8\n")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("data error:")
    assert f"d.csv:6: non-finite cell '{cell}' in column 0" in err


@pytest.mark.parametrize("dataset, files, message", [
    ("name = csv\npath = {a}\nlabel_column = l\n",
     [b"a,l\n1,1\n2,\xff\n"], "a:3: not UTF-8 text"),
    ("name = csv\npath = {a}\nlabel_column = l\n",
     [b"a,l\n1,1\n" + b"1" * 131073 + b",1\n"],
     "a:3: field larger than field limit"),
], ids=["csv_not_utf8", "csv_field_over_limit"])
def test_malformed_data_file_exits_2_before_any_trial(
        tmp_path, capsys, monkeypatch, dataset, files, message):
    import airelm.experiments

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran on a malformed data file")

    monkeypatch.setattr(airelm.experiments, "sample_ricean", no_trial)
    paths = dict(zip("ab", (tmp_path / "a", tmp_path / "b")))
    for path, data in zip(paths.values(), files):
        path.write_bytes(data)
    rc = main(["single", "--seeds", "1", "--config",
               _ini(tmp_path, "[dataset]\n" + dataset.format(**paths))])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("data error:") and message in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_synth_separation_just_under_its_bound_runs(tmp_path):
    """The bound on synth_separation, 3.79e+153 for 400 x 8 features, lets
    the largest separation it admits standardize without overflow."""
    cfg = _ini(tmp_path, "[dataset]\nsynth_separation = -3.79e153\n"
               "[model]\nn_r = 8\n")
    assert main(["single", "--seeds", "2", "--config", cfg]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dataset, message", [
    ("name = csv\npath = {data}\nlabel_column = label\n", "feature 'a'"),
], ids=["huge_csv_cells"])
def test_finite_but_huge_features_exit_2(tmp_path, capsys, dataset, message):
    """Finite features whose training mean or std overflows float64 are a
    data error, not NaN features ending in a solver traceback or a column
    zeroed by an infinite std."""
    data = tmp_path / "d.csv"
    rows = [f"{(-1) ** i * 1e308!r},{i % 3},{1 if i % 2 else -1}"
            for i in range(8)]
    data.write_text("a,b,label\n" + "\n".join(rows) + "\n")
    rc = main(["single", "--seeds", "1", "--config",
               _ini(tmp_path, "[dataset]\n" + dataset.format(data=data)
                    + "[model]\nn_r = 8\n")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("data error:")
    assert f"{message}: its training mean or std overflows float64" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_test_cell_overflowing_when_standardized_exits_2(tmp_path, capsys):
    """Column a is 0.00-0.09 but for one 1e308 cell, which master_seed 6
    puts in the test block: standardized by the training statistics it
    would be inf, and the run would end normally with that row's
    prediction NaN and counted wrong."""
    data = tmp_path / "d.csv"
    rows = [f"{i / 100:.2f},{i % 3},{1 if i % 2 else -1}" for i in range(10)]
    rows[4] = "1e308,4,-1"
    data.write_text("a,b,label\n" + "\n".join(rows) + "\n")
    rc = main(["single", "--seeds", "1", "--config",
               _ini(tmp_path, f"[experiment]\nmaster_seed = 6\n"
                              f"[dataset]\nname = csv\npath = {data}\n"
                              "label_column = label\n[model]\nn_r = 8\n")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("data error: feature 'a': a test-block value overflows "
                   "float64 when standardized\n")


@pytest.mark.parametrize("module", ["numpy.ma", "concurrent.futures",
                                    "logging"])
def test_a_run_does_not_import_numpy_ma(tmp_path, module):
    """No step of a run, on one thread or two, needs these modules, and
    each costs every run memory: numpy.ma, which `np.unique` imports on
    first use, about 15 ms of import time and 1.5 MB; concurrent.futures,
    which imports logging, about 0.3 MB."""
    ini = _ini(tmp_path, "[experiment]\nseeds = 2\nthreads = 2\n[dataset]\n"
                         "name = synthetic\nsynth_size = 60\nsynth_d = 3\n"
                         "[model]\nn_r = 16\n[sweep]\ngrid = 0, 20\n")
    script = ("import sys\nfrom airelm.cli import main\n"
              f"code = main(['sweep-snr', '--config', {ini!r}, "
              f"'--out', {str(tmp_path / 'r.csv')!r}])\n"
              f"print(code, {module!r} in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_missing_output_directory_exits_3(tmp_path, capsys, monkeypatch):
    import airelm.experiments

    def no_compute(cfg, body):
        raise AssertionError("the experiment ran before --out was checked")

    # `run` resolves the config, then `_per_seed` starts the trials
    monkeypatch.setattr(airelm.experiments, "_per_seed", no_compute)
    out = tmp_path / "no_such_dir" / "r.csv"
    rc = main(["single", "--seeds", "1", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("output error:") and "no_such_dir" in err
    assert not out.parent.exists()


def test_threads_flag_preserves_bytes(tmp_path):
    bodies = [
        "[experiment]\nkind = sweep_nr\nseeds = 2\n"
        "[dataset]\nname = synthetic\nsynth_size = 120\n"
        "[sweep]\ngrid = 32, 64\n",
        # WBCD-shaped: the 455 x 455 Gram matrix is large enough that LAPACK
        # runs threaded when BLAS is not held at one thread
        "[experiment]\nkind = sweep_nr\nseeds = 1\n"
        "[dataset]\nname = synthetic\nsynth_size = 569\nsynth_d = 30\n"
        "[sweep]\ngrid = 512\n",
        # min-norm fits on both sides of N_r = D_train = 96, some of them
        # past the Gram certificate, solved by np.linalg.lstsq
        "[experiment]\nkind = sweep_nr\nseeds = 2\nbaseline = true\n"
        "[dataset]\nname = synthetic\nsynth_size = 120\nsynth_d = 4\n"
        "[channel]\nsnr_db = 20\n[model]\ncombiner = min_norm\n"
        "[sweep]\ngrid = 64, 94, 95, 128\n",
    ]
    for body in bodies:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = _ini(tmp_path, body)
        assert main(["sweep-nr", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep-nr", "--config", cfg, "--out", str(b),
                     "--threads", "2"]) == 0
        assert a.read_bytes() == b.read_bytes(), body


@pytest.mark.parametrize("command, body, rows_per_seed", [
    ("sweep-snr", "[sweep]\ngrid = 0, 10, 30\n", 4),
    ("sweep-kappa", "[channel]\nsnr_db = 10\n[sweep]\ngrid = 0, 1, 10\n", 3),
    # each step's models scored on one test block
    ("online", "[channel]\nsnr_db = 10\n"
     "[online]\nsteps = 2\niters_per_step = 3\nbatch_size = 16\n", 8),
], ids=["sweep-snr", "sweep-kappa", "online"])
def test_threads_flag_preserves_seed_major_bytes(tmp_path, command, body,
                                                 rows_per_seed):
    # three seeds on two workers: one worker runs two whole seeds
    cfg = _ini(tmp_path,
               "[experiment]\nseeds = 3\n"
               "[dataset]\nname = synthetic\nsynth_size = 120\n"
               "[model]\nn_r = 32\n" + body)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([command, "--config", cfg, "--out", str(a)]) == 0
    assert main([command, "--config", cfg, "--out", str(b),
                 "--threads", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 1 + 3 * rows_per_seed


def test_blas_thread_env_preserves_bytes(tmp_path):
    cfg = _ini(tmp_path,
               "[experiment]\nkind = online\nseeds = 1\n"
               "[dataset]\nname = synthetic\nsynth_size = 569\nsynth_d = 30\n"
               "[model]\nn_r = 512\n"
               "[online]\nsteps = 1\niters_per_step = 2\n")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    outs = []
    for blas_threads in (None, "1"):
        out = tmp_path / f"blas_{blas_threads}.csv"
        run_env = dict(env)
        if blas_threads is not None:
            run_env["OPENBLAS_NUM_THREADS"] = blas_threads
        subprocess.run([sys.executable, "-m", "airelm.cli", "online",
                        "--config", cfg, "--out", str(out)],
                       env=run_env, check=True, capture_output=True,
                       timeout=120)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, body, message", [
    ("sweep-nr", "[sweep]\ngrid = 16.7, 32\n", "16.7"),
    ("sweep-nr", "[sweep]\ngrid = 16, nan\n", "nan"),
    ("sweep-nr", "[channel]\nsnr_db = -inf\n", "-inf"),
    ("sweep-nr", "[model]\nn_r = 0\n", "n_r must be >= 1"),
    # each used to end in "Maximum allowed dimension exceeded" from the
    # channel draw
    ("single", "[model]\nn_r = " + "1" + "0" * 30 + "\n",
     "n_r must be a whole number in [1, 9223372036854775807], got 1"
     + "0" * 30),
    ("sweep-nr", "[sweep]\ngrid = 16, 1e30\n", "1e+30"),
    ("sweep-nr", "[online]\ngamma = 2\n", "gamma must lie in (0, 1)"),
    ("sweep-nr", "[online]\neta = 0\n", "eta must lie in (0, 1]"),
    ("sweep-nr", "[online]\nbatch_size = 0\n", "batch_size must be >= 1"),
    ("sweep-nr", "[activation]\nalpha = 3\n", "alpha must be an even integer"),
    ("sweep-nr", "[activation]\ny_sat = 0\n", "y_sat must be positive"),
    # steps = 0 used to end in a summarize traceback after the run
    ("sweep-nr", "[online]\nsteps = 0\n", "steps must be >= 1"),
    ("sweep-nr", "[channel]\nkappa = nan\n", "kappa must be finite and >= 0"),
    ("sweep-nr", "[channel]\nkappa = inf\n", "kappa must be finite and >= 0"),
    ("sweep-nr", "[channel]\nkappa = -1\n", "kappa must be finite and >= 0"),
    ("sweep-kappa", "[sweep]\ngrid = 0, -2\n",
     "kappa must be finite and >= 0, got -2.0"),
    ("sweep-nr", "[channel]\nlos_angle_rx = nan\n", "LoS angles must be"),
    ("sweep-nr", "[online]\niters_per_step = -1\n", "iters_per_step must be"),
    # each used to end in a traceback: a TypeError on loading (no path), a
    # NaN/Inf error in the solve and a ValueError from RngStream inside a
    # trial
    ("sweep-nr", "[dataset]\nname = wbcd\n",
     "dataset 'wbcd' needs [dataset] path"),
    ("sweep-nr", "[dataset]\nsynth_separation = inf\n",
     "synth_separation must be finite"),
    ("sweep-nr", "[dataset]\nsynth_separation = nan\n",
     "synth_separation must be finite"),
    # used to end as a data error (exit 2): the training std overflows
    ("single", "[model]\nn_r = 8\n[dataset]\nsynth_separation = 1e154\n",
     "synth_separation must be finite and at most 3.79e+153 in magnitude "
     "for 400 x 8 features, got 1e+154"),
    ("sweep-nr", "master_seed = -1\n", "master_seed must be >= 0"),
    ("sweep-nr", "[dataset]\nname = csv\n",
     "dataset 'csv' needs [dataset] path"),
    ("sweep-nr", "[dataset]\nname = wbcd\npath = {file}.absent\n",
     "[dataset] path file does not exist"),
    # a name or key of a dataset the program does not read
    ("sweep-nr", "[dataset]\nname = mnist\npath = {file}\n",
     "unknown dataset name 'mnist'"),
    ("sweep-nr", "[dataset]\nmnist_pixels = 5\n",
     "unknown key 'mnist_pixels' in [dataset]"),
    # keys of a weight range and a missing-cell token no run sets
    ("sweep-nr", "[model]\ndigital_low = -1\n",
     "unknown key 'digital_low' in [model]"),
    ("sweep-nr", "[dataset]\nmissing_token = NA\n",
     "unknown key 'missing_token' in [dataset]"),
    # a row cap no run sets: every value, one it refused before included
    ("sweep-nr", "[dataset]\nsubsample = 40\n",
     "unknown key 'subsample' in [dataset]"),
    ("sweep-nr", "[dataset]\nsubsample = -1\n",
     "unknown key 'subsample' in [dataset]"),
    ("sweep-nr", "[dataset]\nsubsample = 1\n",
     "unknown key 'subsample' in [dataset]"),
    # a path loss only rescales the signal against y_sat
    ("sweep-nr", "[channel]\npathloss = 1\n",
     "unknown key 'pathloss' in [channel]"),
    # each used to end as a data error (exit 2) from the first trial
    ("sweep-nr", "[dataset]\nsynth_d = 0\n", "synth_d must be >= 1, got 0"),
    ("sweep-nr", "[dataset]\nsynth_size = 1\n",
     "synth_size must be >= 2, got 1"),
    ("sweep-nr", "[dataset]\nsynth_size = -5\n",
     "synth_size must be >= 2, got -5"),
    # used to end in an OverflowError from the online batch-size check
    ("online", "[dataset]\nsynth_size = 1" + "0" * 400 + "\n",
     "synth_size x synth_d must be at most"),
    # used to end in a TypeError from csv.reader on loading
    ("single", "[dataset]\nname = csv\npath = {file}\ndelimiter = ;;\n",
     "delimiter must be one character, got ';;'"),
    ("sweep-nr", "[model]\ncombiner = pinv\n",
     "combiner must be one of ('min_norm', 'ridge'), got 'pinv'"),
    # 10^(snr_db/10) overflows, or is 0 and sigma2 = P_sig / 0 infinite:
    # an OverflowError and a ridge_lstsq traceback from the first trial
    ("sweep-nr", "[channel]\nsnr_db = 4000\n", "got 4000.0"),
    ("sweep-nr", "[channel]\nsnr_db = -4000\n", "got -4000.0"),
    ("sweep-snr", "[sweep]\ngrid = 10, 4000\n", "got 4000.0"),
    # each used to rerun identical trials, n_trials 4 at seeds = 2; a
    # sweep_snr grid's inf repeats the noiseless point every SNR sweep ends
    # with
    ("sweep-snr", "[sweep]\ngrid = 10, 10\n",
     "sweep grid repeats the point n_r = 256, kappa = 0.0, snr_db = 10.0"),
    ("sweep-nr", "[sweep]\ngrid = 16, 32, 16.0\n",
     "sweep grid repeats the point n_r = 16, kappa = 0.0, snr_db = inf"),
    ("sweep-kappa", "[sweep]\ngrid = 0, 1, 0\n",
     "sweep grid repeats the point n_r = 256, kappa = 0.0, snr_db = inf"),
    ("sweep-snr", "[sweep]\ngrid = 10, inf\n",
     "sweep grid repeats the point n_r = 256, kappa = 0.0, snr_db = inf"),
    ("sweep-snr", "[sweep]\ngrid = noiseless\n",
     "sweep grid repeats the point n_r = 256, kappa = 0.0, snr_db = inf"),
    # each used to end as a data error (exit 2) on loading the table
    ("single", "[dataset]\nname = csv\npath = {file}\n"
     "label_map = 1:2, -1:0\n",
     "label_map values must be the class codes -1, 0 and 1, got 2"),
    ("single", "[dataset]\nname = csv\npath = {file}\n"
     "label_map = 1:99999999999999999999999, -1:0\n",
     "label_map values must be the class codes -1, 0 and 1, got "
     "99999999999999999999999"),
], ids=["fractional_n_r", "nan_grid", "minus_inf_snr", "zero_n_r",
        "huge_n_r", "huge_n_r_grid",
        "gamma_above_1", "zero_eta", "zero_batch_size", "odd_alpha",
        "zero_y_sat", "zero_steps",
        "nan_kappa", "inf_kappa",
        "negative_kappa", "negative_kappa_grid",
        "nan_los_angle", "negative_iters_per_step",
        "wbcd_without_path", "inf_separation", "nan_separation",
        "huge_synth_separation",
        "negative_master_seed", "csv_without_path",
        "absent_wbcd_path",
        "unknown_dataset_mnist", "unknown_key_mnist_pixels",
        "unknown_key_digital_low", "unknown_key_missing_token",
        "unknown_key_subsample", "negative_subsample", "subsample_1",
        "unknown_key_pathloss", "zero_synth_d",
        "synth_size_1",
        "negative_synth_size", "synth_size_beyond_float64",
        "two_character_delimiter", "unknown_combiner", "snr_db_4000",
        "snr_db_minus_4000", "snr_grid_4000",
        "repeated_snr_grid",
        "repeated_n_r_grid", "repeated_kappa_grid", "inf_in_snr_grid",
        "noiseless_in_snr_grid", "label_map_2", "label_map_huge"])
def test_bad_sweep_values_exit_1_before_compute(tmp_path, capsys, monkeypatch,
                                                command, body, message):
    import airelm.experiments

    def no_compute(cfg, body):
        raise AssertionError("the experiment ran before the config was checked")

    # `run` resolves the config, then `_per_seed` starts the trials
    monkeypatch.setattr(airelm.experiments, "_per_seed", no_compute)
    data = tmp_path / "data"    # an existing file for the keys that are set
    data.write_text("")
    cfg = _ini(tmp_path, "[experiment]\nkind = sweep_nr\nseeds = 1\n"
               + body.format(file=data))
    rc = main([command, "--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("in_ini", [False, True], ids=["flag", "ini"])
def test_seeds_beyond_sys_maxsize_exit_1_before_any_trial(
        tmp_path, capsys, monkeypatch, in_ini):
    """--seeds or [experiment] seeds above sys.maxsize used to end in an
    OverflowError traceback (exit 1) where the run made its result list."""
    import airelm.experiments

    def no_compute(cfg, body):
        raise AssertionError("the experiment ran before the config was checked")

    monkeypatch.setattr(airelm.experiments, "_per_seed", no_compute)
    seeds = "1" + "0" * 20
    args = (["--config", _ini(tmp_path, f"[experiment]\nseeds = {seeds}\n")]
            if in_ini else ["--seeds", seeds])
    assert main(["single", *args]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error: seeds must lie in (0, {sys.maxsize + 1}), "
                   f"got {seeds}\n")


def test_seeds_whose_rows_exceed_physical_memory_exit_1_before_any_trial(
        capsys, monkeypatch):
    """A seeds in range but whose result rows cannot fit in physical
    memory used to end in a MemoryError traceback where `_per_seed` made
    its result list, after the table loaded.  It is refused by `resolved`:
    no thread starts and next to nothing is allocated."""
    import airelm.experiments

    def no_compute(cfg, body):
        raise AssertionError("the experiment ran before the config was checked")

    monkeypatch.setattr(airelm.experiments, "_per_seed", no_compute)
    seeds = 2 ** 62
    threads = threading.active_count()
    tracemalloc.start()
    try:
        assert main(["single", "--seeds", str(seeds)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert threading.active_count() == threads and peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith(f"config error: seeds = {seeds} gives more result "
                          "rows than") and err.endswith(
                              " GiB of physical memory holds\n")


@pytest.mark.parametrize("body", [
    "[DEFAULT]\nseeds = 2\nn_r = 8\n",
    "[DEFAULT]\nseeds = 2\n[model]\nn_r = 8\n",
    "[model]\nn_r = 8\n[DEFAULT]\nseeds = 2\n",
], ids=["default_only", "default_first", "default_last"])
def test_default_section_exits_1_before_any_trial(
        tmp_path, capsys, monkeypatch, body):
    """configparser reads [DEFAULT] as defaults for every section: alone,
    its keys would be ignored (a run at 300 seeds), and beside a real
    section they would surface as unknown keys of that section."""
    import airelm.experiments

    def no_compute(cfg, body):
        raise AssertionError("the experiment ran before the config was checked")

    monkeypatch.setattr(airelm.experiments, "_per_seed", no_compute)
    rc = main(["single", "--config", _ini(tmp_path, body)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error:")
    assert err.rstrip().endswith("exp.ini: unknown section [DEFAULT]")


def test_tab_delimiter_is_written_as_backslash_t(tmp_path, capsys):
    """An INI value is stripped, so a tab cannot be the value itself; `\\t`
    names it, and a TSV runs as the same table written as a CSV does."""
    rows = ["a,b,label"] + [f"{i},{i % 3},{1 if i % 2 else -1}"
                            for i in range(12)]
    outs = []
    for name, sep, written in (("d.csv", ",", ","), ("d.tsv", "\t", "\\t")):
        data = tmp_path / name
        data.write_text("\n".join(row.replace(",", sep) for row in rows))
        out = tmp_path / f"{name}.out.csv"
        cfg = _ini(tmp_path, f"[experiment]\nseeds = 1\n[dataset]\n"
                   f"name = csv\npath = {data}\nlabel_column = label\n"
                   f"delimiter = {written}\n[model]\nn_r = 8\n")
        assert main(["single", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_noise_or_combiner_overflow_exits_1_naming_snr_db(tmp_path, capsys):
    """A noise power or combiner power that overflows float64 is found in
    the first trial, which needs the data to compute P_sig and the fit to
    compute ||w||^2.  At -3080 dB sigma^2 = P_sig / 1e-308 overflows; at
    -2800 dB the noise swamps a knee of 1e-10, G ~ y_sat^2 / n is tiny
    and w huge, so a higher snr_db or y_sat is the remedy."""
    for i, (body, message) in enumerate((
            ("[channel]\nsnr_db = -3080\n",
             "noise power at snr_db = -3080.0 overflows float64; raise snr_db"),
            ("[channel]\nsnr_db = -2800\n[activation]\ny_sat = 1e-10\n",
             "||w||^2 overflows float64; raise snr_db or y_sat"))):
        out = tmp_path / f"r{i}.csv"
        cfg = _ini(tmp_path, "[experiment]\nseeds = 1\n" + body)
        assert main(["single", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1, body
        assert err.startswith("config error:") and message in err, err
        assert "pathloss" not in err
        assert not out.exists()


def test_reader_closing_stdout_early_exits_3_without_traceback(tmp_path):
    """`airelm online ... | head -1`: the summary, over 4,000 rows, fills
    the pipe, the reader closes it after one line, and the run exits 3
    with one line on stderr, its CSV and manifest written."""
    out = tmp_path / "r.csv"
    cfg = _ini(tmp_path, "[experiment]\nseeds = 1\n[model]\nn_r = 16\n"
                         "[online]\nsteps = 200\niters_per_step = 20\n"
                         "batch_size = 8\n")
    proc = subprocess.Popen([sys.executable, "-m", "airelm.cli", "online",
                             "--config", cfg, "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert b"mean_accuracy" in proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 3, err
    assert err.startswith("output error:") and err.count("\n") == 1, err
    assert out.exists() and pathlib.Path(str(out) + ".manifest.json").exists()


def test_file_key_the_dataset_does_not_read_is_not_checked(tmp_path):
    out = tmp_path / "r.csv"
    cfg = _ini(tmp_path, "[experiment]\nseeds = 1\n"
               "[dataset]\nname = synthetic\nsynth_size = 40\n"
               "path = nosuch.csv\n[model]\nn_r = 16\n")
    assert main(["single", "--config", cfg, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_file_key_the_dataset_does_not_read_is_not_checksummed(
        tmp_path, monkeypatch):
    import airelm.experiments

    def no_read(path):
        raise AssertionError(f"read {path}, which the dataset does not use")

    monkeypatch.setattr(airelm.experiments, "sha256_file", no_read)
    leftover = tmp_path / "leftover.csv"
    leftover.write_text("a,label\n1,1\n")
    out = tmp_path / "r.csv"
    cfg = _ini(tmp_path, "[experiment]\nseeds = 1\n"
               "[dataset]\nname = synthetic\nsynth_size = 40\n"
               f"path = {leftover}\n"
               "[model]\nn_r = 16\n")
    assert main(["single", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(pathlib.Path(str(out) + ".manifest.json").read_text())
    assert doc["dataset_checksums"] == {}     # synthetic data has no file


@pytest.mark.parametrize("dataset, d_train", [
    ("name = synthetic\nsynth_size = 40\n", 32),
    # the 60 rows of the loaded table: 48 train the model
    ("name = csv\npath = {data}\nlabel_column = label\n", 48),
], ids=["synthetic", "csv"])
def test_online_batch_above_train_block_exits_1_before_fit(
        tmp_path, capsys, monkeypatch, dataset, d_train):
    import airelm.experiments

    def no_fit(*args, **kwargs):
        raise AssertionError("the model was fitted before batch_size was checked")

    monkeypatch.setattr(airelm.experiments, "fit", no_fit)
    data = tmp_path / "d.csv"
    data.write_text("a,b,label\n" + "".join(
        f"{i},{i % 7},{1 if i % 2 else -1}\n" for i in range(60)))
    cfg = _ini(tmp_path, "[experiment]\nseeds = 1\n[dataset]\n"
               + dataset.format(data=data)
               + "[model]\nn_r = 16\n[online]\nbatch_size = 50\n")
    rc = main(["online", "--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error:")
    assert f"at most the {d_train} training rows, got 50" in err


@pytest.mark.parametrize("command, dataset, model, block", [
    ("single", "", "[model]\nn_r = 1000000000000\n",
     "the 1000000000000 x 9 channel matrix H needs"),
    ("sweep-nr", "name = csv\npath = {data}\nlabel_column = label\n",
     "[sweep]\ngrid = 16, 100000000000000\n",
     "the 100000000000000 x 3 channel matrix H needs"),
    ("single", "synth_size = 10000000\nsynth_d = 1\n",
     "[model]\nn_r = 20000000\n",
     "the 8000000 x 20000000 hidden matrix G needs"),
], ids=["synthetic_n_r", "csv_sweep_grid", "hidden_matrix"])
def test_block_larger_than_memory_exits_1_before_any_trial(
        tmp_path, capsys, monkeypatch, command, dataset, model, block):
    """An N_r whose channel or hidden matrix cannot fit in physical memory
    is a config error naming the block, found before any channel draw."""
    import airelm.experiments

    def no_draw(*args, **kwargs):
        raise AssertionError("a channel was drawn before the sizes were checked")

    monkeypatch.setattr(airelm.experiments, "sample_ricean", no_draw)
    data = tmp_path / "d.csv"
    data.write_text("a,b,label\n" + "".join(
        f"{i},{i % 7},{1 if i % 2 else -1}\n" for i in range(60)))
    cfg = _ini(tmp_path, "[experiment]\nseeds = 1\n[dataset]\n"
               + dataset.format(data=data) + model)
    rc = main([command, "--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error:") and block in err
    assert "GiB of physical memory" in err


def test_manifest_path_that_is_a_directory_exits_3_before_compute(
        tmp_path, capsys, monkeypatch):
    import airelm.experiments

    def no_compute(cfg, body):
        raise AssertionError("the experiment ran before the manifest path "
                             "was checked")

    # `run` resolves the config, then `_per_seed` starts the trials
    monkeypatch.setattr(airelm.experiments, "_per_seed", no_compute)
    out = tmp_path / "r.csv"
    (tmp_path / "r.csv.manifest.json").mkdir()
    rc = main(["single", "--seeds", "1", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == ("output error: output path is a directory: "
                   f"{out}.manifest.json\n")
    assert not out.exists()


@pytest.mark.parametrize("suffix", ["", ".manifest.json"],
                         ids=["out", "manifest"])
def test_output_path_that_is_the_dataset_file_exits_3_before_compute(
        tmp_path, capsys, monkeypatch, suffix):
    """--out, or the manifest path next to it, naming the dataset file would
    replace the input with the results and hash the results as the input;
    it is refused before any trial, and the input keeps its bytes."""
    import airelm.experiments

    def no_compute(cfg, body):
        raise AssertionError("the experiment ran before --out was checked")

    monkeypatch.setattr(airelm.experiments, "_per_seed", no_compute)
    data = tmp_path / f"d.csv{suffix}"
    data.write_text("a,label\n1,1\n2,-1\n3,1\n4,-1\n")
    before = data.read_bytes()
    cfg = _ini(tmp_path, f"[dataset]\nname = csv\npath = {data}\n"
                         "label_column = label\n")
    # spelt another way than [dataset] path, so only the file is the same
    out = tmp_path / "sub" / ".." / "d.csv"
    (tmp_path / "sub").mkdir()
    rc = main(["single", "--config", cfg, "--seeds", "1", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"output error: output path is the dataset file: {out}{suffix}\n")
    assert data.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [data.name, "exp.ini", "sub"])


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_csv_write_that_fails_exits_3_without_traceback(capsys):
    """A write or flush that fails after the CSV opened, here on a full
    device, is an OutputError, exit 3, before any manifest is written."""
    from airelm.errors import OutputError
    from airelm.experiments import TrialResult, emit_csv
    row = TrialResult(experiment="single", dataset="synthetic", seed=0,
                      model="mimo", n_r=8, snr_db=math.inf, kappa=0.0)
    with pytest.raises(OutputError, match="cannot write CSV to /dev/full"):
        emit_csv([row], "/dev/full")
    rc = main(["single", "--seeds", "1", "--out", "/dev/full"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("output error: cannot write CSV to /dev/full")
    assert err.count("\n") == 1
    assert not os.path.exists("/dev/full.manifest.json")


@pytest.mark.parametrize("command", ["sweep-nr", "sweep-snr", "sweep-kappa",
                                     "online", "single"])
def test_a_cli_run_resolves_its_config_once(tmp_path, monkeypatch, command):
    """`main` resolves the config once, in `run`, after the flags apply,
    and the manifest echoes that config: its kind's N_r and grid."""
    resolved = ExperimentConfig.resolved
    calls = []

    def counted(cfg):
        calls.append(cfg.kind)
        return resolved(cfg)

    monkeypatch.setattr(ExperimentConfig, "resolved", counted)
    kind = command.replace("-", "_")
    cfg = _ini(tmp_path, "[dataset]\nsynth_size = 40\n[online]\nsteps = 1\n"
               "iters_per_step = 1\nbatch_size = 8\n")
    out = tmp_path / "r.csv"
    assert main([command, "--config", cfg, "--seeds", "1",
                 "--out", str(out)]) == 0
    assert calls == [kind]
    echo = json.loads(pathlib.Path(f"{out}.manifest.json").read_text())
    assert echo["config"]["n_r"] == (1024 if kind == "online" else 256)
    grid = KIND_TABLE[kind][1]
    assert echo["config"]["grid"] == (list(grid) if grid else None)


@pytest.mark.parametrize("key, flag", [("seeds", "--seeds"),
                                       ("threads", "--threads")])
def test_a_flag_overrides_a_bad_file_value_before_it_is_checked(
        tmp_path, capsys, key, flag):
    """`key = 0` in the file is refused before any trial runs, and no CSV
    is written; with the flag set to 1 the run goes ahead and writes the
    bytes of a file that says 1."""
    body = "[experiment]\nseeds = 1\nthreads = 1\n[model]\nn_r = 8\n"
    good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
    good.write_text(body)
    bad.write_text(body.replace(f"{key} = 1", f"{key} = 0"))
    outs = [tmp_path / n for n in ("good.csv", "bad.csv", "rescued.csv")]
    assert main(["single", "--config", str(good), "--out", str(outs[0])]) == 0
    assert main(["single", "--config", str(bad), "--out", str(outs[1])]) == 1
    assert f"{key} must be >= 1, got 0" in capsys.readouterr().err
    assert not outs[1].exists()
    assert main(["single", "--config", str(bad), flag, "1",
                 "--out", str(outs[2])]) == 0
    assert outs[2].read_bytes() == outs[0].read_bytes()


def test_manifest_records_cli_config(tmp_path):
    out = tmp_path / "r.csv"
    main(["single", "--seeds", "3", "--seed", "9", "--out", str(out)])
    doc = json.loads(pathlib.Path(str(out) + ".manifest.json").read_text())
    assert doc["config"]["master_seed"] == 9
    assert doc["config"]["seeds"] == 3
    assert doc["config"]["kind"] == "single"


def test_online_subcommand(tmp_path):
    out = tmp_path / "r.csv"
    cfg = _ini(tmp_path,
               "[experiment]\nkind = online\nseeds = 1\n"
               "[dataset]\nname = synthetic\nsynth_size = 120\n"
               "[model]\nn_r = 48\n"
               "[online]\nsteps = 2\niters_per_step = 2\n")
    rc = main(["online", "--config", cfg, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 1 * 2 * 3  # header + seeds x steps x (1 + iters)


# ------------------------------------------------------------------ CLI fuzz

# every key of the config schema, by section
_SCHEMA = {f.name: f.metadata["section"]
           for cls in (ExperimentConfig, DatasetConfig)
           for f in fields(cls) if f.metadata}
_EDGES = ["0", "-1", "1e308", "-1e308", "nan", "inf", "-inf",
          str(sys.maxsize + 1)]
# text from which no number parses: int() and float() read only Nd digits
_NO_NUMBER = st.text(st.characters(exclude_categories=["Cs", "Nd"]),
                     max_size=12)
# every example sets each key that sizes an array or a loop, and threads,
# to a valid value of at most 64 or an invalid one, so no run is large;
# the test's --seeds 1 overrides seeds before it is checked, so a bad
# seeds runs one seed
_SMALL = st.integers(1, 64).map(str)
_BOUNDED = {key: _SMALL for key in (
    "seeds", "n_r", "synth_d", "batch_size")}
_BOUNDED["synth_size"] = st.integers(2, 64).map(str)
# an online run makes steps x iters_per_step mini-batch fits
_BOUNDED["steps"] = _BOUNDED["iters_per_step"] = st.integers(1, 8).map(str)
_BOUNDED["grid"] = st.lists(_SMALL, min_size=1, max_size=3).map(", ".join)
_BOUNDED["threads"] = st.sampled_from(["1", "2"])
_INVALID_SIZE = st.sampled_from(_EDGES[:-1]) | _NO_NUMBER
# valid values of the other keys; {data} is a small CSV file, {tmp} the
# test's directory: `out` is never a path the run could write elsewhere
_VALID = {
    "kind": KINDS, "master_seed": ["7"], "baseline": ["true", "no"],
    "out": ["{tmp}/r.csv"], "name": DATASETS, "path": ["{data}"],
    "label_column": ["label"], "delimiter": [";"],
    "has_header": ["off"], "label_map": ["1:1, 2:-1"],
    "train_ratio": ["0.5"], "synth_separation": ["1"], "kappa": ["10"],
    "los_angle_rx": ["0.5"],
    "los_angle_tx": ["0.5"], "snr_db": ["20", "noiseless"], "y_sat": ["0.5"],
    "alpha": ["4"], "combiner": ["min_norm", "ridge"],
    "eta": ["1"], "gamma": ["0.9"],
}
_INVALID_OUT = st.sampled_from(["{tmp}/none/r.csv", "{tmp}"])
# True about once in n draws; hypothesis favors the ends of a range, so
# True sits in the middle
_ONE_IN_16 = st.sampled_from([False] * 8 + [True] + [False] * 7)
_ONE_IN_10 = st.sampled_from([False] * 5 + [True] + [False] * 4)
_VALUE_KIND = st.sampled_from(["valid"] * 2 + ["edge", "valid", "text"]
                              + ["valid"] * 2)


@st.composite
def _schema_ini(draw):
    """INI text over the config schema: every bounded key, valid 15 times
    in 16; about one in ten of the others, valid 5 times in 7, else an edge
    value or any text (for `out`, a missing directory or a directory); and
    now and then an unknown key or section."""
    sections = {}
    for key, section in _SCHEMA.items():
        if key in _BOUNDED:
            value = draw(_INVALID_SIZE if draw(_ONE_IN_16)
                         else _BOUNDED[key])
        elif draw(_ONE_IN_10):
            kind = draw(_VALUE_KIND)
            value = draw(st.sampled_from(_VALID[key]) if kind == "valid"
                         else _INVALID_OUT if key == "out"
                         else st.sampled_from(_EDGES) if kind == "edge"
                         else st.text(max_size=12))
        else:
            continue
        sections.setdefault(section, []).append(f"{key} = {value}")
    unknown = draw(st.sampled_from([None] * 5 + ["model"] + [None] * 5
                                   + ["bogus"] + [None] * 5))
    if unknown:
        sections.setdefault(unknown, []).append("bogus = 1")
    return "".join(f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
                   for section, lines in sections.items())


@settings(max_examples=700)
@given(command=st.sampled_from(["sweep-nr", "sweep-snr", "sweep-kappa",
                                "online", "single"]),
       ini=_schema_ini())
def test_cli_on_schema_ini_returns_an_exit_code(tmp_path_factory, command,
                                                ini):
    """`main` on any INI text over the schema, with --seeds 1, returns an
    exit code, 0 to 3, and no exception escapes it."""
    tmp = tmp_path_factory.getbasetemp() / "cli_fuzz"
    tmp.mkdir(exist_ok=True)
    data = tmp / "data.csv"
    data.write_text("label,a,b\n" + "".join(
        f"{1 + i % 2},{i % 5},{i % 3}\n" for i in range(24)))
    path = tmp / "fuzz.ini"
    path.write_text(ini.replace("{tmp}", str(tmp)).replace("{data}",
                                                         str(data)),
                    encoding="utf-8")
    assert main([command, "--config", str(path), "--seeds", "1"]) in range(4)
