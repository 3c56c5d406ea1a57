import json
import os
import pathlib
import subprocess
import sys

import pytest

from airelm.cli import build_parser, main


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


def test_secom_non_numeric_cell_exits_2(tmp_path, capsys):
    feats, labels = tmp_path / "secom.data", tmp_path / "labels.data"
    feats.write_text("1 2 3\n4 abc 6\n")
    labels.write_text("-1 x\n1 y\n")
    rc = main(["single", "--config",
               _ini(tmp_path,
                    f"[dataset]\nname = secom\npath = {feats}\n"
                    f"labels = {labels}\nsecom_features = 2\n")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("data error:") and "secom.data:2: non-numeric" in err


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


def test_missing_output_directory_exits_3(tmp_path, capsys, monkeypatch):
    import airelm.cli

    def no_compute(cfg):
        raise AssertionError("the experiment ran before --out was checked")

    monkeypatch.setattr(airelm.cli, "run", no_compute)
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
    ]
    for body in bodies:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = _ini(tmp_path, body)
        assert main(["sweep-nr", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep-nr", "--config", cfg, "--out", str(b),
                     "--threads", "2"]) == 0
        assert a.read_bytes() == b.read_bytes(), body


@pytest.mark.parametrize("command, body", [
    ("sweep-snr", "[sweep]\ngrid = 0, 10, 30\n"),
    ("sweep-kappa", "[channel]\nsnr_db = 10\n[sweep]\ngrid = 0, 1, 10\n"),
], ids=["sweep-snr", "sweep-kappa"])
def test_threads_flag_preserves_seed_major_bytes(tmp_path, command, body):
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
    assert len(a.read_text().splitlines()) == 1 + 3 * (4 if command ==
                                                       "sweep-snr" else 3)


def test_blas_thread_env_preserves_bytes(tmp_path):
    cfg = _ini(tmp_path,
               "[experiment]\nkind = online\nseeds = 1\n"
               "[dataset]\nname = synthetic\nsynth_size = 569\nsynth_d = 30\n"
               "[model]\nn_r = 512\n"
               "[online]\nsteps = 1\niters_per_step = 2\n")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src), *filter(None, [env.get("PYTHONPATH")])])
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
    ("sweep-nr", "[online]\ngamma = 2\n", "gamma must lie in (0, 1)"),
    ("sweep-nr", "[online]\neta = 0\n", "eta must lie in (0, 1]"),
    ("sweep-nr", "[online]\nbatch_size = 0\n", "batch_size must be >= 1"),
    ("sweep-nr", "[activation]\nalpha = 3\n", "alpha must be an even integer"),
    ("sweep-nr", "[activation]\ny_sat = 0\n", "y_sat must be positive"),
    # steps = 0 used to end in a summarize traceback after the run
    ("sweep-nr", "[online]\nsteps = 0\n", "steps must be >= 1"),
    ("sweep-nr", "[model]\ndigital_low = 1\ndigital_high = 0\n",
     "digital_low < digital_high"),
    ("sweep-nr", "[dataset]\nsubsample = -1\n", "subsample must be >= 2"),
    ("sweep-nr", "[dataset]\nsubsample = 1\n", "subsample must be >= 2"),
    ("sweep-nr", "[channel]\nkappa = nan\n", "kappa must be finite and >= 0"),
    ("sweep-nr", "[channel]\nkappa = inf\n", "kappa must be finite and >= 0"),
    ("sweep-nr", "[channel]\nkappa = -1\n", "kappa must be finite and >= 0"),
    ("sweep-kappa", "[sweep]\ngrid = 0, -2\n",
     "kappa must be finite and >= 0, got -2.0"),
    ("sweep-nr", "[channel]\npathloss = inf\n", "pathloss must be finite"),
    ("sweep-nr", "[channel]\npathloss = 0\n", "pathloss must be finite and > 0"),
    ("sweep-nr", "[channel]\nlos_angle_rx = nan\n", "LoS angles must be"),
    ("sweep-nr", "[online]\niters_per_step = -1\n", "iters_per_step must be"),
    # each used to end in a traceback: a TypeError on loading (no path), a
    # NaN/Inf error in the solve, an OverflowError drawing digital weights
    # and a ValueError from RngStream inside a trial
    ("sweep-nr", "[dataset]\nname = wbcd\n",
     "dataset 'wbcd' needs [dataset] path"),
    ("sweep-nr", "[dataset]\nsynth_separation = inf\n",
     "synth_separation must be finite"),
    ("sweep-nr", "[dataset]\nsynth_separation = nan\n",
     "synth_separation must be finite"),
    ("sweep-nr", "baseline = true\n[model]\ndigital_low = -inf\n",
     "digital_low < digital_high"),
    ("sweep-nr", "master_seed = -1\n", "master_seed must be >= 0"),
    ("sweep-nr", "[dataset]\nname = csv\n",
     "dataset 'csv' needs [dataset] path"),
    ("sweep-nr", "[dataset]\nname = mnist\nlabels = {file}\n",
     "dataset 'mnist' needs [dataset] images"),
    ("sweep-nr", "[dataset]\nname = mnist\nimages = {file}\n",
     "dataset 'mnist' needs [dataset] labels"),
    ("sweep-nr", "[dataset]\nname = secom\nlabels = {file}\n",
     "dataset 'secom' needs [dataset] path"),
    ("sweep-nr", "[dataset]\nname = secom\npath = {file}\n",
     "dataset 'secom' needs [dataset] labels"),
], ids=["fractional_n_r", "nan_grid", "minus_inf_snr", "zero_n_r",
        "gamma_above_1", "zero_eta", "zero_batch_size", "odd_alpha",
        "zero_y_sat", "zero_steps", "inverted_digital_range",
        "negative_subsample", "subsample_1", "nan_kappa", "inf_kappa",
        "negative_kappa", "negative_kappa_grid", "inf_pathloss",
        "zero_pathloss", "nan_los_angle", "negative_iters_per_step",
        "wbcd_without_path", "inf_separation", "nan_separation",
        "minus_inf_digital_low", "negative_master_seed", "csv_without_path",
        "mnist_without_images", "mnist_without_labels", "secom_without_path",
        "secom_without_labels"])
def test_bad_sweep_values_exit_1_before_compute(tmp_path, capsys, monkeypatch,
                                                command, body, message):
    import airelm.cli

    def no_compute(cfg):
        raise AssertionError("the experiment ran before the config was checked")

    monkeypatch.setattr(airelm.cli, "run", no_compute)
    data = tmp_path / "data"    # an existing file for the keys that are set
    data.write_text("")
    cfg = _ini(tmp_path, "[experiment]\nkind = sweep_nr\nseeds = 1\n"
               + body.format(file=data))
    rc = main([command, "--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("dataset, d_train", [
    ("name = synthetic\nsynth_size = 40\n", 32),
    # 60 rows, 40 of them kept by subsample: 32 train the model
    ("name = csv\npath = {data}\nlabel_column = label\nsubsample = 40\n", 32),
], ids=["synthetic", "csv_subsample"])
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
               + "[model]\nn_r = 16\n[online]\nbatch_size = 40\n")
    rc = main(["online", "--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error:")
    assert f"at most the {d_train} training rows, got 40" in err


def test_manifest_records_cli_config(tmp_path):
    out = tmp_path / "r.csv"
    main(["single", "--seeds", "3", "--seed", "9", "--out", str(out)])
    doc = json.loads(pathlib.Path(str(out) + ".manifest.json").read_text())
    assert doc["master_seed"] == 9
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
