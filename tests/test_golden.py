"""Golden SHA-256 hashes of the results CSV for each experiment kind.

Each kind is pinned twice: with the default combiner, ridge, and with
`combiner = min_norm`, the paper's w = G^+ t, whose runs also pin the
min-norm solver's two paths (Gram solve, `np.linalg.lstsq`).

A refactor must leave these bytes alone.  LAPACK and BLAS give different
round-off bits across builds, and OpenBLAS picks its GEMM and Cholesky
kernels by CPU when it loads, so the hashes are only checked under the
numpy and BLAS build and the OpenBLAS kernel they were taken with (on
another kernel, as under OPENBLAS_CORETYPE=Haswell, they skip).  Each
case has two: one with the Cholesky solve run by LAPACK's dposv, as that
build runs it, and one with the `numpy_linalg` fallback, whose
`np.linalg.solve` moves round-off only.

The accuracy cells of the same runs are checked on every build: each is
a count of correct test predictions over the 24 test rows, which
round-off does not move unless it flips a predicted sign.
"""

import csv
import hashlib

import numpy as np
import pytest

import airelm.elm
import airelm.experiments
import airelm.numkernel
from airelm.cli import main

NUMPY_VERSION = "2.4.6"
BLAS = ("scipy-openblas", "0.3.31.188.0")
BLAS_CORE = "SkylakeX"

# baseline only adds rows to sweep_nr and single; the others ignore it
RIDGE_COMMON = ("[experiment]\nseeds = 2\nmaster_seed = 5\nbaseline = true\n"
                "[dataset]\nname = synthetic\nsynth_size = 120\nsynth_d = 4\n"
                "[channel]\nsnr_db = 20\nkappa = 1\n"
                "[model]\nn_r = 48\n")
COMMON = RIDGE_COMMON + "combiner = min_norm\n"

# command: (INI tail, hash with dposv, hash with the numpy fallback), all
# with combiner = min_norm
CASES = {
    "sweep-nr": ("[sweep]\ngrid = 16, 64\n",
                 "490ea15c54e1136a22dda213f87d389ba2b58e4e4f10a2a483688ecff06ae95c",
                 "cc95f3ceed69fa9f3282df351cf710a4679d3d15567d5d9a8a13b355c5c37eba"),
    "sweep-snr": ("[sweep]\ngrid = 0, 30\n",
                  "71b864afe3e99463c8e0ab8ffa5ea6ec6125d8106d9bfedec88f5e225563bf5c",
                  "86527f5cc49937a8cc2d59b0bb66af9ae9da57655e3a5343acb602d5592b8c8f"),
    "sweep-kappa": ("[sweep]\ngrid = 0, 10\n",
                    "d272747de76d81cc7a24d016904bec58b2c4cf3750cf942a56c6f0c57dfcbc5a",
                    "12a0f7c55ea00b0ea668130ef1c0d0e8734b4eef414071341bab00159e0a69ff"),
    "online": ("[online]\nsteps = 2\niters_per_step = 2\nbatch_size = 16\n",
               "931134c491bd6a66aa8956c2c8c964534d10d042657073ff727c021fb117ca9e",
               "08547629ea767751f4f041911be037ab7385e093f4a49294a4ad41167af02365"),
    "single": ("",
               "fcce0bbdec9f55380eed8d1a5fd61b6a78b86253daf79236f35665242a1260a0",
               "25e395f89ead88ba05d820dd4ad999b903bb5089a3050207d77fb3e1df866f41"),
}
# command: (hash with dposv, hash with the numpy fallback, correct test
# predictions out of 24 row by row), with the default combiner, ridge
RIDGE = {
    "sweep-nr": ("252442f7ae4667e914678d9647dc202d63211e1035db1dea04fb02c0a54e06aa",
                 "63bd191d148a69215076a9c7a91c22e744c93fbe4a00c74dbd43ad7332c5b461",
                 (23, 22, 22, 24, 23, 23, 23, 24)),
    "sweep-snr": ("a0fa98dbe8beef114ca2a974d3fb3e0ddae102ca79be8b3afc9864e7e0f352cc",
                  "77d35505a029587d556899ae6564dc8c5bfbdeb941d1bf4623c02ea2c80b66ab",
                  (23, 22, 23, 23, 23, 23)),
    "sweep-kappa": ("8aa8e0604b24ecf33c4229ae9a2eb5817552aa69e8bca2587107767b181dbc1e",
                    "149b0f2f7b969973c5adeb11f6aed0d4e2eb5f7e764781487c8d34d42eae5639",
                    (23, 23, 23, 21)),
    "online": ("fd9a8c83311c37e411995607a9d9a6eb1fb4b950330777efd17f5da28a6adeea",
               "6aec0acd479d611abdda35680479d79adaec56149b3613676a4f6d7929bbe317",
               (23, 23, 23, 23, 23, 23, 23, 22, 23, 23, 24, 23)),
    "single": ("c88bc06d8590bc347f85b1239efd5cecb37787f1ac72b4f6a48d3b6c056048bd",
               "30f7de5648c99b23059b5ac3928f6552442281fa556aeac7829069347406d017",
               (23, 23, 23, 23)),
}
THRESHOLD = ("[sweep]\ngrid = 64, 94, 95, 128\n",
             "4a4bfa2df5ef5677b95e7b9b112457a8887523a95982eda255dec88ec6a30aa8",
             "7703c8c7526605bfd9198fefead636c0d5d070a8e4faf655b7d186c6af2817b8")

# command (or "threshold"): correct test predictions, out of 24, row by row
CORRECT = {
    "sweep-nr": (23, 21, 23, 23, 23, 20, 22, 23),
    "sweep-snr": (22, 21, 23, 23, 23, 21),
    "sweep-kappa": (23, 23, 22, 23),
    "online": (22, 23, 23, 23, 23, 23, 23, 23, 23, 23, 23, 22),
    "single": (23, 21, 23, 22),
    "threshold": (23, 20, 22, 23, 22, 18, 17, 19,
                  22, 17, 21, 15, 22, 20, 21, 16),
}
N_TEST = 24


def _build():
    """(numpy version, (BLAS name, BLAS version), OpenBLAS kernel), as the
    run manifest records them."""
    env = airelm.experiments._environment()
    return (env["numpy"], (env["blas"], env["blas_version"]),
            env["blas_core"])


def _run(tmp_path, command, ini_text):
    """The results CSV path of `command` run on ini_text."""
    ini = tmp_path / "exp.ini"
    ini.write_text(ini_text)
    out = tmp_path / "r.csv"
    assert main([command, "--config", str(ini), "--out", str(out)]) == 0
    return out


def _check_hash(tmp_path, command, extra, digest, common=COMMON):
    numpy_version, blas, core = _build()
    if (numpy_version, blas, core) != (NUMPY_VERSION, BLAS, BLAS_CORE):
        pytest.skip(f"hashes taken under numpy {NUMPY_VERSION} with {BLAS} "
                    f"on the {BLAS_CORE} kernel, this is numpy "
                    f"{numpy_version} with {blas} on the {core} kernel")
    out = _run(tmp_path, command, common + extra)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _check_cells(tmp_path, command, ini_text, correct):
    out = _run(tmp_path, command, ini_text)
    with open(out, newline="") as fh:
        cells = [row["accuracy"] for row in csv.DictReader(fh)]
    assert cells == [str(k / N_TEST) for k in correct]


@pytest.mark.parametrize("command", sorted(CASES))
def test_results_csv_matches_golden_hash(tmp_path, command):
    extra, digest, _ = CASES[command]
    _check_hash(tmp_path, command, extra, digest)


@pytest.mark.parametrize("command", sorted(CASES))
def test_numpy_fallback_matches_golden_hash(tmp_path, command, numpy_linalg):
    extra, _, digest = CASES[command]
    _check_hash(tmp_path, command, extra, digest)


def _threshold_sweep(tmp_path, monkeypatch, digest):
    """A grid straddling N_r = D_train = 96: of its 16 fits, 5 have a Gram
    matrix the shifted Cholesky certifies and 11 take `np.linalg.lstsq`
    (among them the sigmoid baselines at N_r = 94 on seed 0, kappa 9.5e5,
    and at N_r = 95, kappa 2.1e6 and 1.4e6).  Every fit runs the
    certificate once, and no fit calls `eigvalsh` or `numkernel.svd`."""
    calls = dict.fromkeys(("fits", "_certified", "lstsq", "eigvalsh", "svd"), 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(airelm.elm, "min_norm_lstsq",
                        counted("fits", airelm.elm.min_norm_lstsq))
    for key in ("eigvalsh", "lstsq"):
        monkeypatch.setattr(np.linalg, key, counted(key, getattr(np.linalg, key)))
    for key in ("_certified", "svd"):
        monkeypatch.setattr(airelm.numkernel, key,
                            counted(key, getattr(airelm.numkernel, key)))
    _check_hash(tmp_path, "sweep-nr", THRESHOLD[0], digest)
    assert calls == {"fits": 16, "_certified": 16, "lstsq": 11,
                     "eigvalsh": 0, "svd": 0}


def test_threshold_sweep_matches_golden_hash_on_every_solver_path(
        tmp_path, monkeypatch):
    _threshold_sweep(tmp_path, monkeypatch, THRESHOLD[1])


def test_numpy_fallback_threshold_sweep_matches_golden_hash(
        tmp_path, monkeypatch, numpy_linalg):
    _threshold_sweep(tmp_path, monkeypatch, THRESHOLD[2])


@pytest.mark.parametrize("case", sorted(CORRECT))
def test_accuracy_cells_match_golden_counts_on_every_build(tmp_path, case):
    command, extra = (("sweep-nr", THRESHOLD[0]) if case == "threshold"
                      else (case, CASES[case][0]))
    _check_cells(tmp_path, command, COMMON + extra, CORRECT[case])


@pytest.mark.parametrize("command", sorted(RIDGE))
def test_ridge_default_matches_golden_hash(tmp_path, command):
    _check_hash(tmp_path, command, CASES[command][0], RIDGE[command][0],
                common=RIDGE_COMMON)


@pytest.mark.parametrize("command", sorted(RIDGE))
def test_numpy_fallback_ridge_default_matches_golden_hash(
        tmp_path, command, numpy_linalg):
    _check_hash(tmp_path, command, CASES[command][0], RIDGE[command][1],
                common=RIDGE_COMMON)


@pytest.mark.parametrize("command", sorted(RIDGE))
def test_ridge_default_accuracy_cells_match_golden_counts_on_every_build(
        tmp_path, command):
    _check_cells(tmp_path, command, RIDGE_COMMON + CASES[command][0],
                 RIDGE[command][2])
