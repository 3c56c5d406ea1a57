"""Golden SHA-256 hashes of the results CSV for each experiment kind.

A refactor must leave these bytes alone.  LAPACK and BLAS give different
round-off bits across builds, so the hashes are only checked under the
numpy and BLAS build they were taken with.
"""

import hashlib

import numpy as np
import pytest

import airelm.elm
import airelm.numkernel
from airelm.cli import main

NUMPY_VERSION = "2.4.6"
BLAS = ("scipy-openblas", "0.3.31.188.0")

# baseline only adds rows to sweep_nr and single; the others ignore it
COMMON = ("[experiment]\nseeds = 2\nmaster_seed = 5\nbaseline = true\n"
          "[dataset]\nname = synthetic\nsynth_size = 120\nsynth_d = 4\n"
          "[channel]\nsnr_db = 20\nkappa = 1\n"
          "[model]\nn_r = 48\n")

CASES = {
    "sweep-nr": ("[sweep]\ngrid = 16, 64\n",
                 "503158573a9a6b7b5d1a451c97d074b6cf9fdffed52f935629aca93d52eb493b"),
    "sweep-snr": ("[sweep]\ngrid = 0, 30\n",
                  "86527f5cc49937a8cc2d59b0bb66af9ae9da57655e3a5343acb602d5592b8c8f"),
    "sweep-kappa": ("[sweep]\ngrid = 0, 10\n",
                    "12a0f7c55ea00b0ea668130ef1c0d0e8734b4eef414071341bab00159e0a69ff"),
    "online": ("[online]\nsteps = 2\niters_per_step = 2\nbatch_size = 16\n",
               "e011f3babe762fba6d6b9d6cffc33631d734356c0be0476337000c46fbf24309"),
    "single": ("",
               "bed39411ab99061deee2d632eeb2dc6d8babd61cf584ff2d4ca2725610c66537"),
}


def _build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return np.__version__, (blas.get("name"), blas.get("version"))


def _check_hash(tmp_path, command, extra, digest):
    numpy_version, blas = _build()
    if (numpy_version, blas) != (NUMPY_VERSION, BLAS):
        pytest.skip(f"hashes taken under numpy {NUMPY_VERSION} with {BLAS}, "
                    f"this is numpy {numpy_version} with {blas}")
    ini = tmp_path / "exp.ini"
    ini.write_text(COMMON + extra)
    out = tmp_path / "r.csv"
    assert main([command, "--config", str(ini), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command", sorted(CASES))
def test_results_csv_matches_golden_hash(tmp_path, command):
    _check_hash(tmp_path, command, *CASES[command])


def test_threshold_sweep_matches_golden_hash_on_every_solver_path(
        tmp_path, monkeypatch):
    """A grid straddling N_r = D_train = 96: of its 16 fits, 5 have a Gram
    matrix the shifted Cholesky certifies, 2 (N_r = 94) one that only
    `eigvalsh` admits, and 9 take the SVD (N_r = 95 on seed 0 and every
    sigmoid baseline)."""
    calls = {"lstsq": 0, "eigvalsh": 0, "svd": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(airelm.elm, "min_norm_lstsq",
                        counted("lstsq", airelm.elm.min_norm_lstsq))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(airelm.numkernel, "svd",
                        counted("svd", airelm.numkernel.svd))
    _check_hash(tmp_path, "sweep-nr", "[sweep]\ngrid = 64, 94, 95, 128\n",
                "a68fe7803c15f7d7d7e61cb84a314485172c8515af970b5f9c25d5d8ff3b258f")
    assert (calls["lstsq"] - calls["eigvalsh"],
            calls["eigvalsh"] - calls["svd"], calls["svd"]) == (5, 2, 9)
