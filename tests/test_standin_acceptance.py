"""Acceptance checks 2-4 of `test_acceptance.py`, run offline on the
benchmark's WBCD stand-in instead of the real table.

The real checks read the breast-cancer table through scikit-learn and skip
without it.  These twins run the checks' own bodies, loaded from source,
on the stand-in that `perfbench/workloads.py` writes (`write_wdbc`, also
run from source, so nothing is written next to either file) at two
stand-in seeds: each check's grid, its 50 seeds from master seed 0, its
defaults and its thresholds.  They pass with the default combiner, ridge.
With `combiner = min_norm` check 2 fails here, at the interpolation dip
near N_r = D_train = 455 (analog 0.935/0.795/0.934 at N_r = 128/512/1024,
stand-in seed 7919), and checks 2 and 3 fail on the real table.
"""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKS = runpy.run_path(str(ROOT / "tests" / "test_acceptance.py"))


@pytest.fixture(scope="module", params=[7919, 11], ids=lambda s: f"standin{s}")
def standin_csv(request, tmp_path_factory):
    write_wdbc = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))[
        "write_wdbc"]
    path = tmp_path_factory.mktemp("standin") / "wdbc.data"
    write_wdbc(path, request.param)
    return str(path)


@pytest.mark.parametrize("check", [
    "test_2_breast_cancer_parity_with_digital",
    "test_3_accuracy_improves_with_snr",
    "test_4_strong_los_hurts_accuracy"])
def test_acceptance_check_passes_on_the_standin(standin_csv, check):
    CHECKS[check](standin_csv)
