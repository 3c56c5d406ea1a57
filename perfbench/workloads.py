"""The benchmark's workloads: generated inputs, expected shapes, accuracy floors.

Every input the program sees is written here from the workload seed: the
workload's INI file and, for `sweep_nr_wbcd`, a data file in the wdbc.data
layout.  The same seed always gives the same bytes.

The floors are one-sided lower bounds on the mean `mimo` accuracy at each
grid point.  Over workload seeds 1-20 and 7919, each floor sits at least
five standard deviations (across seeds) below the mean at its point.  A
solver change that only moves round-off passes, and so does a real fix at
the interpolation threshold; a 10% loss of accuracy does not.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

WDBC_ROWS = 569
WDBC_MALIGNANT = 212
WDBC_FEATURES = 30


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str          # airelm CLI subcommand
    ini: str                 # INI template; {seed} and {data} are filled in
    expected_rows: int       # rows of the results CSV
    group_column: str        # CSV column naming the grid point
    floors: dict             # grid point (as written in the CSV) -> min mean accuracy
    writes_wdbc: bool = False


SWEEP_NR_SEEDS = 3
ONLINE_SEEDS = 2
ONLINE_STEPS = 5
ONLINE_ITERS = 20
SNR_SEEDS = 100

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sweep_nr_wbcd",
            subcommand="sweep-nr",
            ini=("[experiment]\nseeds = %d\nmaster_seed = {seed}\n"
                 "baseline = true\nthreads = 1\n"
                 "[dataset]\nname = wbcd\npath = {data}\n"
                 "[channel]\nsnr_db = 20\n"
                 "[sweep]\ngrid = 128, 455, 512, 1024\n") % SWEEP_NR_SEEDS,
            expected_rows=4 * SWEEP_NR_SEEDS * 2,
            group_column="n_r",
            floors={"128": 0.88, "455": 0.35, "512": 0.69, "1024": 0.88},
            writes_wdbc=True),
        Workload(
            name="online_drift",
            subcommand="online",
            ini=("[experiment]\nseeds = %d\nmaster_seed = {seed}\nthreads = 2\n"
                 "[dataset]\nname = synthetic\nsynth_size = 400\nsynth_d = 8\n"
                 "[channel]\nsnr_db = 20\n"
                 "[model]\nn_r = 1024\n"
                 "[online]\neta = 0.9\nbatch_size = 32\nsteps = %d\n"
                 "iters_per_step = %d\n")
            % (ONLINE_SEEDS, ONLINE_STEPS, ONLINE_ITERS),
            expected_rows=ONLINE_SEEDS * ONLINE_STEPS * (ONLINE_ITERS + 1),
            group_column="step",
            floors={str(s): 0.91 for s in range(1, ONLINE_STEPS + 1)}),
        Workload(
            name="snr_sweep_narrow",
            subcommand="sweep-snr",
            ini=("[experiment]\nseeds = %d\nmaster_seed = {seed}\nthreads = 1\n"
                 "[dataset]\nname = synthetic\nsynth_size = 400\nsynth_d = 8\n"
                 "[model]\nn_r = 64\n"
                 "[sweep]\ngrid = 0, 10, 20, 30\n") % SNR_SEEDS,
            expected_rows=5 * SNR_SEEDS,
            group_column="snr_db",
            floors={"0.0": 0.92, "10.0": 0.94, "20.0": 0.94, "30.0": 0.94,
                    "inf": 0.94}),
    )
}


def write_wdbc(path, seed: int) -> None:
    """A wdbc.data-layout table: case id, M/B label, 30 positive features.

    Features come from a four-factor latent model whose factor means differ
    by class, pushed through exp() and scaled per column over five decades,
    so columns are correlated, skewed and on very different scales, as in
    the real table.  212 malignant and 357 benign rows, no header.
    """
    rng = np.random.default_rng([seed, WDBC_ROWS])
    labels = np.array(["M"] * WDBC_MALIGNANT + ["B"] * (WDBC_ROWS - WDBC_MALIGNANT))
    labels = labels[rng.permutation(WDBC_ROWS)]
    loadings = rng.normal(0.0, 0.8, (WDBC_FEATURES, 4))
    shift = np.array([3.0, -2.0, 1.2, 0.0])
    z = rng.normal(0.0, 1.0, (WDBC_ROWS, 4)) + np.outer(labels == "M", shift)
    x = z @ loadings.T + rng.normal(0.0, 0.5, (WDBC_ROWS, WDBC_FEATURES))
    scale = 10.0 ** rng.uniform(-2.0, 3.0, WDBC_FEATURES)
    values = scale * np.exp(0.3 * x)
    with open(path, "w") as fh:
        for i in range(WDBC_ROWS):
            cells = [str(842302 + i), labels[i]] + [f"{v:.6g}" for v in values[i]]
            fh.write(",".join(cells) + "\n")


def write_inputs(workload: Workload, seed: int, directory) -> str:
    """Write the workload's inputs for `seed` into `directory`; return the INI path."""
    os.makedirs(directory, exist_ok=True)
    data = ""
    if workload.writes_wdbc:
        data = os.path.join(directory, "wdbc.data")
        write_wdbc(data, seed)
    ini = os.path.join(directory, f"{workload.name}.ini")
    with open(ini, "w") as fh:
        fh.write(workload.ini.format(seed=seed, data=data))
    return ini


def check_csv(workload: Workload, data: bytes, reference: bytes = None):
    """Problems with one repetition's results CSV, as a list of strings.

    Checks that the bytes equal `reference` (the CSV most repetitions of the
    same code wrote, when given), the row count, that every accuracy is
    finite, and that the mean `mimo` accuracy at each grid point reaches
    its floor.  An empty list means the CSV passes.
    """
    problems = []
    if reference is not None and data != reference:
        problems.append("CSV bytes differ from the other repetitions")
    try:
        rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    except (UnicodeDecodeError, csv.Error) as exc:
        return problems + [f"unreadable CSV: {exc}"]
    if len(rows) != workload.expected_rows:
        problems.append(f"{len(rows)} rows, expected {workload.expected_rows}")
    groups = {}
    for row in rows:
        try:
            acc = float(row.get("accuracy") or "nan")
        except ValueError:
            acc = math.nan
        if not math.isfinite(acc):
            problems.append(f"non-finite accuracy {row.get('accuracy')!r}")
        elif row.get("model") == "mimo":
            groups.setdefault(row.get(workload.group_column), []).append(acc)
    for point, floor in workload.floors.items():
        accs = groups.get(point)
        if not accs:
            problems.append(f"no mimo rows at {workload.group_column}={point}")
        elif sum(accs) / len(accs) < floor:
            problems.append(
                f"mean accuracy {sum(accs) / len(accs):.4f} at "
                f"{workload.group_column}={point} is below the floor {floor}")
    return problems


def mean_mimo_accuracy(data: bytes) -> float:
    """Mean of the accuracy column over the `mimo` rows of a results CSV."""
    accs = [float(r["accuracy"])
            for r in csv.DictReader(data.decode("utf-8").splitlines())
            if r["model"] == "mimo"]
    return sum(accs) / len(accs)
