"""Breast-cancer accuracy vs hidden width, against a digital baseline, for
both combiners.

Usage: python 02_wbcd_capacity.py [path/to/wdbc.data]

The file is the 569-case diagnostic table (id, M/B label, 30 features per
row, no header).  Grab it from the UCI repository if you don't have a copy.

Worth knowing before reading the numbers: with the paper's minimum-norm
combiner (w = G^+ t, `combiner = min_norm`) accuracy is NOT monotone in
width.  Near width == training size (455 here) the square design
interpolates the training targets exactly, and the fitted combiner is at
its most fragile -- the classic peak at the interpolation threshold.  Both
the analog and digital variants dip there and recover on either side.
The default combiner, ridge, does not interpolate, and shows no dip.
"""

import os
import sys

import numpy as np

from airelm import DatasetConfig, ExperimentConfig, run_sweep_nr

path = sys.argv[1] if len(sys.argv) > 1 else "wdbc.data"
if not os.path.exists(path):
    sys.exit(f"dataset file not found: {path!r}\n"
             "pass the wdbc.data path as the first argument")

COMBINERS = ("ridge", "min_norm")
GRID = (64, 128, 256, 455, 512, 1024)

acc = {}
for combiner in COMBINERS:
    cfg = ExperimentConfig(
        kind="sweep_nr",
        seeds=20,
        master_seed=0,
        baseline=True,
        grid=GRID,
        combiner=combiner,
        dataset=DatasetConfig(name="wbcd", path=path),
    )
    print(f"running 20 seeds x 6 widths (analog + digital), {combiner}...")
    for r in run_sweep_nr(cfg):
        acc.setdefault((combiner, r.model, r.n_r), []).append(r.accuracy)

print()
print(f"{'':>6}  {'ridge (default)':>18}  {'min_norm (paper)':>18}")
print(f"{'width':>6}" + f"  {'analog':>8}  {'digital':>8}" * len(COMBINERS))
for n_r in GRID:
    cells = "".join(f"  {np.mean(acc[(c, 'mimo', n_r)]):>8.4f}"
                    f"  {np.mean(acc[(c, 'digital', n_r)]):>8.4f}"
                    for c in COMBINERS)
    marker = "  <- interpolation threshold" if n_r == 455 else ""
    print(f"{n_r:>6}{cells}{marker}")

print()
print("the over-the-air layer tracks the digital one within a few points")
print("at every width; the min-norm dip at 455 is structural, not a")
print("numerics bug, and the ridge combiner removes it.")
