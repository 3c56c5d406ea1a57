"""Ingestion tour: CSV with missing cells, raw IDX bytes, imputation.

Everything here is built in a temp directory on the fly, so the script has
no external file dependencies -- it just shows what each loader does and
what it refuses to do.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np

from airelm import (
    DataError,
    RngStream,
    load_csv,
    load_idx,
    mnist_binarize,
    secom_prepare,
    split_standardize,
)

with tempfile.TemporaryDirectory() as tmp_dir:
    tmp = Path(tmp_dir)

    # --- csv with a missing-value token -------------------------------
    csv_path = tmp / "sensors.csv"
    csv_path.write_text(
        "pressure,temp,flow,label\n"
        "1.01,290.5,NA,1\n"
        "0.98,291.2,12.4,-1\n"
        "1.05,NA,11.9,1\n"
        "0.97,289.9,12.1,-1\n"
        "1.02,290.8,12.6,1\n"
        "0.99,290.1,12.0,-1\n"
    )
    table = load_csv(str(csv_path), label_column=3, missing_token="NA")
    print(f"csv: {table.features.shape[0]} rows x {table.features.shape[1]} features,"
          f" {int((~table.present).sum())} missing cells")
    print(f"     columns: {table.feature_names}")

    # the splitter refuses tables that still have holes
    try:
        split_standardize(table, 0.8, RngStream(0).split(0))
    except DataError as e:
        print(f"     split on unimputed table -> DataError: {e}")

    # mean-impute while choosing usable columns, then split cleanly
    fixed = secom_prepare(table, n_features=3, rng=RngStream(0).split(8))
    data = split_standardize(fixed, 0.8, RngStream(0).split(0))
    print(f"     after impute + split: train {data.x_train.shape}, test {data.x_test.shape}")
    print(f"     train block mean ~ {np.abs(data.x_train.mean(axis=0)).max():.1e}")

    # --- idx image/label pair -----------------------------------------
    print()
    imgs, lbls = tmp / "digits.idx3", tmp / "digits.idx1"
    pixels = bytes([0, 64, 128, 255, 10, 20, 30, 40, 5, 15, 25, 35])
    imgs.write_bytes(struct.pack(">IIII", 0x00000803, 3, 2, 2) + pixels)
    lbls.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([3, 8, 4]))
    digits = load_idx(str(imgs), str(lbls))
    print(f"idx: {digits.features.shape[0]} images, {digits.features.shape[1]} pixels each,"
          f" values rescaled to [0, 1]")
    print(f"     first image: {digits.features[0]}")

    binar = mnist_binarize(digits, n_pixels=4)
    print(f"     digit labels {digits.labels.astype(int)} -> parity targets {binar.labels.astype(int)}")

    # corrupt the magic and watch it bounce
    (tmp / "bad.idx3").write_bytes(struct.pack(">IIII", 0xDEADBEEF, 3, 2, 2) + pixels)
    try:
        load_idx(str(tmp / "bad.idx3"), str(lbls))
    except DataError as e:
        print(f"     corrupted magic -> DataError: {e}")
