"""Ingestion tour: a CSV with a header and missing cells, and the WBCD layout.

Everything here is built in a temp directory on the fly, so the script has
no external file dependencies -- it just shows what each loader does and
what it refuses to do.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from airelm import DataError, RngStream, load_csv, load_wbcd, split_standardize

with tempfile.TemporaryDirectory() as tmp_dir:
    tmp = Path(tmp_dir)

    # --- csv with a header and a missing-value token ------------------
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
    table = load_csv(str(csv_path), label_column="label", missing_token="NA")
    print(f"csv: {table.n_rows} rows x {table.n_features} features,"
          f" {int((~table.present).sum())} missing cells")
    print(f"     columns: {table.feature_names}")

    # the splitter refuses tables that still have holes
    try:
        split_standardize(table, 0.8, rng=RngStream(0).split(0))
    except DataError as e:
        print(f"     split on unimputed table -> DataError: {e}")

    # imputing is the caller's choice; here, each column's mean
    means = np.nanmean(table.features, axis=0)
    fixed = replace(table, features=np.where(table.present, table.features,
                                             means))
    data = split_standardize(fixed, 0.8, rng=RngStream(0).split(0))
    print(f"     after impute + split: train {data.x_train.shape},"
          f" test {data.x_test.shape}")
    print(f"     train block mean ~ {np.abs(data.x_train.mean(axis=0)).max():.1e}")

    # without a missing token, a bad cell names its file, line and column
    try:
        load_csv(str(csv_path), label_column="label")
    except DataError as e:
        print(f"     no missing_token -> DataError: {e}")

    # --- the WBCD layout: id, M/B diagnosis, 30 features, no header -----
    print()
    rng = np.random.default_rng(0)
    wbcd_path = tmp / "wdbc.data"
    wbcd_path.write_text("".join(
        f"{842301 + i},{'MB'[i % 2]},"
        + ",".join(f"{v:.4f}" for v in rng.uniform(0, 30, 30)) + "\n"
        for i in range(4)))
    cases = load_wbcd(str(wbcd_path))
    print(f"wbcd: {cases.n_rows} cases x {cases.n_features} features,"
          f" id column dropped")
    print(f"     M/B -> labels {cases.labels.tolist()}")

    # a row cut short bounces with its line number
    lines = wbcd_path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
    wbcd_path.write_text("".join(lines))
    try:
        load_wbcd(str(wbcd_path))
    except DataError as e:
        print(f"     short row -> DataError: {e}")
