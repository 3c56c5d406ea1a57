import struct

import numpy as np
import pytest

from airelm.data import (
    RawTable,
    load_csv,
    load_idx,
    load_secom,
    load_wbcd,
    mnist_binarize,
    secom_prepare,
    split_standardize,
    synth_two_gaussians,
)
from airelm.elm import classify, fit, predict
from airelm.errors import DataError
from airelm.rng import RngStream, SUB_CHANNEL, SUB_SYNTH


# -------------------------------------------------------------- csv

def test_load_csv_basic(tiny_csv):
    table = load_csv(tiny_csv, label_column=2)
    assert table.features.shape == (4, 2)
    assert np.array_equal(table.labels, [1, -1, 1, -1])
    assert table.present.all()
    assert table.feature_names == ("a", "b")


def test_load_csv_no_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2,1\n3,4,-1\n")
    table = load_csv(str(p), label_column=2, has_header=False)
    assert table.features.shape == (2, 2)
    assert np.array_equal(table.features[0], [1.0, 2.0])


def test_load_csv_missing_token(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y,l\n1,NA,1\n2,3,-1\n")
    table = load_csv(str(p), label_column=2, missing_token="NA")
    assert np.isnan(table.features[0, 1])
    assert not table.present[0, 1]
    assert table.present[1].all()


def test_load_csv_ragged_row_reports_position(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y,l\n1,2,1\n3,4\n")
    with pytest.raises(DataError, match=r":3: ragged row"):
        load_csv(str(p), label_column=2)


def test_load_csv_bad_cell(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y,l\n1,frog,1\n")
    with pytest.raises(DataError):
        load_csv(str(p), label_column=2)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_load_csv_non_finite_cell(tmp_path, cell):
    # a NaN or inf cell used to pass as a present value and end the run in
    # a solver traceback after compute had started
    p = tmp_path / "t.csv"
    p.write_text(f"x,y,l\n1,2,1\n3,{cell},-1\n")
    with pytest.raises(DataError,
                       match=rf"t\.csv:3: non-finite cell '{cell}' in column 1"):
        load_csv(str(p), label_column=2)


def test_load_csv_missing_token_may_be_nan(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y,l\n1,nan,1\n3,4,-1\n")
    table = load_csv(str(p), label_column=2, missing_token="nan")
    assert not table.present[0, 1]


def test_load_csv_infinite_label(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,l\n1,1\n2,inf\n")
    with pytest.raises(DataError, match=r"t\.csv:3: unparseable label 'inf'"):
        load_csv(str(p), label_column=1)


def test_unusable_labels_caught_at_split_time(tmp_path):
    # raw tables may hold any numeric labels (MNIST digits etc.);
    # the +-1 requirement bites when building a classification split
    p = tmp_path / "t.csv"
    p.write_text("x,y,l\n1,2,7\n3,4,1\n5,6,-1\n")
    table = load_csv(str(p), label_column=2)
    assert np.array_equal(table.labels, [7, 1, -1])
    with pytest.raises(DataError):
        split_standardize(table, 0.5, RngStream(0).split(0))


def test_load_csv_label_map(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("l,x\npos,1\nneg,2\n")
    table = load_csv(str(p), label_column=0, label_map={"pos": 1, "neg": -1})
    assert np.array_equal(table.labels, [1, -1])
    assert table.features.shape == (2, 1)


@pytest.mark.parametrize("column", [9, 3, -1])
def test_load_csv_label_column_out_of_range(tmp_path, column):
    # -1 used to read the last column as the label and keep it as a feature
    p = tmp_path / "t.csv"
    p.write_text("a,b,label\n1,2,1\n3,4,-1\n")
    with pytest.raises(DataError, match=f"label_column {column} is outside"):
        load_csv(str(p), label_column=column)
    with pytest.raises(DataError, match=f"label_column {column} is outside"):
        load_csv(str(p), label_column=column, has_header=False)


def test_load_csv_label_name_needs_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2,1\n3,4,-1\n")
    with pytest.raises(DataError, match="neither a header name nor an index"):
        load_csv(str(p), label_column="label", has_header=False)


def test_load_wbcd_shape_and_classes(wbcd_csv):
    table = load_wbcd(wbcd_csv)
    assert table.features.shape == (569, 30)
    assert table.present.all()
    # benign maps to +1 (357 cases), malignant to -1 (212)
    assert int((table.labels == 1).sum()) == 357
    assert int((table.labels == -1).sum()) == 212


def test_load_wbcd_rejects_wrong_width(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,M,0.5,0.5\n")
    with pytest.raises(DataError):
        load_wbcd(str(p))


# -------------------------------------------------------------- idx

def _write_idx_pair(tmp_path, pixels=(0, 128, 255, 64, 1, 2, 3, 4), labels=(3, 8),
                    img_magic=0x00000803, lbl_magic=0x00000801, n_img=None, n_lbl=None):
    n = len(labels)
    imgs = tmp_path / "imgs.idx"
    lbls = tmp_path / "lbls.idx"
    imgs.write_bytes(struct.pack(">IIII", img_magic, n_img if n_img is not None else n, 2, 2)
                     + bytes(pixels))
    lbls.write_bytes(struct.pack(">II", lbl_magic, n_lbl if n_lbl is not None else n)
                     + bytes(labels))
    return str(imgs), str(lbls)


def test_load_idx_byte_oracle(tmp_path):
    imgs, lbls = _write_idx_pair(tmp_path)
    table = load_idx(imgs, lbls)
    assert table.features.shape == (2, 4)
    assert np.allclose(table.features[0], [0.0, 128 / 255, 1.0, 64 / 255])
    assert np.allclose(table.features[1], np.array([1, 2, 3, 4]) / 255)
    assert np.array_equal(table.labels, [3, 8])
    assert table.present.all()


def test_load_idx_bad_magic(tmp_path):
    imgs, lbls = _write_idx_pair(tmp_path, img_magic=0x00000802)
    with pytest.raises(DataError):
        load_idx(imgs, lbls)
    imgs, lbls = _write_idx_pair(tmp_path, lbl_magic=0x00000803)
    with pytest.raises(DataError):
        load_idx(imgs, lbls)


def test_load_idx_count_mismatch(tmp_path):
    imgs, lbls = _write_idx_pair(tmp_path, n_lbl=3)
    with pytest.raises(DataError):
        load_idx(imgs, lbls)


def test_load_idx_truncated_payload(tmp_path):
    imgs, lbls = _write_idx_pair(tmp_path, pixels=(0, 1, 2))
    with pytest.raises(DataError):
        load_idx(imgs, lbls)


def test_load_idx_header_fuzz(tmp_path):
    """Randomly corrupted image magics must all be rejected cleanly."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        bad = int(rng.integers(0, 2 ** 32))
        if bad == 0x00000803:
            continue
        imgs, lbls = _write_idx_pair(tmp_path, img_magic=bad)
        with pytest.raises(DataError):
            load_idx(imgs, lbls)


# ------------------------------------------------------------ mnist

def _digit_table():
    feats = np.arange(16, dtype=float).reshape(4, 4) / 16.0
    labels = np.array([0, 1, 2, 7])
    return RawTable(feats, labels)


def test_mnist_binarize_parity_labels():
    out = mnist_binarize(_digit_table(), n_pixels=4)
    assert np.array_equal(out.labels, [1, -1, 1, -1])  # even/odd


def test_mnist_binarize_full_selection_is_identity():
    table = _digit_table()
    out = mnist_binarize(table, n_pixels=4)
    assert np.array_equal(out.features, table.features)


def test_mnist_binarize_subset_deterministic():
    table = _digit_table()
    a = mnist_binarize(table, n_pixels=2, rng=RngStream(0).split(8))
    b = mnist_binarize(table, n_pixels=2, rng=RngStream(0).split(8))
    assert np.array_equal(a.features, b.features)
    assert a.features.shape == (4, 2)
    # selected columns are real columns of the source
    src_cols = {tuple(table.features[:, j]) for j in range(4)}
    for j in range(2):
        assert tuple(a.features[:, j]) in src_cols


# ------------------------------------------------------------ secom

def _secom_table():
    feats = np.array([
        [1.0, 5.0, np.nan],
        [np.nan, 6.0, np.nan],
        [3.0, 7.0, np.nan],
        [1.0, 8.0, np.nan],
    ])
    labels = np.array([-1, -1, 1, -1])
    return RawTable(feats, labels)


def _secom_files(tmp_path, features, labels="-1 a\n1 b\n"):
    f, lab = tmp_path / "secom.data", tmp_path / "secom_labels.data"
    f.write_text(features)
    lab.write_text(labels)
    return str(f), str(lab)


def test_load_secom_values_and_missing(tmp_path):
    table = load_secom(*_secom_files(tmp_path, "1.5 NaN 3\n\n4 5 -6e1\n"))
    assert np.array_equal(table.features, [[1.5, np.nan, 3.0], [4.0, 5.0, -60.0]],
                          equal_nan=True)
    assert np.array_equal(table.present, [[True, False, True], [True] * 3])
    assert np.array_equal(table.labels, [-1, 1])


@pytest.mark.parametrize("features, labels, message", [
    ("1 2\n\n3 abc\n", "-1\n1\n", r"secom\.data:3: non-numeric cell 'abc'"),
    ("1 2\n3\n", "-1\n1\n", r"secom\.data:2: ragged row"),
    ("1 2\n3 inf\n", "-1\n1\n", r"secom\.data:2: non-finite cell 'inf'"),
    ("1 nan\n3 4\n", "-1\n1\n", r"secom\.data:1: non-finite cell 'nan'"),
    ("\n", "-1\n", r"secom\.data: empty file"),
    ("1 2\n3 4\n", "-1\nx\n", r"secom_labels\.data:2: unparseable label 'x'"),
    ("1 2\n3 4\n", "-1\n", "2 feature rows vs 1 labels"),
], ids=["non_numeric", "ragged", "inf", "lowercase_nan", "empty", "bad_label",
        "count_mismatch"])
def test_load_secom_errors(tmp_path, features, labels, message):
    with pytest.raises(DataError, match=message):
        load_secom(*_secom_files(tmp_path, features, labels))


def test_secom_mean_impute():
    out = secom_prepare(_secom_table(), n_features=2, rng=RngStream(0).split(8))
    # column 0 has values (1, ., 3, 1): the gap fills with their mean 5/3
    assert out.features.shape == (4, 2)
    assert out.present.all()
    col0 = out.features[:, 0]
    assert col0[1] == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert np.allclose(np.delete(col0, 1), [1.0, 3.0, 1.0])


def test_secom_never_selects_all_missing_column():
    for seed in range(20):
        out = secom_prepare(_secom_table(), n_features=2, rng=RngStream(seed).split(8))
        assert np.isfinite(out.features).all()


def test_secom_rejects_too_many_features():
    with pytest.raises(DataError):
        secom_prepare(_secom_table(), n_features=3, rng=RngStream(0).split(8))


def test_secom_deterministic():
    a = secom_prepare(_secom_table(), n_features=2, rng=RngStream(3).split(8))
    b = secom_prepare(_secom_table(), n_features=2, rng=RngStream(3).split(8))
    assert np.array_equal(a.features, b.features)


# ------------------------------------------------- split/standardize

def _clean_table(rows=10, cols=3, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(loc=5.0, scale=3.0, size=(rows, cols))
    labels = np.resize([1, -1], rows)
    return RawTable(feats, labels)


def test_split_sizes():
    data = split_standardize(_clean_table(10), 0.8, RngStream(0).split(0))
    assert data.x_train.shape == (8, 3)
    assert data.x_test.shape == (2, 3)
    assert data.d == 3


def test_split_train_block_standardized():
    data = split_standardize(_clean_table(200), 0.8, RngStream(1).split(0))
    assert np.all(np.abs(data.x_train.mean(axis=0)) < 1e-8)
    assert np.allclose(data.x_train.std(axis=0), 1.0, atol=1e-6)


def test_split_test_uses_train_stats():
    # test block is standardized with the train block's numbers, so its
    # own mean need not vanish
    data = split_standardize(_clean_table(50, seed=3), 0.8, RngStream(2).split(0))
    orig = split_standardize(_clean_table(50, seed=3), 0.8, RngStream(2).split(0))
    assert np.array_equal(data.x_test, orig.x_test)
    back = data.stats.invert(data.x_test)
    assert np.isfinite(back).all()


def test_split_constant_column_flagged():
    table = _clean_table(12)
    feats = table.features.copy()
    feats[:, 1] = 4.2
    table = RawTable(feats, table.labels)
    data = split_standardize(table, 0.8, RngStream(3).split(0))
    assert data.stats.constant[1]
    assert not data.stats.constant[0]
    assert np.allclose(data.x_train[:, 1], 0.0)
    assert data.stats.std[1] == 1.0


def test_split_roundtrip():
    data = split_standardize(_clean_table(40), 0.8, RngStream(4).split(0))
    table = _clean_table(40)
    z = data.stats.apply(table.features)
    assert np.allclose(data.stats.invert(z), table.features, atol=1e-10)


def test_split_partition_is_disjoint_and_complete():
    table = _clean_table(25, seed=9)
    data = split_standardize(table, 0.8, RngStream(5).split(0))
    rebuilt = np.vstack([data.stats.invert(data.x_train),
                         data.stats.invert(data.x_test)])
    assert rebuilt.shape == table.features.shape
    a = np.sort(rebuilt.round(9).view(float).reshape(25, -1), axis=0)
    b = np.sort(table.features.round(9).view(float).reshape(25, -1), axis=0)
    assert np.allclose(np.sort(rebuilt.sum(axis=1)), np.sort(table.features.sum(axis=1)), atol=1e-8)
    assert a.shape == b.shape


def test_split_validation():
    with pytest.raises(DataError):
        split_standardize(_clean_table(10), 0.0, RngStream(0).split(0))
    with pytest.raises(DataError):
        split_standardize(_clean_table(10), 1.0, RngStream(0).split(0))
    with pytest.raises(DataError):
        split_standardize(_clean_table(1), 0.8, RngStream(0).split(0))


def test_split_rejects_missing_cells():
    table = _secom_table()
    with pytest.raises(DataError):
        split_standardize(table, 0.5, RngStream(0).split(0))


def test_split_single_class_guard():
    table = _clean_table(10)
    ones = RawTable(table.features, np.ones(10))
    with pytest.raises(DataError):
        split_standardize(ones, 0.8, RngStream(0).split(0))
    split_standardize(ones, 0.8, RngStream(0).split(0), allow_single_class=True)


def test_split_deterministic():
    a = split_standardize(_clean_table(30), 0.8, RngStream(6).split(0))
    b = split_standardize(_clean_table(30), 0.8, RngStream(6).split(0))
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.t_test, b.t_test)


# -------------------------------------------------------- synthetic

def test_synth_shapes_and_label_balance():
    table = synth_two_gaussians(RngStream(0).split(SUB_SYNTH), 401, 8, 4.0)
    assert table.features.shape == (401, 8)
    n_pos = int((table.labels == 1).sum())
    n_neg = int((table.labels == -1).sum())
    assert abs(n_pos - n_neg) <= 1
    assert n_pos + n_neg == 401


def test_synth_class_mean_separation():
    table = synth_two_gaussians(RngStream(1).split(SUB_SYNTH), 20000, 4, 6.0)
    mu_pos = table.features[table.labels == 1].mean(axis=0)
    mu_neg = table.features[table.labels == -1].mean(axis=0)
    # per-dimension gap is separation / sqrt(d)
    assert np.allclose(mu_pos - mu_neg, 6.0 / 2.0, atol=0.05)
    assert np.linalg.norm(mu_pos - mu_neg) == pytest.approx(6.0, abs=0.05)


def test_synth_zero_separation_is_chance_level():
    table = synth_two_gaussians(RngStream(2).split(SUB_SYNTH), 2000, 6, 0.0)
    x = np.hstack([table.features, np.ones((2000, 1))])
    t = table.labels.astype(float)
    # interleave so both halves carry both classes
    w = np.linalg.lstsq(x[::2], t[::2], rcond=None)[0]
    acc = float((classify(x[1::2] @ w) == t[1::2]).mean())
    assert abs(acc - 0.5) < 0.05


def test_synth_wide_separation_is_easy():
    accs = []
    for seed in range(50):
        table = synth_two_gaussians(RngStream(seed).split(SUB_SYNTH), 400, 2, 8.0)
        data = split_standardize(table, 0.8, RngStream(seed).split(0))
        h = RngStream(seed).split(SUB_CHANNEL).normal(size=(64, 3))
        from airelm.elm import HiddenLayer
        model = fit(HiddenLayer(h_real=h), data.x_train, data.t_train)
        pred = classify(predict(model, data.x_test))
        accs.append(float((pred == data.t_test).mean()))
    assert np.mean(accs) > 0.97


def test_synth_deterministic():
    a = synth_two_gaussians(RngStream(3).split(SUB_SYNTH), 100, 3, 2.0)
    b = synth_two_gaussians(RngStream(3).split(SUB_SYNTH), 100, 3, 2.0)
    assert np.array_equal(a.features, b.features)
