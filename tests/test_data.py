import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airelm.data import (
    RawTable,
    load_csv,
    load_wbcd,
    split_standardize,
    synth_two_gaussians,
    train_count,
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
    """A missing-value token such as NA is a non-numeric cell: load_csv
    never fills a cell in, and names the file, line and column."""
    p = tmp_path / "t.csv"
    p.write_text("x,y,l\n1,2,1\n3,NA,-1\n")
    with pytest.raises(DataError,
                       match=r"t\.csv:3: non-numeric cell 'NA' in column 1"):
        load_csv(str(p), label_column=2)


def test_load_csv_ragged_row_reports_position(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y,l\n1,2,1\n3,4\n")
    with pytest.raises(DataError, match=r":3: ragged row"):
        load_csv(str(p), label_column=2)


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank_lines"])
def test_load_csv_empty_file(tmp_path, text):
    p = tmp_path / "t.csv"
    p.write_text(text)
    with pytest.raises(DataError, match=r"t\.csv: empty file"):
        load_csv(str(p), label_column=0)


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


def test_load_csv_one_shot_conversion_parses_as_the_cell_loop(
        tmp_path, monkeypatch):
    """A table of finite cells converts in one call, without the per-cell
    check, to the bits float(cell) gives: whitespace-padded, exponent,
    signed, digit-grouped and non-ASCII-digit cells included."""
    from airelm import data
    cells = [" 1.5", "2.5e-3 ", "\t-4E+2", "+.5", "1_000", "6.02214076e23",
             "-0.0", " 7 ", "1e-320", "\uff11\uff12"]
    rows = [cells[i:] + cells[:i] for i in range(len(cells))]
    p = tmp_path / "t.csv"
    p.write_text(",".join(f"c{j}" for j in range(len(cells))) + ",l\n"
                 + "".join(",".join(row) + f",{(-1) ** i}\n"
                           for i, row in enumerate(rows)), encoding="utf-8")
    checked = []
    monkeypatch.setattr(data, "_check_cell",
                        lambda cell, *args: checked.append(cell))

    table = load_csv(str(p), label_column="l")
    assert checked == []
    expected = np.array([[float(c.strip()) for c in row] for row in rows])
    assert np.array_equal(table.features.view(np.int64),
                          expected.view(np.int64))
    assert np.array_equal(table.labels, [(-1) ** i for i in range(len(rows))])


def test_load_csv_reports_the_first_bad_cell_in_file_order(tmp_path):
    """The first bad cell or label in file order is the one reported: a bad
    cell before a bad label on a later line, and a bad label before a bad
    cell on a later line."""
    p = tmp_path / "t.csv"
    p.write_text("x,y,l\n1,2,1\n3,frog,1\n5,6,maybe\n")
    with pytest.raises(DataError,
                       match=r"t\.csv:3: non-numeric cell 'frog' in column 1"):
        load_csv(str(p), label_column=2)
    p.write_text("x,y,l\n1,2,maybe\n3,inf,1\n")
    with pytest.raises(DataError, match=r"t\.csv:2: unparseable label"):
        load_csv(str(p), label_column=2)


def test_load_csv_infinite_label(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,l\n1,1\n2,inf\n")
    with pytest.raises(DataError, match=r"t\.csv:3: unparseable label 'inf'"):
        load_csv(str(p), label_column=1)


def test_unusable_labels_caught_at_split_time(tmp_path):
    # raw tables may hold any numeric labels (digit classes etc.);
    # the +-1 requirement bites when building a classification split
    p = tmp_path / "t.csv"
    p.write_text("x,y,l\n1,2,7\n3,4,1\n5,6,-1\n")
    table = load_csv(str(p), label_column=2)
    assert np.array_equal(table.labels, [7, 1, -1])
    with pytest.raises(DataError):
        split_standardize(table, 0.5, rng=RngStream(0).split(0))


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


# ------------------------------------------------- split/standardize

def _clean_table(rows=10, cols=3, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(loc=5.0, scale=3.0, size=(rows, cols))
    labels = np.resize([1, -1], rows)
    return RawTable(feats, labels)


def _train_stats(table, rng, train_ratio=0.8):
    """The split's row permutation and its training rows' mean and std, from
    the permutation `split_standardize` draws first from rng."""
    perm = rng.permutation(table.n_rows)
    x_train = table.features[perm[:train_count(table.n_rows, train_ratio)]]
    return perm, x_train.mean(axis=0), x_train.std(axis=0)


def test_split_sizes():
    data = split_standardize(_clean_table(10), 0.8, rng=RngStream(0).split(0))
    assert data.x_train.shape == (8, 3)
    assert data.x_test.shape == (2, 3)
    assert data.d == 3


def test_split_train_block_standardized():
    data = split_standardize(_clean_table(200), 0.8, rng=RngStream(1).split(0))
    assert np.all(np.abs(data.x_train.mean(axis=0)) < 1e-8)
    assert np.allclose(data.x_train.std(axis=0), 1.0, atol=1e-6)


def test_split_test_uses_train_stats():
    # test block is standardized with the train block's numbers, so its
    # own mean need not vanish
    table = _clean_table(50, seed=3)
    data = split_standardize(table, 0.8, rng=RngStream(2).split(0))
    perm, mean, std = _train_stats(table, RngStream(2).split(0))
    assert np.array_equal(data.x_test, (table.features[perm[40:]] - mean) / std)
    assert np.abs(data.x_test.mean(axis=0)).max() > 1e-8


def test_split_constant_column_flagged():
    table = _clean_table(12)
    feats = table.features.copy()
    feats[:, 1] = 4.2
    table = RawTable(feats, table.labels)
    data = split_standardize(table, 0.8, rng=RngStream(3).split(0))
    # std 1 after centering on the column's value: zeros in both blocks
    assert np.all(data.x_train[:, 1] == 0.0)
    assert np.all(data.x_test[:, 1] == 0.0)
    assert np.any(data.x_train[:, 0] != 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_split_overflowing_column_is_a_data_error_unless_constant():
    """A column whose training mean or std overflows float64 raises, named
    by its header; a constant column of the same huge value does not,
    since it standardizes to zeros without either statistic."""
    table = _clean_table(12)
    feats = table.features.copy()
    feats[:, 2] = 1.5e308
    data = split_standardize(RawTable(feats, table.labels), 0.8,
                             rng=RngStream(3).split(0))
    assert np.all(data.x_train[:, 2] == 0.0)
    assert np.all(data.x_test[:, 2] == 0.0)
    feats[::2, 2] = -1.5e308
    huge = RawTable(feats, table.labels, feature_names=("a", "b", "c"))
    with pytest.raises(DataError, match="feature 'c': its training mean or "
                                        "std overflows float64"):
        split_standardize(huge, 0.8, rng=RngStream(3).split(0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_split_test_cell_overflowing_when_standardized_is_a_data_error():
    """A huge cell that the split puts in the test block, far outside a
    column with finite training statistics, is a DataError naming the
    column instead of an infinite feature; a cell that stays finite once
    standardized passes."""
    feats = np.column_stack([np.arange(10) / 100.0, np.arange(10) % 3])
    labels = np.resize([1, -1], 10)
    test_row = RngStream(6).permutation(10)[-1]   # the split's last draw
    feats[test_row, 0] = 1e308
    table = RawTable(feats, labels, feature_names=("a", "b"))
    with pytest.raises(DataError, match="feature 'a': a test-block value "
                                        "overflows float64 when standardized"):
        split_standardize(table, 0.8, rng=RngStream(6))
    feats[test_row, 0] = 1e150
    data = split_standardize(RawTable(feats, labels), 0.8, rng=RngStream(6))
    assert np.isfinite(data.x_test).all() and data.x_test.max() > 1e151


def test_split_roundtrip():
    table = _clean_table(40)
    data = split_standardize(table, 0.8, rng=RngStream(4).split(0))
    perm, mean, std = _train_stats(table, RngStream(4).split(0))
    assert np.allclose(data.x_train * std + mean, table.features[perm[:32]],
                       atol=1e-10)
    assert np.allclose(data.x_test * std + mean, table.features[perm[32:]],
                       atol=1e-10)


def test_split_partition_is_disjoint_and_complete():
    table = _clean_table(25, seed=9)
    data = split_standardize(table, 0.8, rng=RngStream(5).split(0))
    _, mean, std = _train_stats(table, RngStream(5).split(0))
    rebuilt = np.vstack([data.x_train, data.x_test]) * std + mean
    assert rebuilt.shape == table.features.shape
    a = np.sort(rebuilt.round(9).view(float).reshape(25, -1), axis=0)
    b = np.sort(table.features.round(9).view(float).reshape(25, -1), axis=0)
    assert np.allclose(np.sort(rebuilt.sum(axis=1)), np.sort(table.features.sum(axis=1)), atol=1e-8)
    assert a.shape == b.shape


def test_split_validation():
    with pytest.raises(DataError):
        split_standardize(_clean_table(10), 0.0, rng=RngStream(0).split(0))
    with pytest.raises(DataError):
        split_standardize(_clean_table(10), 1.0, rng=RngStream(0).split(0))
    with pytest.raises(DataError):
        split_standardize(_clean_table(1), 0.8, rng=RngStream(0).split(0))


def test_split_needs_an_rng():
    """The split is drawn from rng, so there is no default to fall back on;
    train_ratio keeps its 0.8."""
    for args in ((), (0.8,)):
        with pytest.raises(TypeError, match="rng"):
            split_standardize(_clean_table(10), *args)
    a = split_standardize(_clean_table(10), rng=RngStream(0).split(0))
    b = split_standardize(_clean_table(10), 0.8, rng=RngStream(0).split(0))
    assert np.array_equal(a.x_train, b.x_train)


def test_split_rejects_missing_cells():
    table = RawTable(np.array([[1.0, np.nan], [2.0, 3.0], [4.0, 5.0]]),
                     np.array([1, -1, 1]))
    with pytest.raises(DataError):
        split_standardize(table, 0.5, rng=RngStream(0).split(0))


def test_split_single_class_guard():
    table = _clean_table(10)
    ones = RawTable(table.features, np.ones(10))
    with pytest.raises(DataError):
        split_standardize(ones, 0.8, rng=RngStream(0).split(0))


def test_split_deterministic():
    a = split_standardize(_clean_table(30), 0.8, rng=RngStream(6).split(0))
    b = split_standardize(_clean_table(30), 0.8, rng=RngStream(6).split(0))
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
        data = split_standardize(table, 0.8, rng=RngStream(seed).split(0))
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


# -------------------------------------------------------- any bytes

_TEXTISH = st.text(alphabet="0123456789.-+eE,; \t\n\r\"?naNifMBlbel",
                   max_size=200).map(str.encode)
_FILE_BYTES = st.binary(max_size=200) | _TEXTISH


@settings(max_examples=300)
@given(data=st.data())
def test_any_file_bytes_load_as_a_table_or_raise_data_error(
        tmp_path_factory, data):
    """Whatever bytes a data file holds, load_csv returns a RawTable or
    raises DataError, never another exception."""
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data.draw(_FILE_BYTES))
    try:
        table = load_csv(path, data.draw(st.sampled_from([0, 1, "l"])),
                         has_header=data.draw(st.booleans()))
    except DataError:
        return
    assert isinstance(table, RawTable) and table.features.ndim == 2
    assert np.isfinite(table.features).all()
