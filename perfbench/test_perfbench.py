"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys
import threading

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

from airelm.cli import main as airelm_main  # noqa: E402
from airelm.data import load_wbcd  # noqa: E402


def test_generated_wdbc_loads_through_load_wbcd(tmp_path):
    path = tmp_path / "wdbc.data"
    workloads.write_wdbc(path, seed=3)
    table = load_wbcd(str(path))
    assert table.features.shape == (569, 30)
    assert table.present.all()
    assert (table.labels == -1).sum() == 212
    assert (table.labels == 1).sum() == 357
    again = tmp_path / "again.data"
    workloads.write_wdbc(again, seed=3)
    assert again.read_bytes() == path.read_bytes()
    workloads.write_wdbc(again, seed=4)
    assert again.read_bytes() != path.read_bytes()


TINY = workloads.Workload(
    name="tiny", subcommand="sweep-snr",
    ini=("[experiment]\nseeds = 2\nmaster_seed = {seed}\n"
         "[dataset]\nname = synthetic\nsynth_size = 60\nsynth_d = 3\n"
         "[model]\nn_r = 16\n[sweep]\ngrid = 0, 20\n"),
    expected_rows=6, group_column="snr_db",
    floors={"0.0": 0.6, "20.0": 0.6, "inf": 0.6})


def _tiny_run(tmp_path):
    ini = workloads.write_inputs(TINY, 5, tmp_path)
    out = tmp_path / "r.csv"
    return [TINY.subcommand, "--config", ini, "--out", str(out)], out


def test_check_rejects_any_single_corrupted_byte(tmp_path):
    argv, out = _tiny_run(tmp_path)
    assert airelm_main(argv) == 0
    good = out.read_bytes()
    assert workloads.check_csv(TINY, good, good) == []
    for i in range(len(good)):
        bad = bytearray(good)
        bad[i] ^= 0x01
        assert workloads.check_csv(TINY, bytes(bad), good), f"byte {i}"


def test_check_without_reference_catches_rows_nan_and_floors(tmp_path):
    argv, out = _tiny_run(tmp_path)
    assert airelm_main(argv) == 0
    lines = out.read_text().splitlines(keepends=True)
    good = "".join(lines).encode()
    assert workloads.check_csv(TINY, good) == []
    short = "".join(lines[:-1]).encode()
    assert any("rows" in p for p in workloads.check_csv(TINY, short))
    cells = lines[1].split(",")
    cells[10] = "nan"                      # the accuracy column
    nan_row = "".join([lines[0], ",".join(cells)] + lines[2:]).encode()
    assert any("non-finite" in p for p in workloads.check_csv(TINY, nan_row))
    strict = workloads.Workload(**{**vars(TINY), "floors": {"inf": 1.01}})
    assert any("floor" in p for p in workloads.check_csv(strict, good))


def test_self_times_add_up_to_traced_wall_time(tmp_path):
    argv, out = _tiny_run(tmp_path)
    assert airelm_main(argv) == 0
    untraced = out.read_bytes()

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.call(spans.ROOT, airelm_main, (argv,), {}) == 0
    finally:
        tracer.uninstall()
    recorded = tracer.spans()
    totals = spans.layer_totals(recorded, threading.get_ident())

    (root,) = [s for s in recorded if s[1] == spans.ROOT]
    wall = root[3] - root[2]
    assert sum(t["self_ns"] for t in totals.values()) == wall
    assert all(t["self_ns"] >= 0 for t in totals.values())
    assert totals["data.prep"]["calls"] == 3 * 2          # points x seeds
    assert totals["rng.split"]["calls"] == 3 * 2 * 6
    assert totals["numkernel.svd"]["mnk"] == 3 * 2 * 48 * 16 * 16
    assert out.read_bytes() == untraced


def test_every_span_layer_is_reported_in_exactly_one_group():
    grouped = [layer for group in run.LAYER_TIMES.values() for layer in group]
    traced = {layer for _, _, layer, _ in spans.TRACE_POINTS} | {spans.ROOT}
    assert sorted(grouped) == sorted(traced)


def test_worker_spans_count_against_the_root_by_union():
    main, a, b = 1, 2, 3
    recorded = [
        (main, spans.ROOT, 0, 100, None, None),
        (a, "elm.fit", 10, 60, None, None),
        (a, "numkernel.svd", 20, 30, 1, {"mnk": 8}),
        (b, "elm.fit", 40, 90, None, None),
    ]
    totals = spans.layer_totals(recorded, main)
    assert totals[spans.ROOT]["self_ns"] == 100 - 80
    assert totals["elm.fit"] == {"self_ns": 40 + 50, "calls": 2}
    assert totals["numkernel.svd"] == {"self_ns": 10, "calls": 1, "mnk": 8}


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snr_sweep_narrow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    a = workloads.write_inputs(wl, 11, tmp_path / "a")
    b = workloads.write_inputs(wl, 11, tmp_path / "b")
    text_a = open(a).read().replace(str(tmp_path / "a"), "")
    assert text_a == open(b).read().replace(str(tmp_path / "b"), "")
    assert "master_seed = 11" in text_a
