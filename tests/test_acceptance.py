"""Acceptance gate: nine end-to-end checks, one pass/fail line each.

Every check runs the real pipeline at its shipping defaults (master seed 0)
and asserts the stated tolerance.  Nothing here is tuned per seed: if a
check fails at the defaults, it fails loudly.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from airelm.activation import DEFAULT_RAPP, rapp, rapp_deriv, rapp_peak, rapp_vec
from airelm.config import DatasetConfig, ExperimentConfig
from airelm.data import split_standardize, synth_two_gaussians
from airelm.elm import HiddenLayer, hidden_matrix, train
from airelm.experiments import run_online, run_sweep_kappa, run_sweep_nr, run_sweep_snr
from airelm.numkernel import min_norm_lstsq, svd
from airelm.rng import RngStream, SUB_CHANNEL, SUB_SYNTH


def _report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] {num}) {text}")
    return ok


def _wbcd_cfg(kind, wbcd_csv, **kw):
    base = dict(kind=kind, seeds=50, master_seed=0,
                dataset=DatasetConfig(name="wbcd", path=wbcd_csv))
    base.update(kw)
    return ExperimentConfig(**base).resolved()


def _mean_by(rows, key):
    groups = {}
    for r in rows:
        groups.setdefault(key(r), []).append(r.accuracy)
    return {k: float(np.mean(v)) for k, v in groups.items()}


def _nondecreasing(values, slack=0.01):
    return all(b >= a - slack for a, b in zip(values, values[1:]))


# 1 ------------------------------------------------------------------

def test_1_square_design_interpolates():
    hits = 0
    for seed in range(100):
        table = synth_two_gaussians(RngStream(seed).split(SUB_SYNTH), 80, 8, 4.0)
        data = split_standardize(table, 0.8, rng=RngStream(seed).split(0))
        h = RngStream(seed).split(SUB_CHANNEL).normal(size=(64, 9))
        g = hidden_matrix(HiddenLayer(h_real=h), data.x_train)
        model = train(g, data.t_train)
        rmse = float(np.sqrt(np.mean((g @ model.w - data.t_train) ** 2)))
        hits += rmse < 1e-6
    ok = _report(1, hits >= 95,
                 f"noiseless square design interpolates: {hits}/100 seeds "
                 "with train RMSE < 1e-6 (need >= 95)")
    assert ok


# 2 ------------------------------------------------------------------

def test_2_breast_cancer_parity_with_digital(wbcd_csv):
    t0 = time.perf_counter()
    rows = run_sweep_nr(_wbcd_cfg("sweep_nr", wbcd_csv,
                                  grid=(128, 512, 1024), baseline=True))
    elapsed = time.perf_counter() - t0
    mimo = _mean_by([r for r in rows if r.model == "mimo"], lambda r: r.n_r)
    dig = _mean_by([r for r in rows if r.model == "digital"], lambda r: r.n_r)
    sizes = [128, 512, 1024]
    gaps = [abs(mimo[n] - dig[n]) for n in sizes]
    parity = all(gap <= 0.03 for gap in gaps)
    mono_m = _nondecreasing([mimo[n] for n in sizes])
    mono_d = _nondecreasing([dig[n] for n in sizes])
    fast = elapsed < 300.0
    ok = _report(
        2, parity and mono_m and mono_d and fast,
        "breast-cancer parity: gaps "
        + "/".join(f"{g * 100:.2f}pt" for g in gaps)
        + f" (<=3pt: {parity}); non-decreasing over width "
        + f"analog={mono_m} digital={mono_d} (1pt slack); {elapsed:.0f}s (<300s)")
    assert ok, {
        "mimo": mimo, "digital": dig, "parity": parity,
        "monotone_analog": mono_m, "monotone_digital": mono_d,
    }


# 3 ------------------------------------------------------------------

def test_3_accuracy_improves_with_snr(wbcd_csv):
    rows = run_sweep_snr(_wbcd_cfg("sweep_snr", wbcd_csv,
                                   grid=(0.0, 10.0, 20.0, 30.0), n_r=512))
    means = _mean_by(rows, lambda r: r.snr_db)
    curve = [means[s] for s in (0.0, 10.0, 20.0, 30.0)]
    noise_free = means[float("inf")]
    mono = _nondecreasing(curve)
    close = abs(curve[-1] - noise_free) <= 0.01
    ok = _report(
        3, mono and close,
        "snr sweep at width 512: curve "
        + "/".join(f"{a:.4f}" for a in curve)
        + f" non-decreasing={mono} (1pt slack); 30dB vs noise-free "
        + f"{abs(curve[-1] - noise_free) * 100:.2f}pt (<=1pt: {close})")
    assert ok, {"curve": curve, "noise_free": noise_free}


# 4 ------------------------------------------------------------------

def test_4_strong_los_hurts_accuracy(wbcd_csv):
    rows = run_sweep_kappa(_wbcd_cfg("sweep_kappa", wbcd_csv,
                                     grid=(0.0, 100.0), n_r=256))
    means = _mean_by(rows, lambda r: r.kappa)
    drop = means[0.0] - means[100.0]
    ok = _report(
        4, drop >= 0.02,
        f"rank collapse under strong LoS: kappa=0 {means[0.0]:.4f} vs "
        f"kappa=100 {means[100.0]:.4f}, drop {drop * 100:.2f}pt (need >= 2pt)")
    assert ok


# 5 ------------------------------------------------------------------

def _online_stats(eta, seeds=20):
    cfg = ExperimentConfig(
        kind="online", seeds=seeds, master_seed=0, eta=eta,
        dataset=DatasetConfig(name="synthetic")).resolved()
    rows = run_online(cfg)
    best, first_hit = {}, {}
    for r in rows:
        k = (r.seed, r.step)
        if r.normalized_accuracy is None:
            continue
        best[k] = max(best.get(k, -np.inf), r.normalized_accuracy)
        if r.normalized_accuracy >= 0.95 and k not in first_hit:
            first_hit[k] = r.iteration
    for k in best:
        first_hit.setdefault(k, 21)  # never recovered inside the window
    return best, first_hit


def test_5_online_rule_tracks_channel_aging():
    best, hits_09 = _online_stats(0.9)
    steps = sorted({s for _, s in best})
    per_step = [float(np.median([best[k] for k in best if k[1] == s]))
                for s in steps]
    recovered = all(m >= 0.95 for m in per_step)
    _, hits_99 = _online_stats(0.99)
    _, hits_50 = _online_stats(0.5)
    med99 = float(np.median(list(hits_99.values())))
    med50 = float(np.median(list(hits_50.values())))
    ordered = med99 <= med50
    ok = _report(
        5, recovered and ordered,
        "online re-training: median best normalized accuracy per step "
        + "/".join(f"{m:.3f}" for m in per_step)
        + f" (>=0.95 within 20 updates: {recovered}); median updates to 0.95 "
        + f"eta=0.99 {med99:.0f} <= eta=0.5 {med50:.0f}: {ordered}")
    assert ok


# 6 ------------------------------------------------------------------

def test_6_trained_combiner_has_minimum_receive_power():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        g = rng.normal(size=(8, 24))
        t = rng.normal(size=8)
        w = min_norm_lstsq(g, t)
        _, _, vt = np.linalg.svd(g)
        null = vt[8:]
        for _ in range(10):
            v = null.T @ rng.normal(size=null.shape[0])
            excess = float(w @ w - (w + v) @ (w + v))
            worst = max(worst, excess)
    ok = _report(
        6, worst <= 1e-10,
        f"minimum-norm training: 100 fits x 10 null directions, max power "
        f"excess {worst:.2e} (<= 1e-10)")
    assert ok


# 7 ------------------------------------------------------------------

def test_7_pseudoinverse_penrose_conditions(monkeypatch):
    """The P that `min_norm_lstsq` gives column by column, P e_j =
    min_norm_lstsq(A, e_j), meets the four Penrose conditions, so every
    min-norm fit returns A^+ t; the solves take both its Gram path and its
    `np.linalg.lstsq` fallback."""
    rng = np.random.default_rng(1)
    worst_p, worst_r = 0.0, 0.0
    mats = []
    for _ in range(50):
        mats.append(rng.normal(size=(8, 3)))
        mats.append(rng.normal(size=(3, 8)))
        mats.append(rng.normal(size=(8, 8)))
        mats.append(rng.normal(size=(8, 3)) @ rng.normal(size=(3, 8)))
    assert len(mats) == 200
    lstsq, fallbacks = np.linalg.lstsq, []

    def counted(*args, **kwargs):
        fallbacks.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    for a in mats:
        p = np.column_stack([min_norm_lstsq(a, e) for e in np.eye(len(a))])
        worst_p = max(
            worst_p,
            float(np.max(np.abs(a @ p @ a - a))),
            float(np.max(np.abs(p @ a @ p - p))),
            float(np.max(np.abs((a @ p).T - a @ p))),
            float(np.max(np.abs((p @ a).T - p @ a))))
        u, s, v = svd(a)
        worst_r = max(worst_r,
                      float(np.max(np.abs(u @ np.diag(s) @ v.T - a))))
    fallback = len(fallbacks)
    gram = sum(map(len, mats)) - fallback
    ok = _report(
        7, worst_p <= 1e-8 and worst_r <= 1e-10 and gram > 0 and fallback > 0,
        f"min_norm_lstsq on 200 matrices ({gram} Gram solves, {fallback} "
        f"lstsq fallbacks, both > 0): worst Penrose deviation "
        f"{worst_p:.2e} (<=1e-8), worst SVD reconstruction {worst_r:.2e} "
        f"(<=1e-10)")
    assert ok


# 8 ------------------------------------------------------------------

def test_8_activation_contract():
    rng = np.random.default_rng(2)
    ys = rng.uniform(-1e6, 1e6, size=100_000)
    y_star, g_star = rapp_peak(DEFAULT_RAPP)
    bounded = bool(np.all(np.abs(rapp_vec(ys)) <= g_star + 1e-12))
    odd = bool(np.array_equal(rapp_vec(-ys), -rapp_vec(ys)))
    fd_ok = True
    h = 1e-6
    for y in rng.uniform(-10, 10, size=1000):
        fd = (rapp(y + h) - rapp(y - h)) / (2 * h)
        if abs(rapp_deriv(y) - fd) > 1e-5 * max(1.0, abs(fd)):
            fd_ok = False
            break
    grid = np.linspace(0, 15, 1_500_001)
    gv = rapp_vec(grid)
    k = int(np.argmax(gv))
    peak_ok = abs(grid[k] - y_star) < 1e-3 and abs(gv[k] - g_star) < 1e-3
    ok = _report(
        8, bounded and odd and fd_ok and peak_ok,
        f"soft limiter: bounded={bounded}, odd={odd}, "
        f"analytic-vs-numeric derivative at 1e-5: {fd_ok}, "
        f"closed-form peak vs grid search at 1e-3: {peak_ok}")
    assert ok


# 9 ------------------------------------------------------------------

def test_9_cli_reruns_are_byte_identical(tmp_path):
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(
        "[experiment]\nkind = sweep_nr\nseeds = 2\n"
        "[dataset]\nname = synthetic\nsynth_size = 120\n"
        "[sweep]\ngrid = 32, 64\n")
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "airelm.cli", "sweep-nr",
             "--config", str(cfgp), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    ok = _report(9, outs[0] == outs[1],
                 "cli determinism: identical invocation twice produced "
                 f"byte-identical results ({len(outs[0])} bytes)")
    assert ok
