"""The grid kinds against a plain-numpy reference of the pipeline.

For every (point, seed) the reference draws its own H, noise and digital
weights from Generator(Philox(SeedSequence(master_seed, spawn_key=(seed,
sub)))), with the substream ids of the `airelm.rng` table, forms
G = rapp(H^r x~ + n), fits the ridge combiner by `np.linalg.solve` and
scores t_hat = G_test w.  Only the dataset (the synthetic table, its split
and its standardization) is the package's.  Accuracies must be equal;
train_residual and receive_power agree to 1e-12 relative.  The min-norm
combiner and `online` are not covered here.
"""

import math

import numpy as np
import pytest

from airelm.config import ExperimentConfig
from airelm.data import split_standardize, synth_two_gaussians
from airelm.experiments import run
from airelm.numkernel import RIDGE_C
from airelm.rng import RngStream

MASTER = 5
SEEDS = 3
# substream ids of the airelm.rng table
SPLIT, CHANNEL, TRAIN_NOISE, TEST_NOISE, DIGITAL, SYNTH = 0, 1, 2, 3, 4, 7
INF = math.inf


def _stream(seed, sub):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(MASTER, spawn_key=(seed, sub))))


def _dataset(cfg, seed):
    trial, ds = RngStream(MASTER).split(seed), cfg.dataset
    table = synth_two_gaussians(trial.split(SYNTH), ds.synth_size, ds.synth_d,
                                ds.synth_separation)
    return split_standardize(table, ds.train_ratio, rng=trial.split(SPLIT))


def _with_bias(x):
    return np.hstack([x, np.ones((len(x), 1))])


def _channel_real(cfg, seed, n_r, n_t, kappa):
    """H^r of H = sqrt(kappa/(1+kappa)) a_r a_t^H + sqrt(1/(1+kappa)) H_NLoS,
    H_NLoS CN(0, 1) drawn as its real then its imaginary parts."""
    nlos = _stream(seed, CHANNEL).normal(0.0, math.sqrt(0.5), (2, n_r, n_t))
    a_r = np.exp(1j * np.pi * np.arange(n_r) * np.sin(cfg.los_angle_rx))
    a_t = np.exp(1j * np.pi * np.arange(n_t) * np.sin(cfg.los_angle_tx))
    los = np.outer(a_r, a_t.conj()).real
    return (math.sqrt(kappa / (1 + kappa)) * los
            + math.sqrt(1 / (1 + kappa)) * nlos[0])


def _scored(g_train, t_train, g_test, t_test):
    """Ridge: w = (G^T G + lam I)^-1 G^T t, lam = RIDGE_C ||G||_F^2 / n for
    the n x n smaller Gram matrix."""
    lam = RIDGE_C * np.sum(g_train ** 2) / min(g_train.shape)
    w = np.linalg.solve(g_train.T @ g_train + lam * np.eye(g_train.shape[1]),
                        g_train.T @ t_train)
    t_hat = g_test @ w
    return {"accuracy": np.mean(np.where(t_hat >= 0, 1, -1) == t_test),
            "train_residual": np.linalg.norm(g_train @ w - t_train),
            "receive_power": w @ w}


def _mimo(cfg, seed, data, n_r, kappa, snr_db):
    x_train, x_test = _with_bias(data.x_train), _with_bias(data.x_test)
    h = _channel_real(cfg, seed, n_r, x_train.shape[1], kappa)
    y_train, y_test = x_train @ h.T, x_test @ h.T
    if snr_db != INF:
        # sigma^2 = P_sig / 10^(snr/10); the learner sees N(0, sigma^2 / 2)
        p_sig = np.mean(y_train ** 2)
        std = math.sqrt(p_sig / 10 ** (snr_db / 10) / 2)
        y_train += _stream(seed, TRAIN_NOISE).normal(0.0, std, y_train.shape)
        y_test += _stream(seed, TEST_NOISE).normal(0.0, std, y_test.shape)

    def rapp(y):
        return y / (1 + (y / cfg.y_sat) ** cfg.alpha)

    return _scored(rapp(y_train), data.t_train, rapp(y_test), data.t_test)


def _digital(seed, data, n_r):
    x_train, x_test = _with_bias(data.x_train), _with_bias(data.x_test)
    w = _stream(seed, DIGITAL).uniform(-1.0, 1.0, (n_r, x_train.shape[1]))

    def sigmoid(x):
        return 1 / (1 + np.exp(-(x @ w.T)))

    return _scored(sigmoid(x_train), data.t_train, sigmoid(x_test),
                   data.t_test)


CASES = {
    "sweep_snr": (dict(kind="sweep_snr", n_r=64, grid=(0.0, 10.0, 20.0)),
                  [(64, 0.0, 0.0), (64, 0.0, 10.0), (64, 0.0, 20.0),
                   (64, 0.0, INF)]),
    # N_r on both sides of the 320 training rows, the widest streaming
    "sweep_nr_baseline": (
        dict(kind="sweep_nr", grid=(16.0, 128.0, 512.0), snr_db=10.0,
             baseline=True),
        [(16, 0.0, 10.0), (128, 0.0, 10.0), (512, 0.0, 10.0)]),
    "sweep_kappa_los": (
        dict(kind="sweep_kappa", n_r=64, grid=(0.0, 1.0, 10.0), snr_db=20.0,
             los_angle_rx=0.3, los_angle_tx=-0.7),
        [(64, 0.0, 20.0), (64, 1.0, 20.0), (64, 10.0, 20.0)]),
}


@pytest.mark.parametrize("case", CASES)
def test_grid_rows_match_the_plain_numpy_reference(case):
    settings, points = CASES[case]
    cfg = ExperimentConfig(seeds=SEEDS, master_seed=MASTER, **settings)
    datasets = [_dataset(cfg, seed) for seed in range(SEEDS)]
    expected = []
    for n_r, kappa, snr_db in points:
        for seed, data in enumerate(datasets):
            expected.append((seed, "mimo", n_r, snr_db, kappa,
                             _mimo(cfg, seed, data, n_r, kappa, snr_db)))
            if cfg.baseline:
                expected.append((seed, "digital", n_r, INF, kappa,
                                 _digital(seed, data, n_r)))
    rows = run(cfg)
    assert len(rows) == len(expected)
    for row, (seed, model, n_r, snr_db, kappa, cells) in zip(rows, expected):
        assert (row.seed, row.model, row.n_r, row.snr_db, row.kappa) == (
            seed, model, n_r, snr_db, kappa)
        assert row.accuracy == cells["accuracy"], (row, cells)
        for name in ("train_residual", "receive_power"):
            assert getattr(row, name) == pytest.approx(cells[name],
                                                       rel=1e-12, abs=0)
