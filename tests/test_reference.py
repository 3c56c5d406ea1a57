"""The grid kinds and `online` against a plain-numpy reference of the
pipeline.

For every (point, seed) the reference draws its own H, noise and digital
weights from Generator(Philox(SeedSequence(master_seed, spawn_key=(seed,
sub)))), with the substream ids of the `airelm.rng` table, forms
G = rapp(H^r x~ + n), fits the ridge combiner by `np.linalg.solve` and
scores t_hat = G_test w.  Only the dataset (the synthetic table, its split
and its standardization) is the package's.  Accuracies must be equal;
train_residual and receive_power agree to 1e-12 relative.

`online` is covered with both combiners: H(0) from the channel substream,
AR(1) steps on H^r alone (the real part of eta H + (1 - eta) Theta is
eta H^r + (1 - eta) Theta^r), mini-batches of sorted indices solved by
`np.linalg.pinv` at the solver's cut, and one test block per step that
every model of the step is scored on.  Accuracies must be equal;
normalized_accuracy and receive_power agree to 1e-12 relative (worst seen:
0 and 6.6e-15).  The grid kinds' min-norm combiner is not covered here.
"""

import math

import numpy as np
import pytest

from airelm.config import ExperimentConfig
from airelm.data import split_standardize, synth_two_gaussians
from airelm.experiments import run
from airelm.numkernel import DEFAULT_REL_TOL, RIDGE_C
from airelm.rng import RngStream

MASTER = 5
SEEDS = 3
# substream ids of the airelm.rng table
(SPLIT, CHANNEL, TRAIN_NOISE, TEST_NOISE, DIGITAL, MINIBATCH, AR,
 SYNTH) = range(8)
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



def _online(cfg, seed, data):
    """Online rows of one seed: fit H(0), then per AR(1) step refit the
    normalizer on the full data and take iters_per_step mini-batch
    updates; the step's models are all scored on one received test block
    of D_test x N_r noise draws."""
    x_train, x_test = _with_bias(data.x_train), _with_bias(data.x_test)
    h = _channel_real(cfg, seed, cfg.n_r, x_train.shape[1], cfg.kappa)
    std = math.sqrt(np.mean((x_train @ h.T) ** 2)
                    / 10 ** (cfg.snr_db / 10) / 2)
    train_noise, test_noise = (_stream(seed, TRAIN_NOISE),
                               _stream(seed, TEST_NOISE))
    ar, batches = _stream(seed, AR), _stream(seed, MINIBATCH)

    def hidden(x, noise):
        y = x @ h.T
        y += noise.normal(0.0, std, y.shape)
        return y / (1 + (y / cfg.y_sat) ** cfg.alpha)

    def pinv(g):
        return np.linalg.pinv(g, rcond=DEFAULT_REL_TOL * max(g.shape))

    def closed_form(g, t):
        if cfg.combiner == "min_norm":
            return pinv(g) @ t
        lam = RIDGE_C * np.sum(g ** 2) / min(g.shape)
        return np.linalg.solve(g.T @ g + lam * np.eye(g.shape[1]), g.T @ t)

    w, rows = closed_form(hidden(x_train, train_noise), data.t_train), []
    for step in range(1, cfg.steps + 1):
        theta = ar.normal(0.0, math.sqrt(0.5), (2, *h.shape))
        h = cfg.eta * h + (1 - cfg.eta) * theta[0]
        w_full = closed_form(hidden(x_train, train_noise), data.t_train)
        trace = [w]
        for _ in range(cfg.iters_per_step):
            idx = np.sort(batches.choice(len(x_train), cfg.batch_size,
                                         replace=False))
            trace.append(trace[-1] + cfg.gamma * pinv(
                hidden(x_train[idx], train_noise)) @ data.t_train[idx])
        w = trace[-1]
        g_test = hidden(x_test, test_noise)
        acc_full, *accs = [np.mean(np.where(g_test @ v >= 0, 1, -1)
                                   == data.t_test) for v in (w_full, *trace)]
        rows += [(step, i, acc, acc / acc_full, v @ v)
                 for i, (v, acc) in enumerate(zip(trace, accs))]
    return rows


@pytest.mark.parametrize("combiner", ["ridge", "min_norm"])
def test_online_rows_match_the_plain_numpy_reference(combiner):
    cfg = ExperimentConfig(kind="online", seeds=SEEDS, master_seed=MASTER,
                           n_r=64, snr_db=10.0, kappa=1.0, los_angle_rx=0.3,
                           los_angle_tx=-0.7, eta=0.7, steps=3,
                           iters_per_step=4, batch_size=16,
                           combiner=combiner)
    expected = [(seed, *cells) for seed in range(SEEDS)
                for cells in _online(cfg, seed, _dataset(cfg, seed))]
    rows = run(cfg)
    assert len(rows) == len(expected)
    for row, (seed, step, iteration, acc, normalized, power) in zip(
            rows, expected):
        assert (row.seed, row.step, row.iteration) == (seed, step, iteration)
        assert row.accuracy == acc, (row, acc)
        assert row.normalized_accuracy == pytest.approx(normalized,
                                                        rel=1e-12, abs=0)
        assert row.receive_power == pytest.approx(power, rel=1e-12, abs=0)
