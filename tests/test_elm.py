import dataclasses
import time

import numpy as np
import pytest

from airelm.activation import rapp_vec, sigmoid
from airelm.channel import NoiseModel
from airelm.data import split_standardize, synth_two_gaussians
from airelm.elm import (
    DigitalLayer,
    ElmModel,
    HiddenLayer,
    classify,
    digital_elm_hidden,
    fit,
    hidden_matrix,
    online_update,
    predict,
    train,
)
from airelm.errors import ConfigError
from airelm.numkernel import min_norm_lstsq, one_blas_thread
from airelm.rng import RngStream, SUB_CHANNEL, SUB_MINIBATCH, SUB_SYNTH


def _synth_dataset(seed, d_total=80, d=8, sep=4.0):
    table = synth_two_gaussians(RngStream(seed).split(SUB_SYNTH), d_total, d, sep)
    return split_standardize(table, 0.8, RngStream(seed).split(0))


def _random_layer(seed, n_r, d):
    h = RngStream(seed).split(SUB_CHANNEL).normal(size=(n_r, d + 1))
    return HiddenLayer(h_real=h)


# ----------------------------------------------------- hidden matrix

def test_hidden_matrix_identity_channel_oracle():
    # H^r = I_2, x = (0,): x~ = (0, 1), y = (0, 1),
    # g = (rapp(0), rapp(1)) = (0, 1/(1 + (2/3)^2)) = (0, 9/13)
    layer = HiddenLayer(h_real=np.eye(2))
    g = hidden_matrix(layer, np.array([[0.0]]))
    assert g.shape == (1, 2)
    assert g[0, 0] == 0.0
    assert g[0, 1] == pytest.approx(9.0 / 13.0, abs=1e-15)


def test_hidden_matrix_row_per_sample():
    layer = _random_layer(0, n_r=7, d=3)
    x = RngStream(1).normal(size=(5, 3))
    g = hidden_matrix(layer, x)
    assert g.shape == (5, 7)
    # row i depends only on sample i (up to gemm blocking noise)
    g0 = hidden_matrix(layer, x[:1])
    assert np.allclose(g[0], g0[0], atol=1e-13)


def test_hidden_matrix_applies_rapp():
    layer = _random_layer(2, n_r=6, d=4)
    x = RngStream(3).normal(size=(4, 4))
    pre = np.hstack([x, np.ones((4, 1))]) @ layer.h_real.T
    assert np.allclose(hidden_matrix(layer, x), rapp_vec(pre), atol=1e-15)


def test_hidden_matrix_dimension_mismatch():
    layer = _random_layer(0, n_r=4, d=3)
    with pytest.raises(ValueError):
        hidden_matrix(layer, np.ones((2, 5)))


def test_hidden_matrix_noise_requires_rng():
    layer = HiddenLayer(h_real=np.eye(3), noise=NoiseModel(sigma2=0.1))
    with pytest.raises(ValueError):
        hidden_matrix(layer, np.zeros((1, 2)))


# ------------------------------------------------------------ train

def test_train_identity_design():
    t = np.array([1.0, -1.0, 1.0])
    model = train(np.eye(3), t)
    assert np.allclose(model.w, t, atol=1e-12)
    assert model.train_residual == pytest.approx(0.0, abs=1e-12)
    assert model.receive_power == pytest.approx(3.0, rel=1e-12)


def test_train_rank_deficient_matches_lstsq():
    rng = np.random.default_rng(6)
    col = rng.normal(size=(10, 1))
    g = np.hstack([col, col])  # rank 1
    t = rng.normal(size=10)
    model = train(g, t)
    ref = np.linalg.lstsq(g, t, rcond=None)[0]
    assert np.allclose(model.w, ref, atol=1e-10)


def test_train_square_interpolates():
    data = _synth_dataset(0, d_total=40)
    layer = _random_layer(5, n_r=32, d=8)
    g = hidden_matrix(layer, data.x_train)
    model = train(g, data.t_train, hidden=layer)
    assert g.shape == (32, 32)
    rmse = np.sqrt(np.mean((g @ model.w - data.t_train) ** 2))
    assert rmse < 1e-6


def test_train_residual_field_is_l2():
    rng = np.random.default_rng(8)
    g = rng.normal(size=(20, 4))
    t = rng.normal(size=20)
    model = train(g, t)
    assert model.train_residual == pytest.approx(np.linalg.norm(g @ model.w - t), rel=1e-12)


# -------------------------------------------------- predict/classify

def test_predict_zero_weights():
    layer = _random_layer(0, n_r=5, d=2)
    model = ElmModel(w=np.zeros(5), hidden=layer)
    assert np.array_equal(predict(model, np.ones((3, 2))), np.zeros(3))


def test_predict_consistent_with_training_matrix():
    data = _synth_dataset(1, d_total=60)
    layer = _random_layer(7, n_r=24, d=8)
    model = fit(layer, data.x_train, data.t_train)
    g = hidden_matrix(layer, data.x_train)
    assert np.array_equal(predict(model, data.x_train), g @ model.w)


def test_predict_unbound_model_rejected():
    model = train(np.eye(2), np.ones(2))  # no hidden layer attached
    with pytest.raises(ValueError):
        predict(model, np.ones((1, 1)))


def test_classify_threshold_and_ties():
    out = classify(np.array([-0.5, 0.0, 2.0, -1e-12]))
    assert np.array_equal(out, [-1.0, 1.0, 1.0, -1.0])


def test_classify_scale_invariant():
    rng = np.random.default_rng(10)
    t_hat = rng.normal(size=50)
    assert np.array_equal(classify(t_hat), classify(3.7 * t_hat))


# -------------------------------------------------- analog invariants

def test_interpolation_at_matched_size():
    """Square noiseless designs interpolate their training targets."""
    for n_r in [16, 32, 64]:
        hits = 0
        for seed in range(100):
            data = _synth_dataset(seed, d_total=int(n_r / 0.8))
            layer = _random_layer(seed + 1000, n_r=n_r, d=8)
            g = hidden_matrix(layer, data.x_train)
            if g.shape[0] != n_r:
                continue
            model = train(g, data.t_train)
            rmse = np.sqrt(np.mean((g @ model.w - data.t_train) ** 2))
            if rmse < 1e-6:
                hits += 1
        assert hits >= 95, f"n_r={n_r}: only {hits}/100 interpolated"


def test_residual_non_increasing_in_width():
    """More hidden nodes can only shrink the training residual
    (checked on nested column subsets of one wide layer)."""
    for seed in range(50):
        data = _synth_dataset(seed, d_total=80)
        wide = _random_layer(seed, n_r=64, d=8)
        g_full = hidden_matrix(wide, data.x_train)
        prev = np.inf
        for n_r in [8, 16, 32, 64]:
            model = train(g_full[:, :n_r], data.t_train)
            assert model.train_residual <= prev + 1e-10
            prev = model.train_residual


def test_receive_power_is_minimal_over_solution_set():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(8, 24))
    t = rng.normal(size=8)
    model = train(g, t)
    assert model.receive_power == pytest.approx(model.w @ model.w, rel=1e-12)
    _, _, vt = np.linalg.svd(g)
    null = vt[8:]
    for _ in range(10):
        v = null.T @ rng.normal(size=16)
        alt = model.w + v
        assert alt @ alt >= model.receive_power - 1e-10


def test_fit_deterministic_under_noise():
    data = _synth_dataset(4, d_total=60)
    layer = HiddenLayer(h_real=_random_layer(9, 16, 8).h_real, noise=NoiseModel(sigma2=0.1))
    m1 = fit(layer, data.x_train, data.t_train, RngStream(5).split(2))
    m2 = fit(layer, data.x_train, data.t_train, RngStream(5).split(2))
    assert np.array_equal(m1.w, m2.w)
    p1 = predict(m1, data.x_test, RngStream(5).split(3))
    p2 = predict(m2, data.x_test, RngStream(5).split(3))
    assert np.array_equal(p1, p2)


# ----------------------------------------------------- digital layer

def test_digital_weights_default_support():
    layer = digital_elm_hidden(RngStream(0).split(4), n_hidden=300, d=40)
    w = layer.weights
    assert w.shape == (300, 41)
    assert w.min() >= 0.0
    assert w.max() <= 1.0
    assert abs(w.mean() - 0.5) < 0.01


def test_digital_weights_custom_range():
    layer = digital_elm_hidden(RngStream(1).split(4), 300, 40, low=-1.0, high=1.0)
    w = layer.weights
    assert w.min() >= -1.0
    assert w.max() <= 1.0
    assert abs(w.mean()) < 0.02


def test_digital_weights_validation():
    rng = RngStream(0).split(4)
    with pytest.raises(ConfigError):
        digital_elm_hidden(rng, 0, 4)
    with pytest.raises(ConfigError):
        digital_elm_hidden(rng, 4, -1)
    with pytest.raises(ConfigError):
        digital_elm_hidden(rng, 4, 4, low=1.0, high=1.0)


def test_digital_hidden_matrix_is_sigmoid():
    layer = DigitalLayer(weights=np.array([[1.0, 0.0]]))  # d = 1
    g = hidden_matrix(layer, np.array([[2.0]]))
    assert g[0, 0] == pytest.approx(sigmoid(2.0), abs=1e-15)


def test_digital_deterministic():
    a = digital_elm_hidden(RngStream(2).split(4), 10, 5).weights
    b = digital_elm_hidden(RngStream(2).split(4), 10, 5).weights
    assert np.array_equal(a, b)


# ----------------------------------------------------- online updates

def _online_setup(seed=0, n_r=48, d_total=80):
    data = _synth_dataset(seed, d_total=d_total)
    layer = _random_layer(seed + 50, n_r=n_r, d=8)
    model = fit(layer, data.x_train, data.t_train)
    return data, layer, model


def test_online_full_batch_step_from_zero():
    # one full-batch update from w = 0 lands exactly on gamma * w_star
    data, layer, model = _online_setup()
    zero = dataclasses.replace(model, w=np.zeros_like(model.w))
    stepped = online_update(
        zero, layer.h_real, data, gamma=0.5,
        batch_size=len(data.t_train), n_iters=1,
        rng=RngStream(0).split(SUB_MINIBATCH),
    )
    g = hidden_matrix(layer, data.x_train)
    w_star = min_norm_lstsq(g, data.t_train)
    assert np.allclose(stepped.w, 0.5 * w_star, atol=1e-10)


def test_online_full_batch_accumulates_along_w_star():
    # the correction is additive: k full-batch steps from zero give
    # k * gamma * w_star
    data, layer, model = _online_setup(1)
    zero = dataclasses.replace(model, w=np.zeros_like(model.w))
    out = online_update(
        zero, layer.h_real, data, gamma=0.5,
        batch_size=len(data.t_train), n_iters=5,
        rng=RngStream(1).split(SUB_MINIBATCH),
    )
    g = hidden_matrix(layer, data.x_train)
    w_star = min_norm_lstsq(g, data.t_train)
    assert np.allclose(out.w, 5 * 0.5 * w_star, atol=1e-8)


def test_online_fixed_channel_rescales_not_rotates():
    # with an unchanged channel the update direction is w_star itself,
    # so decisions (signs) are untouched while the norm grows
    data, layer, model = _online_setup(2)
    out = online_update(
        model, layer.h_real, data, gamma=0.5,
        batch_size=len(data.t_train), n_iters=3,
        rng=RngStream(2).split(SUB_MINIBATCH),
    )
    assert np.allclose(out.w, (1 + 3 * 0.5) * model.w, atol=1e-8)
    before = classify(predict(model, data.x_test))
    after = classify(predict(out, data.x_test))
    assert np.array_equal(before, after)


def test_online_minibatch_deterministic():
    data, layer, model = _online_setup(3)
    a = online_update(model, layer.h_real, data, 0.5, 16, 4,
                      RngStream(3).split(SUB_MINIBATCH))
    b = online_update(model, layer.h_real, data, 0.5, 16, 4,
                      RngStream(3).split(SUB_MINIBATCH))
    assert np.array_equal(a.w, b.w)
    c = online_update(model, layer.h_real, data, 0.5, 16, 4,
                      RngStream(4).split(SUB_MINIBATCH))
    assert not np.array_equal(a.w, c.w)


def test_online_callback_sequence():
    data, layer, model = _online_setup(4)
    seen = []
    online_update(model, layer.h_real, data, 0.5, 16, 3,
                  RngStream(4).split(SUB_MINIBATCH),
                  callback=lambda i, m: seen.append((i, m.w.copy())))
    assert [i for i, _ in seen] == [0, 1, 2]


def test_online_validation():
    data, layer, model = _online_setup(5)
    rng = RngStream(5).split(SUB_MINIBATCH)
    with pytest.raises(ConfigError):
        online_update(model, layer.h_real, data, 0.0, 16, 1, rng)
    with pytest.raises(ConfigError):
        online_update(model, layer.h_real, data, 1.5, 16, 1, rng)
    with pytest.raises(ConfigError):
        online_update(model, layer.h_real, data, 0.5, 0, 1, rng)
    with pytest.raises(ConfigError):
        online_update(model, layer.h_real, data, 0.5, len(data.t_train) + 1, 1, rng)


def test_online_rejects_digital_model():
    data, layer, model = _online_setup(6)
    dig = digital_elm_hidden(RngStream(6).split(4), 16, 8)
    g = hidden_matrix(dig, data.x_train)
    dmodel = train(g, data.t_train, hidden=dig)
    with pytest.raises(ConfigError):
        online_update(dmodel, layer.h_real, data, 0.5, 16, 1,
                      RngStream(6).split(SUB_MINIBATCH))


# ----------------------------------------------------------- timing

@pytest.mark.slow
def test_minibatch_solve_cost_scales_quadratically():
    """LS solve on an |S| x N_R block is O(|S|^2 N_R): doubling |S|
    should land near 4x, accepted band [2, 8]."""
    n_r = 1024
    rng = np.random.default_rng(0)
    g64 = rng.normal(size=(64, n_r))
    g128 = rng.normal(size=(128, n_r))
    t64 = rng.normal(size=64)
    t128 = rng.normal(size=128)
    min_norm_lstsq(g64, t64)  # warm up
    times = {64: [], 128: []}
    for _ in range(50):
        t0 = time.perf_counter()
        min_norm_lstsq(g64, t64)
        times[64].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        min_norm_lstsq(g128, t128)
        times[128].append(time.perf_counter() - t0)
    ratio = np.median(times[128]) / np.median(times[64])
    assert 2.0 <= ratio <= 8.0, f"scaling ratio {ratio:.2f}"


@pytest.mark.slow
def test_train_cost_scales_with_problem_size():
    # Interleaved repetitions on one BLAS thread, as every trial runs, and
    # the minimum of each size: load on the machine only ever adds time.
    rng = np.random.default_rng(1)
    problems = {n: (rng.normal(size=(n, n)), rng.normal(size=n))
                for n in (256, 512)}
    times = {n: [] for n in problems}
    with one_blas_thread():
        for g, t in problems.values():
            train(g, t)  # warm up
        for _ in range(7):
            for n, (g, t) in problems.items():
                t0 = time.perf_counter()
                train(g, t)
                times[n].append(time.perf_counter() - t0)
    ratio = min(times[512]) / min(times[256])
    assert 2.0 <= ratio <= 10.0, f"train scaling ratio {ratio:.2f}"
