import dataclasses
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airelm import channel
from airelm.activation import RappParams, rapp_vec, sigmoid
from airelm.channel import NoiseModel, receive, signal_power
from airelm.data import split_standardize, synth_two_gaussians
from airelm.elm import (
    DigitalLayer,
    ElmModel,
    HiddenLayer,
    augment,
    classify,
    digital_elm_hidden,
    fit,
    hidden_matrix,
    online_update,
    predict,
    train,
)
from airelm.errors import ConfigError
from airelm.experiments import _NoiseReplay
from airelm.numkernel import min_norm_lstsq, one_blas_thread, ridge_lstsq
from airelm.rng import RngStream, SUB_CHANNEL, SUB_MINIBATCH, SUB_SYNTH


def _synth_dataset(seed, d_total=80, d=8, sep=4.0):
    table = synth_two_gaussians(RngStream(seed).split(SUB_SYNTH), d_total, d, sep)
    return split_standardize(table, 0.8, rng=RngStream(seed).split(0))


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
    # `receive` checks both kinds of layer
    digital = digital_elm_hidden(RngStream(0), 4, 3)
    with pytest.raises(ValueError, match=r"\(H\^r or W\) has 4 columns"):
        hidden_matrix(digital, np.ones((2, 5)))


def test_hidden_matrix_noise_requires_rng():
    layer = HiddenLayer(h_real=np.eye(3), noise=NoiseModel(sigma2=0.1))
    with pytest.raises(ValueError):
        hidden_matrix(layer, np.zeros((1, 2)))


@pytest.mark.parametrize("sigma2", [0.0, 0.3])
def test_hidden_matrix_is_rapp_of_the_receive_block_plus_one_draw(sigma2):
    """G is rapp(r + n) bit for bit, r = x~ (H^r)^T and n drawn for all of
    r in one call; the same stream gives the same G again."""
    layer = dataclasses.replace(_random_layer(3, n_r=6, d=4),
                                noise=NoiseModel(sigma2=sigma2))
    x = RngStream(4).normal(size=(9, 4))
    r = receive(layer.h_real, augment(x))
    direct = rapp_vec(r + RngStream(5).normal(0.0, np.sqrt(sigma2 / 2.0),
                                              r.shape)) if sigma2 else \
        rapp_vec(r)
    for _ in range(2):
        assert np.array_equal(hidden_matrix(layer, x, RngStream(5)), direct)


@settings(max_examples=120)
@given(rows=st.integers(0, 30), cols=st.integers(1, 12),
       block=st.integers(1, 400), sigma2=st.sampled_from([0.0, 0.3, 40.0]),
       alpha=st.sampled_from([2, 4]), replay=st.booleans(),
       seed=st.integers(0, 1000))
def test_row_blocks_give_the_bits_of_the_whole_block_formulas(
        rows, cols, block, sigma2, alpha, replay, seed):
    """Whatever the shape and wherever the row blocks end, the blocked
    `hidden_matrix` is z / ((z / y_sat)^alpha + 1) with z = y + n, y the
    receive block and n drawn for all of y in one call, from a stream or
    its `_NoiseReplay`, and the blocked `signal_power` is
    mean_i ||y_i||^2 / N_r as one reduction."""
    x = RngStream(seed).normal(0.0, 2.0, (rows, 3))
    p = RappParams(y_sat=1.25, alpha=alpha)
    layer = HiddenLayer(h_real=RngStream(seed).split(1).normal(size=(cols, 4)),
                        rapp=p, noise=NoiseModel(sigma2=sigma2))
    y = receive(layer.h_real, augment(x))
    stream = RngStream(seed).split(2)
    if replay:
        stream = _NoiseReplay(stream, y.size).rewind(y.size)
    z = y + RngStream(seed).split(2).normal(0.0, np.sqrt(sigma2 / 2.0),
                                            y.shape) if sigma2 else y
    expected = z / ((z / p.y_sat) ** p.alpha + 1.0)
    with mock.patch.object(channel, "BLOCK_ENTRIES", block):
        power = signal_power(y) if rows else None
        g = hidden_matrix(layer, x, stream)
    assert np.array_equal(g.view(np.int64), expected.view(np.int64))
    if rows:
        assert power == np.mean(np.sum(y ** 2, axis=1)) / cols


def test_digital_hidden_matrix_is_sigmoid_of_the_product():
    layer = digital_elm_hidden(RngStream(6), 5, 3)
    x = RngStream(7).normal(size=(4, 3))
    assert np.array_equal(hidden_matrix(layer, x),
                          sigmoid(augment(x) @ layer.weights.T))


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


def test_train_fits_the_named_combiner_and_defaults_to_min_norm():
    rng = np.random.default_rng(10)
    g, t = rng.normal(size=(12, 30)), rng.normal(size=12)
    assert np.array_equal(train(g, t).w, min_norm_lstsq(g, t))
    ridge = train(g, t, combiner="ridge")
    assert np.array_equal(ridge.w, ridge_lstsq(g, t))
    assert ridge.receive_power == float(ridge.w @ ridge.w)
    with pytest.raises(ValueError, match="unknown combiner"):
        train(g, t, combiner="ridge ")


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
    """Uniform[-1, 1] weights, so each hidden unit's weights center on 0."""
    layer = digital_elm_hidden(RngStream(0).split(4), n_hidden=300, d=40)
    w = layer.weights
    assert w.shape == (300, 41)
    assert w.min() >= -1.0
    assert w.max() <= 1.0
    assert np.abs(w.mean(axis=0)).max() < 0.15


def test_digital_weights_validation():
    rng = RngStream(0).split(4)
    with pytest.raises(ConfigError):
        digital_elm_hidden(rng, 0, 4)
    with pytest.raises(ConfigError):
        digital_elm_hidden(rng, 4, -1)


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
    stepped, = online_update(
        zero, layer, data, gamma=0.5,
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
    *_, out = online_update(
        zero, layer, data, gamma=0.5,
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
    *_, out = online_update(
        model, layer, data, gamma=0.5,
        batch_size=len(data.t_train), n_iters=3,
        rng=RngStream(2).split(SUB_MINIBATCH),
    )
    assert np.allclose(out.w, (1 + 3 * 0.5) * model.w, atol=1e-8)
    before = classify(predict(model, data.x_test))
    after = classify(predict(out, data.x_test))
    assert np.array_equal(before, after)


def test_online_minibatch_deterministic():
    data, layer, model = _online_setup(3)
    *_, a = online_update(model, layer, data, 0.5, 16, 4,
                          RngStream(3).split(SUB_MINIBATCH))
    *_, b = online_update(model, layer, data, 0.5, 16, 4,
                          RngStream(3).split(SUB_MINIBATCH))
    assert np.array_equal(a.w, b.w)
    *_, c = online_update(model, layer, data, 0.5, 16, 4,
                          RngStream(4).split(SUB_MINIBATCH))
    assert not np.array_equal(a.w, c.w)


def test_online_returns_one_model_per_iteration():
    """The i-th model is the combiner after iteration i, bound to the
    stepped layer: a longer run starts with the models of a shorter one."""
    data, layer, model = _online_setup(4)
    stepped = dataclasses.replace(layer, h_real=layer.h_real + 0.1)
    three = online_update(model, stepped, data, 0.5, 16, 3,
                          RngStream(4).split(SUB_MINIBATCH))
    two = online_update(model, stepped, data, 0.5, 16, 2,
                        RngStream(4).split(SUB_MINIBATCH))
    assert len(three) == 3 and all(m.hidden is stepped for m in three)
    assert all(np.array_equal(a.w, b.w) for a, b in zip(two, three))
    assert not np.array_equal(three[1].w, three[2].w)
    assert online_update(model, stepped, data, 0.5, 16, 0,
                         RngStream(4).split(SUB_MINIBATCH)) == []


def test_online_validation():
    data, layer, model = _online_setup(5)
    rng = RngStream(5).split(SUB_MINIBATCH)
    with pytest.raises(ConfigError):
        online_update(model, layer, data, 0.0, 16, 1, rng)
    with pytest.raises(ConfigError):
        online_update(model, layer, data, 1.5, 16, 1, rng)
    with pytest.raises(ConfigError):
        online_update(model, layer, data, 0.5, 0, 1, rng)
    with pytest.raises(ConfigError):
        online_update(model, layer, data, 0.5, len(data.t_train) + 1, 1, rng)


def test_online_rejects_digital_model():
    data, layer, model = _online_setup(6)
    dig = digital_elm_hidden(RngStream(6).split(4), 16, 8)
    g = hidden_matrix(dig, data.x_train)
    dmodel = train(g, data.t_train, hidden=dig)
    with pytest.raises(ConfigError):
        online_update(dmodel, dig, data, 0.5, 16, 1,
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


def _train_problems(rng, n):
    """(path, G, t) at size n for each path of `min_norm_lstsq`: a wide
    n x 2n Gaussian G, which the certificate passes, and a rank n/2 n x n
    product, which takes `np.linalg.lstsq`."""
    half = n // 2
    return [("gram", rng.normal(size=(n, 2 * n)), rng.normal(size=n)),
            ("lstsq", rng.normal(size=(n, half)) @ rng.normal(size=(half, n)),
             rng.normal(size=n))]


@pytest.mark.slow
def test_train_cost_scales_with_problem_size(monkeypatch):
    """Doubling n costs 2 to 10 times as much on each solver path, timed
    on inputs that stay on that path at n = 256 and 512."""
    # Interleaved repetitions on one BLAS thread, as every trial runs, and
    # the minimum of each size: load on the machine only ever adds time.
    rng = np.random.default_rng(1)
    problems = {(path, n): (g, t) for n in (256, 512)
                for path, g, t in _train_problems(rng, n)}
    lstsq, solved = np.linalg.lstsq, []

    def counted(g, t, rcond):
        solved.append(g.shape)
        return lstsq(g, t, rcond=rcond)

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", counted)
        for (path, _), (g, t) in problems.items():
            solved.clear()
            train(g, t)
            assert solved == ([] if path == "gram" else [g.shape]), path
    times = {key: [] for key in problems}
    with one_blas_thread():
        for g, t in problems.values():
            train(g, t)  # warm up
        for _ in range(7):
            for key, (g, t) in problems.items():
                t0 = time.perf_counter()
                train(g, t)
                times[key].append(time.perf_counter() - t0)
    for path in ("gram", "lstsq"):
        ratio = min(times[path, 512]) / min(times[path, 256])
        assert 2.0 <= ratio <= 10.0, f"{path} train scaling ratio {ratio:.2f}"
