"""The over-the-air ELM learner and its digital baseline.

The fading channel's real part is the (fixed, random) hidden-layer weight
matrix: a feature vector x is appended with a constant 1 (the implicit SLFN
bias, so N_t = d+1), pushed through the channel, and soft-thresholded by the
Rapp curve.  Only the analog combining vector w is trained, in closed form
by minimum-norm or ridge least squares (the combiner, `COMBINERS`); a
mini-batch update rule re-tracks w when the channel ages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activation import RappParams, DEFAULT_RAPP, rapp_vec, sigmoid
from .channel import NoiseModel, NOISELESS, add_noise, receive, row_blocks
from .errors import ConfigError, shown
from .numkernel import min_norm_lstsq, ridge_lstsq
from .rng import RngStream

# the closed-form combiners `train` fits: "min_norm" is w = G^+ t
# (`min_norm_lstsq`), "ridge" the regularized fit of `ridge_lstsq`
COMBINERS = ("min_norm", "ridge")


@dataclass(frozen=True)
class HiddenLayer:
    """Channel-realized hidden layer: real channel view + activation + noise.

    h_real has shape N_r x (d+1); the last column multiplies the appended
    bias 1.
    """

    h_real: np.ndarray = field(repr=False)
    rapp: RappParams = DEFAULT_RAPP
    noise: NoiseModel = NOISELESS


@dataclass(frozen=True)
class DigitalLayer:
    """Conventional ELM hidden layer: dense random weights + sigmoid.

    weights has shape n_hidden x (d+1) (bias column included); there is no
    channel and no noise on this path.
    """

    weights: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ElmModel:
    """Trained combiner w bound to the hidden layer it was fitted through."""

    w: np.ndarray = field(repr=False)
    hidden: object = None
    train_residual: float = float("nan")
    receive_power: float = float("nan")


def augment(x: np.ndarray) -> np.ndarray:
    """The transmit block x~: each row of the D x d feature matrix x with
    the bias input 1 appended."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a D x d feature matrix, got shape {x.shape}")
    return np.hstack([x, np.ones((x.shape[0], 1))])


def hidden_matrix(layer, x: np.ndarray, rng: RngStream = None) -> np.ndarray:
    """Hidden-layer output matrix G, one row per data point of x, written
    over the pre-activation block y = x~ (H^r)^T or x~ W^T: rapp(y + n_r)
    for a channel layer, n_r fresh i.i.d. noise when the noise model has
    finite power (`add_noise`), and sigmoid(y) for a digital layer.  Both
    run row block by row block (`row_blocks`), so temporaries are one block
    each, and the blocks' noise draws give the bits of one draw over y."""
    digital = isinstance(layer, DigitalLayer)
    y = receive(layer.weights if digital else layer.h_real, augment(x))
    for rows in row_blocks(y.shape):
        if digital:
            sigmoid(y[rows], out=y[rows])
        else:
            rapp_vec(add_noise(y[rows], layer.noise, rng), layer.rapp,
                     out=y[rows])
    return y


def train(g: np.ndarray, t: np.ndarray, hidden=None,
          combiner: str = "min_norm") -> ElmModel:
    """Closed-form fit: w* = G^+ t (minimum-norm least squares), or the
    ridge solution of `ridge_lstsq` for combiner = "ridge"."""
    if combiner not in COMBINERS:
        raise ValueError(f"unknown combiner {combiner!r}")
    g = np.asarray(g, dtype=float)
    t = np.asarray(t, dtype=float)
    w = (ridge_lstsq if combiner == "ridge" else min_norm_lstsq)(g, t)
    residual = float(np.linalg.norm(g @ w - t))
    return ElmModel(w=w, hidden=hidden, train_residual=residual,
                    receive_power=_receive_power(w))


def _receive_power(w: np.ndarray) -> float:
    """||w||^2 of a fitted combiner, or a ConfigError if it overflows: where
    noise dominates, G ~ y_sat^2 / n, so raising snr_db or y_sat helps."""
    with np.errstate(over="ignore"):
        power = float(w @ w)
    if not np.isfinite(power):
        raise ConfigError("the combiner's power ||w||^2 overflows float64; "
                          "raise snr_db or y_sat")
    return power


def fit(layer, x: np.ndarray, t: np.ndarray, rng: RngStream = None,
        combiner: str = "min_norm") -> ElmModel:
    """hidden_matrix + train in one step, binding the layer to the model."""
    g = hidden_matrix(layer, x, rng)
    return train(g, t, hidden=layer, combiner=combiner)


def predict(model: ElmModel, x: np.ndarray, rng: RngStream = None) -> np.ndarray:
    """Combiner output t_hat(i) = w . g(H^r x~(i)), fresh noise per evaluation."""
    if model.hidden is None:
        raise ValueError("predict: model is not bound to a hidden layer")
    return hidden_matrix(model.hidden, x, rng) @ model.w


def classify(t_hat: np.ndarray) -> np.ndarray:
    """Binary decision: +1 if t_hat >= 0 else -1 (ties break to +1)."""
    return np.where(np.asarray(t_hat) >= 0, 1, -1)


def digital_elm_hidden(rng: RngStream, n_hidden: int, d: int) -> DigitalLayer:
    """Random dense hidden layer for the digital-ELM baseline.

    Weights (bias column included) are i.i.d. Uniform[-1, 1].  Weights in
    [0, 1] would share a positive mean, so on the standardized WBCD stand-in
    of perfbench/workloads.py the hidden pre-activations correlate (mean |r|
    0.87, against 0.32 for [-1, 1]) and the digital ELM's ridge accuracy
    drops 1.8-3.3 points at N_r 64-1024 (20 seeds).
    """
    if n_hidden < 1 or d < 0:
        raise ConfigError(f"bad layer size n_hidden={shown(n_hidden)}, "
                          f"d={shown(d)}")
    return DigitalLayer(weights=rng.uniform(-1.0, 1.0, (n_hidden, d + 1)))


def online_update(model: ElmModel, layer_k: HiddenLayer, data, gamma: float,
                  batch_size: int, n_iters: int, rng: RngStream,
                  noise_rng: RngStream = None) -> list:
    """Mini-batch re-training under an aged channel: the models after each
    of n_iters iterations, in order, all bound to the stepped layer_k.

    Starting from the previous frame's combiner model.w, each iteration
    draws an index set S of batch_size training points uniformly without
    replacement, solves the small LS problem w_S* = G_S^+ t_S through
    layer_k, and takes w <- w + gamma * w_S*.  Sampling is independent
    across iterations; indices are sorted within an iteration, so
    batch_size = D makes one iteration exactly w + gamma * w*.
    """
    if not isinstance(layer_k, HiddenLayer):
        raise ConfigError("online_update needs a channel hidden layer")
    if not (0.0 < gamma < 1.0):
        raise ConfigError(f"gamma must lie in (0, 1), got {gamma}")
    d_tr = data.x_train.shape[0]
    if not (1 <= batch_size <= d_tr):
        raise ConfigError(
            f"batch_size must lie in [1, {d_tr}], got {batch_size}")
    w, models = model.w, []
    for _ in range(n_iters):
        idx = np.sort(rng.choice(d_tr, batch_size, replace=False))
        g_s = hidden_matrix(layer_k, data.x_train[idx], noise_rng)
        w = w + gamma * min_norm_lstsq(g_s, data.t_train[idx])
        models.append(ElmModel(w=w, hidden=layer_k,
                               receive_power=_receive_power(w)))
    return models
