"""The over-the-air ELM learner and its digital baseline.

The fading channel's real part is the (fixed, random) hidden-layer weight
matrix: a feature vector x is appended with a constant 1 (the implicit SLFN
bias, so N_t = d+1), pushed through the channel, and soft-thresholded by the
Rapp curve.  Only the analog combining vector w is trained, in closed form
by minimum-norm least squares; a mini-batch update rule re-tracks w when the
channel ages.
"""

from __future__ import annotations

from dataclasses import dataclass, replace, field

import numpy as np

from .activation import RappParams, DEFAULT_RAPP, rapp_vec, sigmoid
from .channel import NoiseModel, NOISELESS, apply_channel
from .errors import ConfigError
from .numkernel import min_norm_lstsq
from .rng import RngStream


@dataclass(frozen=True)
class HiddenLayer:
    """Channel-realized hidden layer: real channel view + activation + noise.

    h_real has shape N_r x (d+1); the last column multiplies the appended
    bias 1.
    """

    h_real: np.ndarray = field(repr=False)
    rapp: RappParams = DEFAULT_RAPP
    noise: NoiseModel = NOISELESS

    @property
    def n_r(self) -> int:
        return self.h_real.shape[0]

    @property
    def d(self) -> int:
        return self.h_real.shape[1] - 1


@dataclass(frozen=True)
class DigitalLayer:
    """Conventional ELM hidden layer: dense random weights + sigmoid.

    weights has shape n_hidden x (d+1) (bias column included); there is no
    channel and no noise on this path.
    """

    weights: np.ndarray = field(repr=False)

    @property
    def n_r(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.weights.shape[1] - 1


@dataclass(frozen=True)
class ElmModel:
    """Trained combiner w bound to the hidden layer it was fitted through."""

    w: np.ndarray = field(repr=False)
    hidden: object = None
    train_residual: float = float("nan")
    receive_power: float = float("nan")


def augment(x: np.ndarray) -> np.ndarray:
    """x -> x~ = (x_1, ..., x_d, 1)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return np.concatenate([x, [1.0]])


def _augment_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a D x d feature matrix, got shape {x.shape}")
    return np.hstack([x, np.ones((x.shape[0], 1))])


def hidden_matrix(layer, x: np.ndarray, rng: RngStream = None) -> np.ndarray:
    """Hidden-layer output matrix G, one row per data point.

    For a channel layer, row i is rapp(H^r x~(i) + n_r), the rows received
    in one batch by `apply_channel`, with fresh i.i.d. noise per data point
    when the noise model has finite power.  For a digital layer,
    row i is sigmoid(W x~(i)).
    """
    a = _augment_rows(x)
    if isinstance(layer, DigitalLayer):
        if a.shape[1] != layer.weights.shape[1]:
            raise ValueError(
                f"feature dimension {a.shape[1] - 1} does not match layer "
                f"d={layer.d}")
        return sigmoid(a @ layer.weights.T)
    y = apply_channel(layer.h_real, a, layer.noise, rng)
    return rapp_vec(y, layer.rapp)


def train(g: np.ndarray, t: np.ndarray, hidden=None) -> ElmModel:
    """Closed-form fit: w* = G^+ t (minimum-norm least squares)."""
    g = np.asarray(g, dtype=float)
    t = np.asarray(t, dtype=float).reshape(-1)
    w = min_norm_lstsq(g, t)
    residual = float(np.linalg.norm(g @ w - t))
    return ElmModel(w=w, hidden=hidden, train_residual=residual,
                    receive_power=float(w @ w))


def fit(layer, x: np.ndarray, t: np.ndarray, rng: RngStream = None) -> ElmModel:
    """hidden_matrix + train in one step, binding the layer to the model."""
    g = hidden_matrix(layer, x, rng)
    return train(g, t, hidden=layer)


def predict(model: ElmModel, x: np.ndarray, rng: RngStream = None) -> np.ndarray:
    """Combiner output t_hat(i) = w . g(H^r x~(i)), fresh noise per evaluation."""
    if model.hidden is None:
        raise ValueError("predict: model is not bound to a hidden layer")
    g = hidden_matrix(model.hidden, x, rng)
    return g @ model.w


def classify(t_hat: np.ndarray) -> np.ndarray:
    """Binary decision: +1 if t_hat >= 0 else -1 (ties break to +1)."""
    t_hat = np.asarray(t_hat)
    return np.where(t_hat >= 0, 1, -1)


def digital_elm_hidden(rng: RngStream, n_hidden: int, d: int,
                       low: float = 0.0, high: float = 1.0) -> DigitalLayer:
    """Random dense hidden layer for the digital-ELM baseline.

    Weights (bias column included) are i.i.d. Uniform[low, high]; the
    default support is [0, 1].  See the experiment harness for why sweeps
    default to the symmetric range [-1, 1] instead.
    """
    if n_hidden < 1 or d < 0:
        raise ConfigError(f"bad layer size n_hidden={n_hidden}, d={d}")
    if not low < high:
        raise ConfigError(f"need low < high, got [{low}, {high}]")
    w = rng.uniform(low, high, (n_hidden, d + 1))
    return DigitalLayer(weights=w)


def online_update(model: ElmModel, h_real_k: np.ndarray, data, gamma: float,
                  batch_size: int, n_iters: int, rng: RngStream,
                  noise_rng: RngStream = None, early_stop_tol: float = None,
                  callback=None) -> ElmModel:
    """Mini-batch re-training under an aged channel.

    Starting from the previous frame's combiner, repeat n_iters times: draw
    an index set S of batch_size training points uniformly without
    replacement, solve the small LS problem w_S* = G_S^+ t_S under the new
    channel, and take w <- w + gamma * w_S*.  Sampling is independent across
    iterations; indices are sorted within an iteration, so batch_size = D
    makes one iteration exactly w + gamma * w*.

    callback(i, model), when given, sees the model after iteration i
    (0-based); early_stop_tol stops once ||delta w|| / ||w|| drops below it.
    """
    if model.hidden is None or isinstance(model.hidden, DigitalLayer):
        raise ConfigError("online_update needs a channel-backed fitted model")
    if not (0.0 < gamma < 1.0):
        raise ConfigError(f"gamma must lie in (0, 1), got {gamma}")
    d_tr = data.x_train.shape[0]
    if not (1 <= batch_size <= d_tr):
        raise ConfigError(
            f"batch_size must lie in [1, {d_tr}], got {batch_size}")
    layer_k = replace(model.hidden, h_real=np.asarray(h_real_k, dtype=float))
    w = model.w
    for i in range(n_iters):
        idx = np.sort(rng.choice(d_tr, batch_size, replace=False))
        g_s = hidden_matrix(layer_k, data.x_train[idx], noise_rng)
        w_s = min_norm_lstsq(g_s, data.t_train[idx])
        delta = gamma * w_s
        w = w + delta
        model = ElmModel(w=w, hidden=layer_k,
                         train_residual=float("nan"),
                         receive_power=float(w @ w))
        if callback is not None:
            callback(i, model)
        if early_stop_tol is not None:
            wn = float(np.linalg.norm(w))
            if wn > 0 and float(np.linalg.norm(delta)) / wn < early_stop_tol:
                break
    return model
