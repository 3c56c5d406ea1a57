"""Ricean/Rayleigh XL-MIMO channel simulation.

Implements the fading model

    H = sqrt(kappa/(1+kappa)) H_LoS + sqrt(1/(1+kappa)) H_NLoS

with a rank-one uniform-linear-array line-of-sight component and i.i.d.
CN(0,1) scattering, first-order AR time evolution, AWGN application, and
receive-SNR calibration.  The learner consumes only the element-wise real
part H^r of the complex channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, shown
from .numkernel import sample_cgaussian
from .rng import RngStream


@dataclass(frozen=True)
class RiceanConfig:
    n_r: int
    n_t: int
    kappa: float = 0.0
    los_angle_rx: float = 0.0
    los_angle_tx: float = 0.0

    def __post_init__(self):
        if self.n_r < 1 or self.n_t < 1:
            raise ConfigError(f"antenna counts must be >= 1, got "
                              f"{shown(self.n_r)}x{shown(self.n_t)}")
        if not 0.0 <= self.kappa < math.inf:
            raise ConfigError(
                f"kappa must be finite and >= 0, got {self.kappa}")
        for angle in (self.los_angle_rx, self.los_angle_tx):
            if not math.isfinite(angle):
                raise ConfigError(f"LoS angles must be finite, got {angle}")


@dataclass(frozen=True)
class ArConfig:
    """First-order autoregressive channel-aging coefficient, eta in (0, 1]."""

    eta: float = 0.9

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise ConfigError(f"eta must lie in (0, 1], got {self.eta}")


@dataclass(frozen=True)
class NoiseModel:
    """Complex AWGN power sigma^2; the real-part noise seen by the learner
    is N(0, sigma^2 / 2).  sigma2 = 0 means noiseless."""

    sigma2: float = 0.0

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ConfigError(f"sigma2 must be >= 0, got {self.sigma2}")


NOISELESS = NoiseModel(0.0)

# Entries per row block in `signal_power` and `elm.hidden_matrix`: their
# temporaries are one block, not one D x N_r array, each.
BLOCK_ENTRIES = 1 << 15


def steering_vector(n: int, theta: float) -> np.ndarray:
    """ULA steering vector, half-wavelength spacing: element m has phase
    exp(i pi m sin(theta)), m = 0..n-1; every entry has unit modulus."""
    m = np.arange(n)
    return np.exp(1j * np.pi * m * np.sin(theta))


def los_matrix(cfg: RiceanConfig) -> np.ndarray:
    """Deterministic rank-one LoS component a_r(theta_rx) a_t(theta_tx)^H."""
    a_r = steering_vector(cfg.n_r, cfg.los_angle_rx)
    a_t = steering_vector(cfg.n_t, cfg.los_angle_tx)
    return np.outer(a_r, a_t.conj())


def ricean_mix(kappa: float):
    """The two power-split multipliers (LoS, NLoS); their squares sum to 1."""
    return np.sqrt(kappa / (1.0 + kappa)), np.sqrt(1.0 / (1.0 + kappa))


def sample_ricean(cfg: RiceanConfig, rng: RngStream) -> np.ndarray:
    """Draw one complex Ricean fading realization H at the configured kappa,
    with unit power per entry; the learner uses its real part H.real."""
    h_nlos = sample_cgaussian(rng, cfg.n_r, cfg.n_t)
    if cfg.kappa == 0.0:    # c_LoS = 0 and c_NLoS = 1 leave its bits as drawn
        return h_nlos
    c_los, c_nlos = ricean_mix(cfg.kappa)
    return c_los * los_matrix(cfg) + c_nlos * h_nlos


def evolve_ar(h_prev: np.ndarray, cfg: ArConfig, rng: RngStream) -> np.ndarray:
    """One AR(1) step H(k) = eta H(k-1) + (1 - eta) Theta(k), Theta ~ CN(0, I).

    Applied to the full complex matrix exactly as written (the LoS mean decays
    along with everything else, and the stationary variance shrinks since
    eta^2 + (1-eta)^2 < 1 for eta in (0,1); both follow from taking the
    recursion literally).  At eta = 1 it is 1 H + 0 Theta: H bit for bit for
    a finite H with no -0 part, as a sampled H is.  The innovation is drawn
    from `rng` at every eta, so stream consumption is uniform.
    """
    theta = sample_cgaussian(rng, *h_prev.shape)
    return cfg.eta * h_prev + (1.0 - cfg.eta) * theta


def receive(h_real: np.ndarray, x_tilde: np.ndarray) -> np.ndarray:
    """Noiseless receive block x~ (H^r)^T of a transmit block x~, one
    transmit vector per row; a digital layer's W serves as H^r."""
    h_real = np.asarray(h_real, dtype=float)
    x = np.asarray(x_tilde, dtype=float)
    if x.ndim != 2 or h_real.shape[1] != x.shape[1]:
        raise ValueError(
            f"receive: the layer matrix (H^r or W) has {h_real.shape[1]} "
            f"columns but x~ has shape {x.shape}")
    return x @ h_real.T


def add_noise(y: np.ndarray, noise: NoiseModel,
              rng: RngStream = None) -> np.ndarray:
    """y + n_r with n_r ~ N(0, sigma^2/2) i.i.d., drawn for all of y in one
    call (row-major, so row by row), in the noise draw's own buffer; y is
    left as it is.  A noiseless model returns y itself.
    """
    if noise.sigma2 == 0.0:
        return y
    if rng is None:
        raise ValueError("add_noise: finite-SNR noise needs an RngStream")
    n = rng.normal(0.0, np.sqrt(noise.sigma2 / 2.0), y.shape)
    return np.add(n, y, out=n)


def row_blocks(shape) -> list:
    """Slices of consecutive rows that cover an array of this shape, each
    of about BLOCK_ENTRIES entries (at least one row)."""
    step = max(1, BLOCK_ENTRIES // max(1, math.prod(shape[1:])))
    return [slice(a, a + step) for a in range(0, shape[0], step)]


def signal_power(r: np.ndarray) -> float:
    """P_sig of a receive block r, one receive vector per row: the average
    per-antenna received signal power mean_i ||r_i||^2 / N_r.  The squares
    are summed row block by row block, each row as the whole block would
    sum it.  A ValueError for an empty block or one that is not 2-D, and
    when the power is 0 or overflows."""
    if r.ndim != 2 or r.size == 0:
        raise ValueError(f"signal_power: needs a non-empty 2-D receive "
                         f"block, got shape {r.shape}")
    sums = np.empty(len(r))
    with np.errstate(over="ignore"):
        for rows in row_blocks(r.shape):
            np.sum(r[rows] ** 2, axis=1, out=sums[rows])
    p_sig = np.mean(sums) / r.shape[1]
    if not 0.0 < p_sig < math.inf:
        raise ValueError(f"signal_power: P_sig = {p_sig} is not a positive "
                         "finite float")
    return p_sig


def noise_for_snr(p_sig: float, snr_db: float) -> NoiseModel:
    """The noise that puts signal power p_sig at snr_db at the receiver:
    sigma^2 = p_sig / 10^(snr_db/10).  snr_db = +inf is noiseless and
    leaves p_sig unused.  A ConfigError names snr_db when 10^(snr_db/10)
    is not a positive finite float, or when sigma^2 overflows."""
    if snr_db == math.inf:
        return NOISELESS
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ConfigError(f"snr_db must be inf or a number whose "
                          f"10^(snr_db/10) is a positive finite float, "
                          f"got {snr_db}")
    sigma2 = float(p_sig) / ratio
    if sigma2 == math.inf:
        raise ConfigError(f"the noise power at snr_db = {snr_db} overflows "
                          f"float64; raise snr_db")
    return NoiseModel(sigma2)


def sigma2_for_snr(h_real: np.ndarray, x_tilde_set, snr_db: float) -> float:
    """Noise power hitting a target receive SNR over the given transmit
    vectors: `noise_for_snr` at their `signal_power` under h_real.
    snr_db = +inf gives exactly 0."""
    return noise_for_snr(signal_power(receive(h_real, x_tilde_set)),
                         snr_db).sigma2
