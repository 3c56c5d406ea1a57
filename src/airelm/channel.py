"""Ricean/Rayleigh XL-MIMO channel simulation.

Implements the fading model

    H = sqrt(kappa/(1+kappa)) sqrt(P_L) H_LoS + sqrt(1/(1+kappa)) sqrt(P_L) H_NLoS

with a rank-one uniform-linear-array line-of-sight component and i.i.d.
CN(0,1) scattering, first-order AR time evolution, AWGN application, and
receive-SNR calibration.  The learner consumes only the element-wise real
part H^r of the complex channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numkernel import sample_cgaussian
from .rng import RngStream


@dataclass(frozen=True)
class RiceanConfig:
    n_r: int
    n_t: int
    kappa: float = 0.0
    pathloss: float = 1.0
    los_angle_rx: float = 0.0
    los_angle_tx: float = 0.0

    def __post_init__(self):
        if self.n_r < 1 or self.n_t < 1:
            raise ConfigError(f"antenna counts must be >= 1, got {self.n_r}x{self.n_t}")
        if not 0.0 <= self.kappa < math.inf:
            raise ConfigError(
                f"kappa must be finite and >= 0, got {self.kappa}")
        if not 0.0 < self.pathloss < math.inf:
            raise ConfigError(
                f"pathloss must be finite and > 0, got {self.pathloss}")
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

    @property
    def noiseless(self) -> bool:
        return self.sigma2 == 0.0


NOISELESS = NoiseModel(0.0)


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
    """Draw one complex Ricean fading realization H at the configured kappa
    and pathloss; the learner uses its real part H.real."""
    c_los, c_nlos = ricean_mix(cfg.kappa)
    h_nlos = sample_cgaussian(rng, cfg.n_r, cfg.n_t)
    root_pl = np.sqrt(cfg.pathloss)
    return c_los * root_pl * los_matrix(cfg) + c_nlos * root_pl * h_nlos


def evolve_ar(h_prev: np.ndarray, cfg: ArConfig, rng: RngStream) -> np.ndarray:
    """One AR(1) step H(k) = eta H(k-1) + (1 - eta) Theta(k), Theta ~ CN(0, I).

    Applied to the full complex matrix exactly as written (the LoS mean decays
    along with everything else, and the stationary variance shrinks since
    eta^2 + (1-eta)^2 < 1 for eta in (0,1); both follow from taking the
    recursion literally).  eta = 1 is a bit-exact identity.  The innovation is
    drawn from `rng` regardless of eta, so stream consumption is uniform.
    """
    theta = sample_cgaussian(rng, *h_prev.shape)
    if cfg.eta == 1.0:
        return h_prev
    return cfg.eta * h_prev + (1.0 - cfg.eta) * theta


def apply_channel(h_real: np.ndarray, x_tilde: np.ndarray, noise: NoiseModel,
                  rng: RngStream = None) -> np.ndarray:
    """Receive vector y~ = H^r x~ + n_r with n_r ~ N(0, sigma^2/2) i.i.d.

    x_tilde is one transmit vector or a batch of them, one per row; a batch
    gives one receive vector per row, x~ (H^r)^T plus noise drawn for the
    whole batch in one call (row-major, so row by row).
    """
    h_real = np.asarray(h_real, dtype=float)
    x = np.asarray(x_tilde, dtype=float)
    if x.ndim not in (1, 2) or h_real.shape[1] != x.shape[-1]:
        raise ValueError(
            f"apply_channel: H^r has {h_real.shape[1]} columns but x~ has "
            f"shape {x.shape}")
    y = x @ h_real.T
    if not noise.noiseless:
        if rng is None:
            raise ValueError("apply_channel: finite-SNR noise needs an RngStream")
        y += rng.normal(0.0, np.sqrt(noise.sigma2 / 2.0), y.shape)
    return y


def sigma2_for_snr(h_real: np.ndarray, x_tilde_set, snr_db: float) -> float:
    """Noise power hitting a target receive SNR.

    P_sig is the average per-antenna received signal power over the given
    transmit vectors, mean_i ||H^r x~_i||^2 / N_r; the returned noise power
    is sigma^2 = P_sig / 10^(snr_db/10).  snr_db = +inf gives exactly 0.
    """
    h_real = np.asarray(h_real, dtype=float)
    xs = np.atleast_2d(np.asarray(x_tilde_set, dtype=float))
    if xs.size == 0:
        raise ValueError("sigma2_for_snr: empty transmit-vector set")
    n_r = h_real.shape[0]
    p_sig = np.mean(np.sum((xs @ h_real.T) ** 2, axis=1)) / n_r
    if p_sig == 0.0:
        raise ValueError("sigma2_for_snr: all-zero signal set, SNR undefined")
    if np.isposinf(snr_db):
        return 0.0
    return float(p_sig / 10.0 ** (snr_db / 10.0))
