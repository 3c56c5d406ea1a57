"""Activation functions: the Rapp soft threshold and the sigmoid baseline.

The Rapp curve g(y) = y / (1 + (y/y_sat)^alpha) models the soft saturation
of an analog nonlinearity.  With even alpha it is odd, peaks at a finite
value, and decays back to zero for |y| -> inf, which is what gives the
random-feature map its expressive power at large input scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class RappParams:
    """Saturation threshold and smoothness exponent of the analog activation.

    alpha must be an even integer >= 2: odd exponents put a pole on the
    negative axis (denominator 1 + (y/y_sat)^alpha vanishes) and break the
    odd symmetry that lets the curve mimic a sigmoid over negative inputs.
    """

    y_sat: float = 1.5
    alpha: int = 2

    def __post_init__(self):
        if not self.y_sat > 0:
            raise ConfigError(f"y_sat must be positive, got {self.y_sat!r}")
        a = self.alpha
        if not (isinstance(a, (int, np.integer)) and a >= 2 and a % 2 == 0):
            raise ConfigError(
                f"alpha must be an even integer >= 2, got {a!r}")


DEFAULT_RAPP = RappParams()


def rapp(y: float, p: RappParams = DEFAULT_RAPP) -> float:
    """Scalar Rapp soft threshold g(y) = y / (1 + (y/y_sat)^alpha)."""
    return float(y / (1.0 + (y / p.y_sat) ** p.alpha))


def rapp_vec(y: np.ndarray, p: RappParams = DEFAULT_RAPP) -> np.ndarray:
    """Element-wise Rapp activation; shape preserved.

    The denominator is built in one buffer that then takes the result, so
    the call allocates one array the size of y.
    """
    y = np.asarray(y, dtype=float)
    den = np.divide(y, p.y_sat, out=np.empty_like(y))
    den **= p.alpha
    den += 1.0
    np.divide(y, den, out=den)
    return den if den.ndim else den[()]


def rapp_deriv(y: np.ndarray, p: RappParams = DEFAULT_RAPP) -> np.ndarray:
    """Analytic derivative dg/dy.

    dg/dy = y_sat^a (y_sat^a + (1 - a) y^a) / (y_sat^a + y^a)^2  with a = alpha.
    """
    y = np.asarray(y, dtype=float)
    a = p.alpha
    ys_a = p.y_sat ** a
    y_a = y ** a
    return ys_a * (ys_a + (1 - a) * y_a) / (ys_a + y_a) ** 2


def rapp_peak(p: RappParams = DEFAULT_RAPP):
    """Location and value of the positive maximum of the Rapp curve.

    y_star = y_sat (alpha - 1)^(-1/alpha),
    g_star = (y_sat / alpha) (alpha - 1)^(1 - 1/alpha).
    At the defaults (y_sat=1.5, alpha=2) this is (1.5, 0.75); |rapp| never
    exceeds g_star anywhere on the real line.
    """
    a = p.alpha
    y_star = p.y_sat * (a - 1) ** (-1.0 / a)
    g_star = (p.y_sat / a) * (a - 1) ** (1.0 - 1.0 / a)
    return y_star, g_star


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), overflow-safe for any finite x.

    With e = exp(-|x|), which never overflows, it is 1 / (1 + e) for
    x >= 0 and e / (1 + e) below; both halves are computed in place.
    """
    x = np.asarray(x, dtype=float)
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    if out.ndim == 0:
        return float(out)
    return out
