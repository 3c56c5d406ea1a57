"""Activation functions: the Rapp soft threshold and the sigmoid baseline.

The Rapp curve g(y) = y / (1 + (y/y_sat)^alpha) models the soft saturation
of an analog nonlinearity.  With even alpha it is odd, peaks at a finite
value, and decays back to zero for |y| -> inf, which is what gives the
random-feature map its expressive power at large input scale.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, shown


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
        # numpy raises its power to a float64, so alpha must fit one
        if not (isinstance(a, (int, np.integer)) and a % 2 == 0
                and 2 <= a <= sys.float_info.max):
            raise ConfigError(f"alpha must be an even integer >= 2 that a "
                              f"float64 holds, got {shown(a)}")


DEFAULT_RAPP = RappParams()


def rapp(y: float, p: RappParams = DEFAULT_RAPP) -> float:
    """Scalar Rapp soft threshold g(y) = y / (1 + (y/y_sat)^alpha): the
    float of `rapp_vec` at y."""
    return float(rapp_vec(y, p))


def rapp_vec(y: np.ndarray, p: RappParams = DEFAULT_RAPP,
             out: np.ndarray = None) -> np.ndarray:
    """Element-wise Rapp activation; shape preserved.

    The denominator is built in one buffer that then takes the result, so
    the call allocates one array the size of y; given out (which may be y
    itself), the result goes there and that buffer is only a temporary.
    """
    y = np.asarray(y, dtype=float)
    # an overflowing denominator gives the curve's exact limit, +-0
    with np.errstate(over="ignore"):
        den = np.divide(y, p.y_sat, out=np.empty_like(y))
        den **= p.alpha
    den += 1.0
    out = np.divide(y, den, out=den if out is None else out)
    return out if out.ndim else out[()]


def rapp_deriv(y: np.ndarray, p: RappParams = DEFAULT_RAPP) -> np.ndarray:
    """Analytic derivative dg/dy = r (1 - alpha (1 - r)), where
    r = 1 / (1 + (y/y_sat)^alpha), so g = y r."""
    y = np.asarray(y, dtype=float)
    # an overflowing power gives r = 0 and the derivative's limit, -0
    with np.errstate(over="ignore"):
        r = 1.0 / (1.0 + (y / p.y_sat) ** p.alpha)
    return r * (1.0 - p.alpha * (1.0 - r))


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


def sigmoid(x, out: np.ndarray = None):
    """Logistic function 1 / (1 + exp(-x)), overflow-safe for any finite x.

    With e = exp(-|x|), which never overflows, it is 1 / (1 + e) for
    x >= 0 and e / (1 + e) below.  The numerator exp(min(x, 0)) is exactly
    1 for x >= 0 and exactly e below, without a per-element select.  The
    result goes to out, which may be x itself, or else to a new array.
    """
    x = np.asarray(x, dtype=float)
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.minimum(x, 0.0, out=np.empty_like(x) if out is None else out)
    np.exp(out, out=out)
    e += 1.0
    out /= e
    return float(out) if out.ndim == 0 else out
