import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from airelm.activation import (
    DEFAULT_RAPP,
    RappParams,
    rapp,
    rapp_deriv,
    rapp_peak,
    rapp_vec,
    sigmoid,
)
from airelm.errors import ConfigError


def test_rapp_at_zero():
    assert rapp(0.0) == 0.0


def test_rapp_at_saturation_point():
    # y = y_sat: y_sat / (1 + 1) = y_sat / 2
    assert rapp(1.5) == pytest.approx(0.75, abs=1e-15)
    assert rapp(1.0, RappParams(y_sat=1.0, alpha=2)) == pytest.approx(0.5, abs=1e-15)


def test_rapp_vec_matches_scalar():
    ys = np.linspace(-5, 5, 41)
    out = rapp_vec(ys)
    for y, g in zip(ys, out):
        assert g == rapp(float(y))
    assert out.shape == ys.shape


def test_rapp_vec_preserves_shape():
    y = np.ones((3, 4, 2))
    assert rapp_vec(y).shape == (3, 4, 2)


def test_rapp_peak_default():
    y_star, g_star = rapp_peak(DEFAULT_RAPP)
    assert y_star == pytest.approx(1.5, abs=1e-12)
    assert g_star == pytest.approx(0.75, abs=1e-12)


def test_rapp_peak_alpha4():
    p = RappParams(y_sat=2.0, alpha=4)
    y_star, g_star = rapp_peak(p)
    assert y_star == pytest.approx(2.0 * 3.0 ** -0.25, rel=1e-12)
    assert g_star == pytest.approx(0.5 * 3.0 ** 0.75, rel=1e-12)


@pytest.mark.parametrize("params", [DEFAULT_RAPP, RappParams(1.0, 2), RappParams(0.7, 4), RappParams(3.0, 6)])
def test_rapp_peak_against_grid_search(params):
    """Closed-form peak vs brute force on a fine grid."""
    ys = np.linspace(0.0, 10.0 * params.y_sat, 2_000_001)
    gs = rapp_vec(ys, params)
    k = int(np.argmax(gs))
    y_star, g_star = rapp_peak(params)
    assert abs(ys[k] - y_star) < 1e-3
    assert abs(gs[k] - g_star) < 1e-3
    # grid never beats the analytic optimum
    assert gs[k] <= g_star + 1e-12


def test_rapp_deriv_matches_finite_difference():
    rng = np.random.default_rng(2)
    ys = rng.uniform(-10, 10, size=1000)
    h = 1e-6
    for y in ys:
        fd = (rapp(y + h) - rapp(y - h)) / (2 * h)
        an = rapp_deriv(y)
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_rapp_deriv_zero_at_peak():
    y_star, _ = rapp_peak(DEFAULT_RAPP)
    assert rapp_deriv(y_star) == pytest.approx(0.0, abs=1e-12)


def test_rapp_odd_exact():
    ys = np.linspace(-20, 20, 1001)
    assert np.array_equal(rapp_vec(-ys), -rapp_vec(ys))


def test_rapp_bounded_by_peak():
    rng = np.random.default_rng(4)
    ys = rng.uniform(-1e6, 1e6, size=100_000)
    _, g_star = rapp_peak(DEFAULT_RAPP)
    assert np.all(np.abs(rapp_vec(ys)) <= g_star + 1e-12)


def test_rapp_vanishing_tails():
    for y in [1e4 + 1, 3e4, -2e5, 1e6]:
        assert abs(rapp(y)) < 1e-3


def test_rapp_is_nonlinear():
    a, b = 1.0, 2.0
    assert rapp(a + b) != pytest.approx(rapp(a) + rapp(b), abs=1e-6)


@given(st.floats(min_value=-1e8, max_value=1e8, allow_nan=False))
def test_rapp_odd_and_bounded_property(y):
    g = rapp(y)
    assert rapp(-y) == -g
    assert abs(g) <= 0.75 + 1e-12


def test_rapp_params_validation():
    with pytest.raises(ConfigError):
        RappParams(y_sat=0.0, alpha=2)
    with pytest.raises(ConfigError):
        RappParams(y_sat=-1.0, alpha=2)
    with pytest.raises(ConfigError):
        RappParams(y_sat=1.0, alpha=3)
    with pytest.raises(ConfigError):
        RappParams(y_sat=1.0, alpha=0)
    with pytest.raises(ConfigError):
        RappParams(y_sat=1.0, alpha=2.5)


# ------------------------------------------------------------ sigmoid

def test_sigmoid_examples():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)


def test_sigmoid_overflow_safe():
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
    assert sigmoid(1000.0) == 1.0
    big = sigmoid(np.array([-750.0, 750.0]))
    assert np.all(np.isfinite(big))


def test_sigmoid_monotone():
    xs = np.linspace(-30, 30, 500)
    assert np.all(np.diff(sigmoid(xs)) >= 0)


def test_sigmoid_scalar_returns_float():
    assert isinstance(sigmoid(0.3), float)


# ------------------------------------------- in-place forms, bit for bit

def _textbook_sigmoid(x):
    """The two-branch form the in-place sigmoid replaced."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_FIXED_INPUTS = [
    np.array([0.0, -0.0, 1e-320, -1e-320, 0.5, -0.5, 36.7, -36.7, 709.0,
              -709.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308]),
    np.random.default_rng(7).normal(0.0, 5.0, (37, 19)),
    np.random.default_rng(8).uniform(-1e6, 1e6, (3, 4, 5)),
    np.array(-0.0),
    np.array(2.5),
    np.zeros((0, 3)),
]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("x", _FIXED_INPUTS)
def test_sigmoid_equals_two_branch_form_bit_for_bit(x):
    with np.errstate(over="ignore"):
        assert np.array_equal(_bits(sigmoid(x)), _bits(_textbook_sigmoid(x)))


@pytest.mark.parametrize("x", _FIXED_INPUTS)
@pytest.mark.parametrize("params", [DEFAULT_RAPP, RappParams(1.0, 4),
                                    RappParams(0.7, 6)])
def test_rapp_vec_equals_direct_formula_bit_for_bit(x, params):
    with np.errstate(over="ignore"):
        direct = x / (1.0 + (x / params.y_sat) ** params.alpha)
        got = rapp_vec(x, params)
    assert np.array_equal(_bits(got), _bits(direct))
    assert type(got) is type(direct)     # a 0-d input gives a numpy scalar
