import numpy as np
import pytest

from airelm.channel import (
    ArConfig,
    NOISELESS,
    NoiseModel,
    RiceanConfig,
    add_noise,
    evolve_ar,
    los_matrix,
    receive,
    ricean_mix,
    sample_ricean,
    sigma2_for_snr,
    signal_power,
    steering_vector,
)
from airelm.errors import ConfigError
from airelm.numkernel import sample_cgaussian
from airelm.rng import RngStream


# ----------------------------------------------------------- geometry

def test_steering_vector_broadside():
    a = steering_vector(4, 0.0)
    assert np.allclose(a, np.ones(4))


def test_steering_vector_endfire():
    # theta = pi/2: element m carries phase pi*m
    a = steering_vector(4, np.pi / 2)
    assert np.allclose(a, [1, -1, 1, -1], atol=1e-12)


def test_los_matrix_example():
    cfg = RiceanConfig(n_r=2, n_t=2, los_angle_rx=np.pi / 2, los_angle_tx=0.0)
    h = los_matrix(cfg)
    assert np.allclose(h, [[1, 1], [-1, -1]], atol=1e-12)


def test_los_matrix_rank_one():
    cfg = RiceanConfig(n_r=6, n_t=5, los_angle_rx=0.4, los_angle_tx=-0.7)
    h = los_matrix(cfg)
    s = np.linalg.svd(h, compute_uv=False)
    assert s[0] > 1e-6
    assert np.all(s[1:] < 1e-10)


def test_los_matrix_unit_modulus():
    cfg = RiceanConfig(n_r=4, n_t=4, los_angle_rx=1.1, los_angle_tx=0.3)
    h = los_matrix(cfg)
    assert np.allclose(np.abs(h), 1.0)


# ---------------------------------------------------------- mixing

def test_ricean_mix_extremes():
    a, b = ricean_mix(0.0)
    assert (a, b) == (0.0, 1.0)
    a, b = ricean_mix(1e12)
    assert a == pytest.approx(1.0, abs=1e-6)
    assert b == pytest.approx(0.0, abs=1e-6)


def test_ricean_mix_equal_split():
    a, b = ricean_mix(1.0)
    assert a == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert b == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_ricean_mix_preserves_power():
    for kappa in [0.0, 0.3, 1.0, 10.0, 100.0]:
        a, b = ricean_mix(kappa)
        assert a * a + b * b == pytest.approx(1.0, rel=1e-12)


# --------------------------------------------------------- sampling

def test_rayleigh_entry_variance():
    cfg = RiceanConfig(n_r=300, n_t=334, kappa=0.0)
    h = sample_ricean(cfg, RngStream(10).split(1))
    power = (np.abs(h) ** 2).mean()
    assert abs(power - 1.0) < 0.03


def test_strong_los_approaches_deterministic():
    cfg = RiceanConfig(n_r=8, n_t=8, kappa=1e12)
    h = sample_ricean(cfg, RngStream(11).split(1))
    assert np.allclose(h, np.ones((8, 8)), atol=1e-4)


def test_channel_has_unit_power():
    """E|h|^2 = 1 at any kappa: the channel carries no path loss, and
    y_sat alone sets the signal level at the Rapp knee."""
    for kappa in (0.0, 10.0):
        cfg = RiceanConfig(n_r=300, n_t=334, kappa=kappa)
        h = sample_ricean(cfg, RngStream(12).split(1))
        power = (np.abs(h) ** 2).mean()
        assert abs(power - 1.0) < 0.03, kappa


def test_h_real_is_real_part():
    cfg = RiceanConfig(n_r=4, n_t=3, kappa=2.0)
    h = sample_ricean(cfg, RngStream(13).split(1))
    assert h.dtype.kind == "c"
    assert h.real.dtype.kind == "f"


def test_sample_ricean_deterministic():
    cfg = RiceanConfig(n_r=5, n_t=5, kappa=1.0)
    a = sample_ricean(cfg, RngStream(14).split(1))
    b = sample_ricean(cfg, RngStream(14).split(1))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kappa, angles", [
    (0.0, (0.0, 0.0)), (0.0, (0.4, -0.7)), (2.0, (0.0, 0.0)),
    (2.0, (0.4, -0.7))])
def test_sample_ricean_is_the_mix_formula_bit_for_bit(kappa, angles):
    """c_LoS H_LoS + c_NLoS H_NLoS over the same stream, to the bit: at
    kappa = 0, where no LoS term is formed, as at kappa > 0."""
    cfg = RiceanConfig(n_r=64, n_t=9, kappa=kappa, los_angle_rx=angles[0],
                       los_angle_tx=angles[1])
    c_los, c_nlos = ricean_mix(kappa)
    expected = (c_los * los_matrix(cfg) + c_nlos
                * sample_cgaussian(RngStream(15).split(1), cfg.n_r, cfg.n_t))
    h = sample_ricean(cfg, RngStream(15).split(1))
    assert h.dtype == np.complex128 and h.shape == expected.shape
    assert np.array_equal(h.view(np.int64), expected.view(np.int64))


def test_ricean_config_validation():
    with pytest.raises(ConfigError):
        RiceanConfig(n_r=0, n_t=2)
    with pytest.raises(ConfigError):
        RiceanConfig(n_r=2, n_t=2, kappa=-0.5)


# ---------------------------------------------------------- AR drift

def _zeros_channel(n=16):
    return np.zeros((n, n), dtype=complex)


def test_ar_eta_one_is_bit_exact_identity():
    cfg = RiceanConfig(n_r=6, n_t=6, kappa=0.0)
    h0 = sample_ricean(cfg, RngStream(20).split(1))
    h1 = evolve_ar(h0, ArConfig(eta=1.0), RngStream(20).split(6))
    assert np.array_equal(h1, h0)


def test_ar_eta_one_still_consumes_innovation():
    """The innovation draw happens whether or not it is used, so the
    stream position after a frozen step matches a moving step."""
    s1 = RngStream(21).split(6)
    s2 = RngStream(21).split(6)
    evolve_ar(_zeros_channel(4), ArConfig(eta=1.0), s1)
    evolve_ar(_zeros_channel(4), ArConfig(eta=0.9), s2)
    assert np.array_equal(s1.normal(size=8), s2.normal(size=8))


def test_ar_innovation_variance_from_rest():
    # one step from H = 0: entries are (1 - eta) * theta
    h1 = evolve_ar(_zeros_channel(100), ArConfig(eta=0.9), RngStream(22).split(6))
    power = (np.abs(h1) ** 2).mean()
    assert abs(power - 0.01) < 0.0005


def test_ar_correlation_monotone_in_eta():
    cfg = RiceanConfig(n_r=100, n_t=100, kappa=0.0)
    corrs = []
    for eta in [0.5, 0.9, 0.99]:
        h0 = sample_ricean(cfg, RngStream(23).split(1))
        h1 = evolve_ar(h0, ArConfig(eta=eta), RngStream(23).split(6))
        a = h0.real.ravel()
        b = h1.real.ravel()
        corrs.append(np.corrcoef(a, b)[0, 1])
    assert corrs[0] < corrs[1] < corrs[2]


def test_ar_config_validation():
    with pytest.raises(ConfigError):
        ArConfig(eta=0.0)
    with pytest.raises(ConfigError):
        ArConfig(eta=1.1)
    ArConfig(eta=1.0)  # boundary allowed


# ------------------------------------------------------- application
# the channel is applied as `add_noise` on the `receive` block

def test_receive_noiseless():
    y = receive(np.eye(2), np.array([[3.0, 4.0]]))
    assert np.array_equal(y, [[3.0, 4.0]])
    assert add_noise(y, NOISELESS) is y


def test_receive_matmul():
    h = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 0.0]])
    y = receive(h, np.array([[1.0, 1.0]]))
    assert np.allclose(y, [[3.0, 1.0, 1.0]])


def test_receive_rejects_a_dimension_mismatch_or_a_single_vector():
    """x~ is a 2-D transmit block, one vector per row, as wide as H^r."""
    for x in (np.ones((1, 3)), np.ones(2), np.ones((1, 1, 2))):
        with pytest.raises(ValueError, match="x~ has shape"):
            receive(np.eye(2), x)


def test_add_noise_requires_rng():
    with pytest.raises(ValueError):
        add_noise(np.ones((1, 2)), NoiseModel(sigma2=0.1))


def test_add_noise_perturbs():
    x = np.ones((1, 4))
    y = receive(np.eye(4), x)
    noisy = add_noise(y, NoiseModel(sigma2=0.5), RngStream(30).split(2))
    assert not np.array_equal(noisy, x)
    assert np.all(np.isfinite(noisy))
    assert np.array_equal(y, x)     # the receive block is left as it is


def test_receive_batch_one_row_per_vector():
    rng = RngStream(31)
    h = rng.normal(size=(5, 3))
    xs = rng.normal(size=(4, 3))
    y = receive(h, xs)
    assert y.shape == (4, 5)
    for i in range(4):
        assert np.allclose(y[i], receive(h, xs[i:i + 1])[0], atol=1e-13)
    with pytest.raises(ValueError):
        receive(h, np.ones((4, 5)))
    # one draw of N(0, sigma^2/2) noise for the whole batch, row by row
    noisy = add_noise(y, NoiseModel(sigma2=0.5), RngStream(32))
    assert np.array_equal(noisy, xs @ h.T + RngStream(32).normal(0.0, 0.5, (4, 5)))


def test_noise_model_flags():
    """sigma2 = 0, and only it, is noiseless: add_noise returns y itself."""
    y = np.ones((2, 3))
    assert NOISELESS == NoiseModel(sigma2=0.0)
    assert add_noise(y, NoiseModel(sigma2=0.0)) is y
    assert add_noise(y, NoiseModel(sigma2=1e-300), RngStream(0)) is not y
    with pytest.raises(ConfigError):
        NoiseModel(sigma2=-1.0)


# ----------------------------------------------------- snr calibration

def test_sigma2_unit_power_examples():
    h = np.eye(2)
    xs = np.array([[1.0, 1.0]])  # received power 1 per antenna
    assert sigma2_for_snr(h, xs, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert sigma2_for_snr(h, xs, 10.0) == pytest.approx(0.1, rel=1e-12)
    assert sigma2_for_snr(h, xs, 3.0) == pytest.approx(10 ** -0.3, rel=1e-12)


def test_sigma2_decade_identity():
    # adding 10 dB divides sigma2 by 10 (up to 1 ulp at fractional snr)
    h = np.eye(2)
    xs = np.array([[1.0, 1.0]])
    for s in [0.0, 3.0, 10.0, 13.0, -7.0]:
        a = sigma2_for_snr(h, xs, s + 10.0)
        b = sigma2_for_snr(h, xs, s) / 10.0
        assert a == pytest.approx(b, rel=1e-12)


def test_sigma2_infinite_snr_is_zero():
    h = np.eye(2)
    xs = np.array([[1.0, 1.0]])
    assert sigma2_for_snr(h, xs, np.inf) == 0.0


def test_signal_power_needs_a_nonempty_2d_block():
    for r in (np.ones(3), np.ones((0, 2)), np.ones((2, 0))):
        with pytest.raises(ValueError, match="non-empty 2-D receive block"):
            signal_power(r)


def test_sigma2_zero_signal_rejected():
    """A zero or overflowing P_sig is a library error: no config reaches it,
    since H has unit power and the training block is standardized."""
    for x in (np.zeros((3, 2)), np.full((3, 2), 1e200)):
        with pytest.raises(ValueError, match="signal_power: P_sig") as err:
            sigma2_for_snr(np.eye(2), x, 10.0)
        assert not isinstance(err.value, ConfigError)
