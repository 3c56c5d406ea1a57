import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airelm.rng import (
    RngStream,
    SUB_CHANNEL,
    SUB_SPLIT,
    SUB_TRAIN_NOISE,
    SUB_TEST_NOISE,
    SUB_DIGITAL,
    SUB_MINIBATCH,
    SUB_AR,
    SUB_SYNTH,
    SUB_FEATSEL,
)
from airelm import numkernel
from airelm.numkernel import (
    DEFAULT_REL_TOL,
    GRAM_MAX_COND,
    min_norm_lstsq,
    pseudoinverse,
    sample_cgaussian,
    svd,
)


# ---------------------------------------------------------------- svd

def test_svd_antidiagonal():
    u, s, v = svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(s, [1.0, 1.0])


def test_svd_returns_v_not_vt():
    a = np.arange(12.0).reshape(3, 4)
    u, s, v = svd(a)
    assert v.shape == (4, 3)
    assert np.allclose(u @ np.diag(s) @ v.conj().T, a, atol=1e-12)


def test_svd_singular_values_sorted():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 4))
    _, s, _ = svd(a)
    assert np.all(np.diff(s) <= 0)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


# ------------------------------------------------------- pseudoinverse

def test_pinv_column_vector():
    # A = [3, 4]^T: A+ = A^T / ||A||^2 = [3/25, 4/25]
    p = pseudoinverse(np.array([[3.0], [4.0]]))
    assert p.shape == (1, 2)
    assert np.allclose(p, [[0.12, 0.16]], atol=1e-14)


def test_pinv_identity():
    assert np.allclose(pseudoinverse(np.eye(4)), np.eye(4), atol=1e-14)


def test_pinv_zero_matrix():
    assert np.allclose(pseudoinverse(np.zeros((3, 2))), np.zeros((2, 3)))


@pytest.mark.parametrize(
    "solve", [pseudoinverse,
              lambda a, rel_tol: min_norm_lstsq(a, np.ones(2), rel_tol)],
    ids=["pseudoinverse", "min_norm_lstsq"])
def test_pinv_rel_tol_validation(solve):
    a = np.eye(2)
    with pytest.raises(ValueError):
        solve(a, rel_tol=0.0)
    with pytest.raises(ValueError):
        solve(a, rel_tol=1.0)
    with pytest.raises(ValueError):
        solve(a, rel_tol=-1e-3)


def test_pinv_cutoff_discards_tiny_directions():
    # rank-1 plus a direction below the relative cutoff
    u = np.array([[1.0], [0.0]])
    a = u @ u.T + 1e-15 * np.array([[0.0, 0.0], [0.0, 1.0]])
    p = pseudoinverse(a, rel_tol=1e-12)
    assert np.allclose(p, u @ u.T, atol=1e-10)


def _penrose(a, p, tol):
    assert np.allclose(a @ p @ a, a, atol=tol)
    assert np.allclose(p @ a @ p, p, atol=tol)
    assert np.allclose((a @ p).conj().T, a @ p, atol=tol)
    assert np.allclose((p @ a).conj().T, p @ a, atol=tol)


@pytest.mark.parametrize("shape", [(8, 3), (3, 8), (8, 8)])
def test_penrose_conditions_random(shape):
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=shape)
        _penrose(a, pseudoinverse(a), 1e-10)


def test_penrose_rank_deficient():
    rng = np.random.default_rng(11)
    for _ in range(20):
        b = rng.normal(size=(8, 3))
        a = b @ rng.normal(size=(3, 8))  # rank 3 inside 8x8
        _penrose(a, pseudoinverse(a), 1e-9)


def test_default_rel_tol_value():
    assert DEFAULT_REL_TOL == 1e-12


# ------------------------------------------------------ min_norm_lstsq

def test_min_norm_underdetermined_example():
    w = min_norm_lstsq(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(w, [1.0, 1.0], atol=1e-14)


def test_min_norm_overdetermined_example():
    w = min_norm_lstsq(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    assert np.allclose(w, [1.0], atol=1e-14)


def test_min_norm_accepts_column_targets():
    g = np.array([[1.0, 0.0], [0.0, 2.0]])
    t = np.array([[1.0], [4.0]])
    w = min_norm_lstsq(g, t)
    assert w.shape == (2,)
    assert np.allclose(w, [1.0, 2.0])


def _with_spectrum(rng, rows, cols, s):
    """rows x cols matrix with singular values s, in random directions."""
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.normal(size=(rows, k)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, k)))
    return u @ np.diag(s) @ v.T


def _conditioned(rng, rows, cols, cond):
    """rows x cols matrix whose singular values fall from 1 to 1/cond."""
    return _with_spectrum(rng, rows, cols,
                          np.geomspace(1.0, 1.0 / cond, min(rows, cols)))


def _spread(rng, rows, cols, cond):
    """rows x cols matrix with singular values 1 but the last, 1/cond.

    ||A||_F of its Gram matrix A is about sqrt(min(rows, cols)) times
    lam_max, so the shifted-Cholesky certificate of `min_norm_lstsq` fails
    well below kappa = GRAM_MAX_COND and `eigvalsh` decides.
    """
    s = np.ones(min(rows, cols))
    s[-1] = 1.0 / cond
    return _with_spectrum(rng, rows, cols, s)


def _solver_cases():
    """(G, t, the path min_norm_lstsq must take).

    The path is "certified" (Gram solve, proven well-conditioned by the
    shifted Cholesky), "gated" (Gram solve, admitted by `eigvalsh`) or
    "svd".  Inputs on both sides of GRAM_MAX_COND = 1e4: random wide, tall
    and square G, geometric spectra at 1e3, 5e3, 2e4 and 1e7, spread ones
    (all singular values 1 but the last) between the certified limit,
    about 3.6e3 at 16x16, and 1e4 and just above 1e4, and a rank-3 8x8.
    """
    rng = np.random.default_rng(3)
    cases = []
    for rows, cols in [(20, 8), (8, 20), (16, 16)]:
        cases.append((rng.normal(size=(rows, cols)), rng.normal(size=rows),
                      "certified"))
    for g, path in [(_conditioned(rng, 12, 30, 1e3), "certified"),
                    (_conditioned(rng, 30, 12, 1e3), "certified"),
                    (_conditioned(rng, 16, 16, 5e3), "certified"),
                    (_conditioned(rng, 16, 16, 2e4), "svd"),
                    (_conditioned(rng, 12, 12, 1e7), "svd"),
                    (_spread(rng, 16, 16, 5e3), "gated"),
                    (_spread(rng, 12, 30, 9e3), "gated"),
                    (_spread(rng, 30, 12, 9.9e3), "gated"),
                    (_spread(rng, 16, 16, 1.02e4), "svd"),
                    (rng.normal(size=(8, 3)) @ rng.normal(size=(3, 8)),
                     "svd")]:
        cases.append((g, rng.normal(size=g.shape[0]), path))
    return cases


def test_min_norm_matches_numpy_lstsq():
    for g, t, _ in _solver_cases():
        w = min_norm_lstsq(g, t)
        ref = np.linalg.lstsq(g, t, rcond=DEFAULT_REL_TOL * max(g.shape))[0]
        assert np.allclose(w, ref, atol=1e-10)


def _counting(calls, fn):
    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return fn(*args, **kwargs)
    return counted


def test_min_norm_svd_fallback_only_when_ill_conditioned(monkeypatch):
    """The Gram solve and the SVD stay two branches, chosen by kappa(G)."""
    calls = []
    monkeypatch.setattr(numkernel, "svd", _counting(calls, numkernel.svd))
    for g, t, path in _solver_cases():
        calls.clear()
        min_norm_lstsq(g, t)
        assert len(calls) == int(path == "svd"), (g.shape, np.linalg.cond(g))
    # a rel_tol whose cutoff lies above s_min sends even kappa = 1e3 to the
    # SVD, which then drops the directions below the cutoff
    rng = np.random.default_rng(4)
    g, t = _conditioned(rng, 12, 12, 1e3), rng.normal(size=12)
    calls.clear()
    w = min_norm_lstsq(g, t, rel_tol=1e-3)
    assert len(calls) == 1
    ref = np.linalg.lstsq(g, t, rcond=1e-3 * 12)[0]
    assert np.allclose(w, ref, atol=1e-10)


def test_min_norm_calls_eigvalsh_only_when_certificate_fails(monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        _counting(calls, np.linalg.eigvalsh))
    for g, t, path in _solver_cases():
        calls.clear()
        min_norm_lstsq(g, t)
        assert len(calls) == int(path != "certified"), (path, g.shape)


def _eigvalsh_rule(g, rel_tol):
    """Whether G's Gram matrix passes the kappa gate, from its eigenvalues."""
    a = g @ g.T if g.shape[0] <= g.shape[1] else g.T @ g
    lam = np.linalg.eigvalsh(a)
    tau = rel_tol * max(g.shape) * np.sqrt(max(lam[-1], 0.0))
    return bool(lam[0] > 0.0 and lam[-1] <= GRAM_MAX_COND ** 2 * lam[0]
                and lam[0] > tau ** 2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(shape=st.sampled_from([(6, 6), (24, 24), (5, 14), (10, 40), (14, 5),
                              (40, 10), (1, 9), (9, 1)]),
       # half the draws near the certified limit and GRAM_MAX_COND
       log_cond=st.one_of(st.floats(0.0, 7.0), st.floats(3.3, 4.2)),
       spread=st.booleans(),
       rel_tol=st.sampled_from([DEFAULT_REL_TOL, 1e-7, 1e-5, 1e-3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_min_norm_path_follows_eigvalsh_rule(shape, log_cond, spread, rel_tol,
                                             seed):
    """The certificate only ever skips `eigvalsh`; it never changes the
    path the eigenvalues pick, over kappa in [1, 1e7]."""
    rng = np.random.default_rng(seed)
    g = (_spread if spread else _conditioned)(rng, *shape, 10.0 ** log_cond)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numkernel, "svd", _counting(calls, numkernel.svd))
        min_norm_lstsq(g, rng.normal(size=shape[0]), rel_tol)
    assert len(calls) == int(not _eigvalsh_rule(g, rel_tol))


def test_min_norm_rejects_bad_rel_tol_before_any_factorization(monkeypatch):
    def no_factorization(*args, **kwargs):
        raise AssertionError("factorized before rel_tol was checked")

    for name in ("cholesky", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, no_factorization)
    monkeypatch.setattr(numkernel, "svd", no_factorization)
    for rel_tol in (0.0, 1.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="rel_tol"):
            min_norm_lstsq(np.eye(3), np.ones(3), rel_tol)


def test_min_norm_has_smallest_norm_in_solution_set():
    """Any nullspace offset added to the solution must increase ||w||."""
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 12))
    t = rng.normal(size=4)
    w = min_norm_lstsq(g, t)
    # nullspace basis from the full SVD
    _, _, vt = np.linalg.svd(g)
    null = vt[4:]
    for _ in range(10):
        v = null.T @ rng.normal(size=null.shape[0])
        assert np.linalg.norm(w + v) >= np.linalg.norm(w) - 1e-12
        # and it really is a solution too
        assert np.allclose(g @ (w + v), g @ w, atol=1e-10)


def test_min_norm_residual_is_optimal():
    rng = np.random.default_rng(9)
    g = rng.normal(size=(30, 6))
    t = rng.normal(size=30)
    w = min_norm_lstsq(g, t)
    r0 = np.linalg.norm(g @ w - t)
    for _ in range(100):
        pert = w + rng.normal(scale=1e-3, size=6)
        assert np.linalg.norm(g @ pert - t) >= r0 - 1e-12


def test_min_norm_rejects_bad_shapes():
    with pytest.raises(ValueError):
        min_norm_lstsq(np.array([[1.0, 2.0]]), np.array([1.0, 2.0]))


# ---------------------------------------------------------- sampling

def test_sample_cgaussian_split_variance():
    # unit-variance complex entries: each part carries variance 1/2
    rng = RngStream(124)
    z = sample_cgaussian(rng, 300, 300, std=1.0)
    assert z.dtype.kind == "c"
    assert abs(z.real.var() - 0.5) < 0.01
    assert abs(z.imag.var() - 0.5) < 0.01
    assert abs((np.abs(z) ** 2).mean() - 1.0) < 0.02


# ------------------------------------------------------------- rng

def test_rng_stream_reproducible():
    a = RngStream(42).normal(size=10)
    b = RngStream(42).normal(size=10)
    assert np.array_equal(a, b)


def test_rng_split_is_deterministic_and_disjoint():
    base = RngStream(42)
    x = base.split(SUB_CHANNEL).normal(size=8)
    y = base.split(SUB_CHANNEL).normal(size=8)
    z = base.split(SUB_TRAIN_NOISE).normal(size=8)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)


def test_rng_split_chain_extends_key():
    a = RngStream(7).split(3).split(1).uniform(size=4)
    b = RngStream(7, key=(3, 1)).uniform(size=4)
    assert np.array_equal(a, b)


def test_rng_substream_ids_are_distinct():
    ids = [SUB_SPLIT, SUB_CHANNEL, SUB_TRAIN_NOISE, SUB_TEST_NOISE,
           SUB_DIGITAL, SUB_MINIBATCH, SUB_AR, SUB_SYNTH, SUB_FEATSEL]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)


def test_rng_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStream(-1)


def test_rng_sibling_independence():
    """Draws from one substream must not disturb a sibling."""
    base = RngStream(77)
    s1 = base.split(SUB_CHANNEL)
    _ = s1.normal(size=1000)
    fresh = RngStream(77).split(SUB_TEST_NOISE).normal(size=16)
    used = base.split(SUB_TEST_NOISE).normal(size=16)
    assert np.array_equal(fresh, used)
