import numpy as np
import pytest

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


def _conditioned(rng, rows, cols, cond):
    """rows x cols matrix whose singular values fall from 1 to 1/cond."""
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.normal(size=(rows, k)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, k)))
    return u @ np.diag(np.geomspace(1.0, 1.0 / cond, k)) @ v.T


def _solver_cases():
    """(G, t, whether min_norm_lstsq must take the SVD fallback).

    Inputs on both sides of GRAM_MAX_COND = 1e4: random wide, tall and
    square G, conditioned ones at 1e3, 5e3, 2e4 and 1e7, and a rank-3 8x8.
    """
    rng = np.random.default_rng(3)
    cases = []
    for rows, cols in [(20, 8), (8, 20), (16, 16)]:
        cases.append((rng.normal(size=(rows, cols)), rng.normal(size=rows),
                      False))
    for g, fallback in [(_conditioned(rng, 12, 30, 1e3), False),
                        (_conditioned(rng, 30, 12, 1e3), False),
                        (_conditioned(rng, 16, 16, 5e3), False),
                        (_conditioned(rng, 16, 16, 2e4), True),
                        (_conditioned(rng, 12, 12, 1e7), True),
                        (rng.normal(size=(8, 3)) @ rng.normal(size=(3, 8)),
                         True)]:
        cases.append((g, rng.normal(size=g.shape[0]), fallback))
    return cases


def test_min_norm_matches_numpy_lstsq():
    for g, t, _ in _solver_cases():
        w = min_norm_lstsq(g, t)
        ref = np.linalg.lstsq(g, t, rcond=DEFAULT_REL_TOL * max(g.shape))[0]
        assert np.allclose(w, ref, atol=1e-10)


def test_min_norm_svd_fallback_only_when_ill_conditioned(monkeypatch):
    """The Gram solve and the SVD stay two branches, chosen by kappa(G)."""
    calls = []
    real_svd = numkernel.svd

    def counting_svd(a):
        calls.append(a.shape)
        return real_svd(a)

    monkeypatch.setattr(numkernel, "svd", counting_svd)
    for g, t, fallback in _solver_cases():
        calls.clear()
        min_norm_lstsq(g, t)
        assert len(calls) == int(fallback), (g.shape, np.linalg.cond(g))
    # a rel_tol whose cutoff lies above s_min sends even kappa = 1e3 to the
    # SVD, which then drops the directions below the cutoff
    rng = np.random.default_rng(4)
    g, t = _conditioned(rng, 12, 12, 1e3), rng.normal(size=12)
    calls.clear()
    w = min_norm_lstsq(g, t, rel_tol=1e-3)
    assert len(calls) == 1
    ref = np.linalg.lstsq(g, t, rcond=1e-3 * 12)[0]
    assert np.allclose(w, ref, atol=1e-10)


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
