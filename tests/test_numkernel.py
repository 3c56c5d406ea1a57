import ctypes
import os
import re
import subprocess
import sys
import warnings
from types import SimpleNamespace

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
)
from airelm import numkernel
from airelm.numkernel import (
    DEFAULT_REL_TOL,
    GRAM_MAX_COND,
    RIDGE_C,
    min_norm_lstsq,
    pseudoinverse,
    ridge_lstsq,
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
              lambda a, *tol: min_norm_lstsq(a, np.ones(2), *tol)],
    ids=["pseudoinverse", "min_norm_lstsq"])
def test_pinv_rel_tol_validation(solve):
    """Neither solver takes a tolerance: both cut at DEFAULT_REL_TOL."""
    a = np.eye(2)
    solve(a)
    for rel_tol in (1e-3, 0.0):
        with pytest.raises(TypeError):
            solve(a, rel_tol)


def test_pinv_cutoff_discards_tiny_directions():
    # rank-1 plus a direction below the relative cutoff
    u = np.array([[1.0], [0.0]])
    a = u @ u.T + 1e-15 * np.array([[0.0, 0.0], [0.0, 1.0]])
    p = pseudoinverse(a)
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


@pytest.mark.parametrize("solve", [min_norm_lstsq, ridge_lstsq])
def test_min_norm_rejects_column_targets(solve):
    """t is one target per row of G, a 1-D array: a column is a shape
    mismatch."""
    g = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="shape mismatch"):
        solve(g, np.array([[1.0], [4.0]]))


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
    lam_max, so the Gram certificate of `min_norm_lstsq` fails well below
    kappa = GRAM_MAX_COND and the fit takes `np.linalg.lstsq`.
    """
    s = np.ones(min(rows, cols))
    s[-1] = 1.0 / cond
    return _with_spectrum(rng, rows, cols, s)


def _solver_cases():
    """(G, t, the path min_norm_lstsq must take).

    The path is "gram" (Gram solve, proven well-conditioned by the shifted
    Cholesky) or "lstsq" (one `np.linalg.lstsq` call).  Inputs on both
    sides of GRAM_MAX_COND = 1e4: random wide, tall and square G, geometric
    spectra at 1e3, 5e3, 2e4, 1e5, 9e5, 2e6 and 1e7, spread ones (all
    singular values 1 but the last) between the Gram-certified limit, about
    3.6e3 at 16x16, and just above 1e4, and a rank-3 8x8.
    """
    rng = np.random.default_rng(3)
    cases = []
    for rows, cols in [(20, 8), (8, 20), (16, 16)]:
        cases.append((rng.normal(size=(rows, cols)), rng.normal(size=rows),
                      "gram"))
    for g, path in [(_conditioned(rng, 12, 30, 1e3), "gram"),
                    (_conditioned(rng, 30, 12, 1e3), "gram"),
                    (_conditioned(rng, 16, 16, 5e3), "gram"),
                    (_conditioned(rng, 16, 16, 2e4), "lstsq"),
                    (_conditioned(rng, 12, 12, 1e7), "lstsq"),
                    (_spread(rng, 16, 16, 5e3), "lstsq"),
                    (_spread(rng, 12, 30, 9e3), "lstsq"),
                    (_spread(rng, 30, 12, 9.9e3), "lstsq"),
                    (_spread(rng, 16, 16, 1.02e4), "lstsq"),
                    (rng.normal(size=(8, 3)) @ rng.normal(size=(3, 8)),
                     "lstsq")]:
        cases.append((g, rng.normal(size=g.shape[0]), path))
    for cond in (2e4, 1e5, 9e5, 2e6):
        for rows, cols in [(12, 30), (30, 12), (16, 16)]:
            g = _conditioned(rng, rows, cols, cond)
            cases.append((g, rng.normal(size=rows), "lstsq"))
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


def _no_eigvalsh(a):
    raise AssertionError("min_norm_lstsq called eigvalsh")


def _path_taken(monkeypatch, g, t):
    """The path one `min_norm_lstsq` call takes, from the calls it makes,
    and its result: one `_certified` call, then `np.linalg.lstsq` unless
    the certificate passed.  `eigvalsh` raises if it is called, and
    `numkernel.svd` may not run."""
    calls = {name: [] for name in ("_certified", "lstsq", "svd")}
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
        mp.setattr(np.linalg, "lstsq", _counting(calls["lstsq"], np.linalg.lstsq))
        for name in ("_certified", "svd"):
            mp.setattr(numkernel, name,
                       _counting(calls[name], getattr(numkernel, name)))
        w = min_norm_lstsq(g, t)
    counts = tuple(len(calls[name]) for name in calls)
    paths = {(1, 0, 0): "gram", (1, 1, 0): "lstsq"}
    assert counts in paths, (g.shape, counts)
    return paths[counts], w


def _eigvalsh_rule(g):
    """The path G's Gram matrix would take by its eigenvalues: "gram" for
    lam_min > tau^2 and kappa(G) <= GRAM_MAX_COND, else "lstsq"."""
    a = g @ g.T if g.shape[0] <= g.shape[1] else g.T @ g
    lam = np.linalg.eigvalsh(a)
    tau = DEFAULT_REL_TOL * max(g.shape) * np.sqrt(max(lam[-1], 0.0))
    if lam[0] > 0.0 and lam[0] > tau ** 2 and (
            lam[-1] <= GRAM_MAX_COND ** 2 * lam[0]):
        return "gram"
    return "lstsq"


def _certificates_agree(g, path):
    """Whether a path is consistent with G's eigenvalues.  The certificate
    proves kappa(G) <= 2**-0.5 * GRAM_MAX_COND, so "gram" admits only rule
    "gram"; it fails, sending the fit to "lstsq", only where lam_min is
    within twice its shift s: a Cholesky of A - s I with lam_min(A) > 2 s
    would complete."""
    if path == "gram":
        return _eigvalsh_rule(g) == "gram"
    a = g @ g.T if g.shape[0] <= g.shape[1] else g.T @ g
    n, r = a.shape[0], DEFAULT_REL_TOL * max(g.shape)
    shift = (2.0 * np.linalg.norm(a) * max(GRAM_MAX_COND ** -2, r * r)
             + (n + 1) * np.finfo(float).eps * np.trace(a))
    return np.linalg.eigvalsh(a)[0] <= 2.0 * shift


def test_min_norm_svd_fallback_only_when_ill_conditioned(monkeypatch):
    """The Gram solve and the `np.linalg.lstsq` fallback stay separate
    branches, chosen by the certificate alone: it admits only fits that
    G's eigenvalues place on the Gram path, and the fallback takes only
    fits within the certificate's shift."""
    for g, t, path in _solver_cases():
        taken, _ = _path_taken(monkeypatch, g, t)
        assert taken == path, (path, g.shape, np.linalg.cond(g))
        assert _certificates_agree(g, path)
    # a spectrum of kappa 1e3 but for a last singular value below the
    # cutoff goes to the fallback, which then drops that direction
    rng = np.random.default_rng(4)
    for last in (1e-14, 0.0):
        s = np.geomspace(1.0, 1e-3, 12)
        s[-1] = last
        g, t = _with_spectrum(rng, 12, 12, s), rng.normal(size=12)
        assert np.linalg.svd(g, compute_uv=False)[-1] <= DEFAULT_REL_TOL * 12
        taken, w = _path_taken(monkeypatch, g, t)
        assert taken == "lstsq"
        assert np.allclose(w, pseudoinverse(g) @ t, atol=1e-10)
    # the certificate's slack sends a fit the eigenvalues place on the Gram
    # path to the fallback, which still returns G^+ t: s_min lies above the
    # cutoff
    g, t = _spread(rng, 16, 16, 5e3), rng.normal(size=16)
    assert _eigvalsh_rule(g) == "gram"
    taken, w = _path_taken(monkeypatch, g, t)
    assert taken == "lstsq"
    ref = pseudoinverse(g) @ t
    assert np.linalg.norm(w - ref) <= 1e-9 * np.linalg.norm(ref)


def _fallback_cases():
    """Rank-deficient and ill-conditioned G, wide, tall and square: rank 4,
    geometric spectra from 1 to 1e-5, 1e-7 and 1e-9, all above the cutoff,
    and spectra from 1 to 1e-5 whose last 1, 2 or 3 singular values lie
    between 1e-14 and 1e-16, below it, so those are cut."""
    rng = np.random.default_rng(12)
    cases = []
    for rows, cols in [(12, 30), (30, 12), (16, 16)]:
        cases.append(rng.normal(size=(rows, 4)) @ rng.normal(size=(4, cols)))
        for cond in (1e5, 1e7, 1e9):
            cases.append(_conditioned(rng, rows, cols, cond))
        for cut in (1, 2, 3):
            s = np.geomspace(1.0, 1e-5, min(rows, cols))
            s[-cut:] = np.geomspace(1e-14, 1e-16, cut)
            cases.append(_with_spectrum(rng, rows, cols, s))
    return cases


def test_min_norm_lstsq_fallback_matches_pseudoinverse(monkeypatch):
    """The fallback and `pseudoinverse` cut the same directions: every
    uncertified fit gives pseudoinverse(G) t within 1e-9, whether the
    cutoff tau removes zero, tiny or no singular values.  No singular value
    lies within a factor 10 of tau, where the two SVDs' round-off could
    decide a cut differently."""
    cut_above_s_min = 0
    rng = np.random.default_rng(13)
    for g in _fallback_cases():
        t = rng.normal(size=g.shape[0])
        s = np.linalg.svd(g, compute_uv=False)
        tau = DEFAULT_REL_TOL * max(g.shape) * s[0]
        assert not np.any((tau / 10 < s) & (s < tau * 10))
        cut_above_s_min += bool(0.0 < s[-1] * 1e3 < tau)
        taken, w = _path_taken(monkeypatch, g, t)
        assert taken == "lstsq"
        ref = pseudoinverse(g) @ t
        assert np.linalg.norm(w - ref) <= 1e-9 * np.linalg.norm(ref)
    assert cut_above_s_min >= 9


def test_min_norm_never_calls_eigvalsh(monkeypatch):
    """No input, on either path, makes `min_norm_lstsq` call `eigvalsh`."""
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
    for g, t, path in _solver_cases():
        min_norm_lstsq(g, t)
    for g in _fallback_cases():
        min_norm_lstsq(g, np.ones(g.shape[0]))


@settings(max_examples=200)
@given(shape=st.sampled_from([(6, 6), (24, 24), (5, 14), (10, 40), (14, 5),
                              (40, 10), (1, 9), (9, 1)]),
       # half the draws near the certified limit and GRAM_MAX_COND; kappa
       # above 1e12 puts singular values below the cutoff
       log_cond=st.one_of(st.floats(0.0, 16.0), st.floats(3.3, 4.2)),
       spread=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_min_norm_path_follows_eigvalsh_rule(shape, log_cond, spread, seed):
    """Over kappa in [1, 1e16], without `eigvalsh`, a Gram-certified fit
    has rule "gram", and a fit that takes `np.linalg.lstsq` has lam_min
    within twice the certificate's shift."""
    rng = np.random.default_rng(seed)
    g = (_spread if spread else _conditioned)(rng, *shape, 10.0 ** log_cond)
    with pytest.MonkeyPatch.context() as mp:
        taken, _ = _path_taken(mp, g, rng.normal(size=shape[0]))
    assert _certificates_agree(g, taken)


needs_lapack = pytest.mark.skipif(
    numkernel.lapack_cholesky() is None,
    reason="numpy's LAPACK has no ILP64 dpotrf and dposv names")


@needs_lapack
@settings(max_examples=200)
@given(shape=st.sampled_from([(6, 6), (24, 24), (5, 14), (40, 10), (9, 1)]),
       # extra draws near the edge of the certificate and near kappa 1e6
       log_cond=st.one_of(st.floats(0.0, 7.0), st.floats(3.3, 4.2),
                          st.floats(5.5, 6.2)),
       spread=st.booleans(),
       rel_tol=st.sampled_from([DEFAULT_REL_TOL, 1e-7, 1e-5, 1e-3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dpotrf_certificate_decides_as_numpy_cholesky(shape, log_cond, spread,
                                                      rel_tol, seed):
    """Over kappa in [1, 1e7], at the certificate's floor and at the bare
    cutoff floor r^2, the bare dpotrf certificate is True exactly when
    `np.linalg.cholesky` succeeds on the same shifted matrix, and it leaves
    A as it was.  Both run inside `_cholesky_in_place`, once per call."""
    rng = np.random.default_rng(seed)
    g = (_spread if spread else _conditioned)(rng, *shape, 10.0 ** log_cond)
    a = g @ g.T if shape[0] <= shape[1] else g.T @ g
    n, r = a.shape[0], rel_tol * max(shape)
    before = a.copy()
    for floor in (max(GRAM_MAX_COND ** -2, r * r), r * r):
        calls, by_numpy = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numkernel, "_cholesky_in_place", _counting(
                calls, numkernel._cholesky_in_place))
            mp.setattr(np.linalg, "cholesky",
                       _counting(by_numpy, np.linalg.cholesky))
            by_dpotrf = numkernel._certified(a, floor)
            assert calls == [(n, n)] and by_numpy == []
            mp.setattr(numkernel, "lapack_cholesky", lambda: None)
            assert numkernel._certified(a, floor) == by_dpotrf
            assert calls == [(n, n)] * 2 and by_numpy == [(n, n)]
    assert np.array_equal(a, before)


@needs_lapack
def test_gram_solve_by_dposv_matches_numpy_lstsq_to_1e_9(monkeypatch):
    """Every Gram-certified case is solved by dposv, within 1e-9 of
    `np.linalg.lstsq`, and leaves G and t as they were."""
    solves = []
    cholesky_in_place = numkernel._cholesky_in_place

    def counting(a, b=None):
        if b is not None:
            solves.append(a.shape)
        return cholesky_in_place(a, b)

    monkeypatch.setattr(numkernel, "_cholesky_in_place", counting)
    cases = [(g, t) for g, t, path in _solver_cases() if path == "gram"]
    assert len(cases) == 6
    for g, t in cases:
        g_before, t_before = g.copy(), t.copy()
        w = min_norm_lstsq(g, t)
        ref = np.linalg.lstsq(g, t, rcond=DEFAULT_REL_TOL * max(g.shape))[0]
        assert np.linalg.norm(w - ref) <= 1e-9 * np.linalg.norm(ref)
        assert np.array_equal(g, g_before) and np.array_equal(t, t_before)
    assert len(solves) == len(cases)


def _bad_array(kind, shape):
    good = np.eye(*shape) if len(shape) == 2 else np.ones(shape)
    if kind == "float32":
        return good.astype(np.float32)
    if kind == "non_contiguous":
        wide = np.repeat(good, 2, axis=-1)
        return wide[..., ::2]
    if kind == "fortran_order":
        return np.asfortranarray(np.arange(16.0).reshape(shape))
    good.flags.writeable = False
    return good


@pytest.mark.parametrize("kind, operand", [
    (kind, operand)
    for kind in ("float32", "non_contiguous", "fortran_order", "read_only")
    for operand in ("dpotrf a", "dposv a", "dposv b")
    # a vector is C-contiguous in either order
    if (kind, operand) != ("fortran_order", "dposv b")])
def test_lapack_binding_rejects_bad_arrays_before_lapack_runs(
        monkeypatch, kind, operand):
    """The raw-pointer binding raises TypeError, as an `ndpointer` argtype
    would, for any array LAPACK could not overwrite in place as float64 in
    C order, and LAPACK never sees the call."""
    ran = []
    monkeypatch.setattr(numkernel, "lapack_cholesky", lambda: (
        lambda *args: ran.append("dpotrf"), lambda *args: ran.append("dposv")))
    a, b = np.eye(4), np.ones(4)
    if operand.endswith("a"):
        a = _bad_array(kind, (4, 4))
    else:
        b = _bad_array(kind, (4,))
    with pytest.raises(TypeError, match="writable, C-contiguous float64"):
        numkernel._cholesky_in_place(a, b if operand.startswith("dposv")
                                     else None)
    assert ran == []
    numkernel._cholesky_in_place(np.eye(4), np.ones(4))
    assert ran == ["dposv"]


def test_blas_core_names_the_kernel_openblas_loaded():
    """`blas_core` reads the kernel OpenBLAS chose when it loaded, so one
    forced by OPENBLAS_CORETYPE, in a fresh process, is the one it names.
    Haswell runs on every x86 CPU whose own kernel is one of these."""
    if numkernel.blas_core() not in ("Haswell", "SkylakeX", "CooperLake",
                                     "SapphireRapids", "Zen"):
        pytest.skip(f"OpenBLAS kernel {numkernel.blas_core()}")
    script = "from airelm.numkernel import blas_core; print(blas_core())"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Haswell\n"


@pytest.fixture
def fresh_blas_lookups():
    """Empty the caches of the OpenBLAS lookups before and after the test,
    so that no stand-in library outlives it."""
    for lookup in (numkernel.blas_core, numkernel.blas_thread_control):
        lookup.cache_clear()
    yield
    for lookup in (numkernel.blas_core, numkernel.blas_thread_control):
        lookup.cache_clear()


@pytest.mark.parametrize("prefix", ["scipy_openblas", "openblas"])
@pytest.mark.parametrize("suffix", ["64_", ""])
def test_blas_lookups_find_every_openblas_name(monkeypatch, fresh_blas_lookups,
                                               prefix, suffix):
    """The kernel name and the thread control are both found under the
    plain and the scipy-openblas prefix, with or without the 64-bit-integer
    suffix, and neither is found in a library that has none of them."""
    threads = []
    lib = SimpleNamespace(**{
        f"{prefix}_get_corename{suffix}": lambda: b"Haswell",
        f"{prefix}_get_num_threads{suffix}": lambda: 3,
        f"{prefix}_set_num_threads{suffix}": lambda n: threads.append(n)})
    monkeypatch.setattr(numkernel, "_linalg_lib", lambda: lib)
    assert numkernel.blas_core() == "Haswell"
    assert numkernel.blas_thread_control() is not None
    with numkernel.one_blas_thread():
        assert threads == [1]
    assert threads == [1, 3]
    assert lib.__dict__[f"{prefix}_get_corename{suffix}"].restype is (
        ctypes.c_char_p)
    monkeypatch.setattr(numkernel, "_linalg_lib", SimpleNamespace)
    for lookup in (numkernel.blas_core, numkernel.blas_thread_control):
        lookup.cache_clear()
        assert lookup() is None


def test_numpy_fallback_takes_the_same_paths(monkeypatch, numpy_linalg):
    """Without the LAPACK binding every case takes the path it takes with
    it, the certificate by one `np.linalg.cholesky` and the Gram solve by
    `np.linalg.solve` of A; the fallback solves nothing by LU."""
    def no_lapack(*args, **kwargs):
        raise AssertionError("called LAPACK directly in the numpy fallback")

    factored, solved = [], []
    monkeypatch.setattr(numkernel, "_writable_pointer", no_lapack)
    monkeypatch.setattr(np.linalg, "cholesky",
                        _counting(factored, np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "solve", _counting(solved, np.linalg.solve))
    for g, t, path in _solver_cases():
        factored.clear()
        solved.clear()
        taken, w = _path_taken(monkeypatch, g, t)
        assert taken == path, (path, g.shape)
        assert len(factored) == 1
        assert solved == ([(min(g.shape),) * 2] if path == "gram" else [])
        ref = np.linalg.lstsq(g, t, rcond=DEFAULT_REL_TOL * max(g.shape))[0]
        assert np.allclose(w, ref, atol=1e-10)


@pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
def test_min_norm_rejects_any_nan_or_inf_entry(shape):
    """Every entry of G, and of t, is checked, whichever Gram matrix G
    forms; a finite G whose Gram matrix overflows is not rejected, and
    solving it raises no warning."""
    rng = np.random.default_rng(11)
    g, t = rng.normal(size=shape), rng.normal(size=shape[0])
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in np.ndindex(*shape):
            g_bad = g.copy()
            g_bad[i, j] = bad
            with pytest.raises(ValueError, match="contains NaN or Inf"):
                min_norm_lstsq(g_bad, t)
        t_bad = t.copy()
        t_bad[-1] = bad
        with pytest.raises(ValueError, match="contains NaN or Inf"):
            min_norm_lstsq(g, t_bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        min_norm_lstsq(g * 1e200, t)


@pytest.mark.parametrize("lapack", [True, False])
@pytest.mark.parametrize("shape", [(4, 6), (6, 4)])
def test_min_norm_of_g_whose_gram_matrix_overflows_is_the_svd_solution(
        request, shape, lapack):
    """A finite G whose squares overflow float64 fails the certificate,
    even where dpotrf would complete on the NaN-shifted diagonal, and goes
    to `np.linalg.lstsq`, an SVD, without a warning: w is
    pseudoinverse(G) t, wide or tall."""
    if not lapack:
        request.getfixturevalue("numpy_linalg")
    rng = np.random.default_rng(13)
    g, t = 1e200 * rng.normal(size=shape), rng.normal(size=shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = min_norm_lstsq(g, t)
    ref = pseudoinverse(g) @ t
    assert np.allclose(w, ref, rtol=1e-10, atol=0.0)
    # wide: both interpolate t; tall: both reach the least-squares residual
    assert np.linalg.norm(g @ w - t) <= (1.001 * np.linalg.norm(g @ ref - t)
                                         + 1e-12 * np.linalg.norm(t))


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


# ------------------------------------------------------------- ridge

def _ridge_cases():
    rng = np.random.default_rng(21)
    low_rank = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 20))
    return {"wide": rng.normal(size=(8, 30)), "tall": rng.normal(size=(40, 6)),
            "square": rng.normal(size=(15, 15)),
            "rank_deficient_wide": low_rank, "rank_deficient_tall": low_rank.T}


@pytest.mark.parametrize("lapack", [True, False])
@pytest.mark.parametrize("case", sorted(_ridge_cases()))
def test_ridge_matches_the_shifted_gram_solve_and_normal_equations(
        request, case, lapack):
    """w solves (A + lam I) b = t, w = G^T b (wide) or (A + lam I) w = G^T t
    (tall), lam = RIDGE_C tr(A) / n, and the ridge normal equations
    (G^T G + lam I) w = G^T t, to 1e-10 relative."""
    if not lapack:
        request.getfixturevalue("numpy_linalg")
    g = _ridge_cases()[case]
    t = np.random.default_rng(22).normal(size=g.shape[0])
    w = ridge_lstsq(g, t)
    wide = g.shape[0] <= g.shape[1]
    a = g @ g.T if wide else g.T @ g
    n = a.shape[0]
    lam = RIDGE_C * np.trace(a) / n
    shifted = a + lam * np.eye(n)
    ref = (g.T @ np.linalg.solve(shifted, t) if wide
           else np.linalg.solve(shifted, g.T @ t))
    normal = np.linalg.solve(g.T @ g + lam * np.eye(g.shape[1]), g.T @ t)
    for expected in (ref, normal):
        assert np.linalg.norm(w - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("shape", [(5, 9), (9, 5), (6, 6), (0, 4), (4, 0)])
def test_ridge_of_zero_or_empty_g_is_zero_as_min_norm(monkeypatch, shape):
    g, t = np.zeros(shape), np.ones(shape[0])
    expected = min_norm_lstsq(g, t)
    monkeypatch.setattr(numkernel, "_cholesky_in_place", None)
    w = ridge_lstsq(g, t)
    assert w.shape == (shape[1],) and not w.any()
    assert np.array_equal(w, expected)


@pytest.mark.parametrize("lapack", [True, False])
@pytest.mark.parametrize("shape", [(4, 6), (6, 4)])
def test_ridge_of_g_whose_gram_matrix_overflows_scales_exactly(
        request, shape, lapack):
    """A finite G whose Gram matrix overflows is solved without a warning,
    and scaling G by a power of two scales w by its inverse, bit for bit."""
    if not lapack:
        request.getfixturevalue("numpy_linalg")
    rng = np.random.default_rng(23)
    g, t = rng.normal(size=shape), rng.normal(size=shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = ridge_lstsq(g * 2.0 ** 600, t)
    assert np.array_equal(w * 2.0 ** 600, ridge_lstsq(g, t))


@pytest.mark.parametrize("lapack", [True, False])
@pytest.mark.parametrize("shape", [(4, 6), (6, 4)])
def test_ridge_of_g_whose_lam_underflows_scales_exactly(request, shape,
                                                        lapack):
    """A G whose ridge weight lam is subnormal, or whose Gram matrix
    underflows to zero, is solved scaled up by a power of two, without a
    warning: w is exactly 2^540 times the w of G, and inf where 2^1060
    times it overflows.  Unscaled, the first w was wrong in every digit
    and the second was 0."""
    if not lapack:
        request.getfixturevalue("numpy_linalg")
    rng = np.random.default_rng(29)
    g, t = rng.normal(size=shape), rng.normal(size=shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = ridge_lstsq(np.ldexp(g, -540), t)
        huge = ridge_lstsq(np.ldexp(g, -1060), t)
    assert np.array_equal(np.ldexp(w, -540), ridge_lstsq(g, t))
    assert np.isinf(huge).all()


@pytest.mark.parametrize("lapack", [True, False])
@pytest.mark.parametrize("shape", [(2, 64), (4, 6), (6, 4)])
def test_min_norm_of_g_whose_gram_matrix_is_subnormal_is_the_svd_solution(
        request, shape, lapack):
    """The certificate's bound assumes no underflow, so a G whose Gram
    matrix is subnormal fails it and goes to `np.linalg.lstsq`, without a
    warning: w is G^+ t.  The Gram solve of such an A returned NaN, or w
    off by up to 7%."""
    if not lapack:
        request.getfixturevalue("numpy_linalg")
    rng = np.random.default_rng(29)
    g, t = rng.normal(size=shape), rng.normal(size=shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = min_norm_lstsq(np.ldexp(g, -530), t)
    assert np.allclose(w, np.ldexp(pseudoinverse(g) @ t, 530), rtol=1e-10,
                       atol=0.0)


@pytest.mark.parametrize("g, t", [
    (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),
    (np.array([[1.0, np.inf, 0.0]]), np.ones(1)),
    (np.eye(3), np.array([1.0, np.nan, 0.0])),
    (np.eye(3), np.ones(2)),
    (np.ones(3), np.ones(3)),
    (np.eye(2), np.ones((2, 2))),
], ids=["nan_g", "inf_g", "nan_t", "short_t", "vector_g", "matrix_t"])
def test_ridge_rejects_nan_and_bad_shapes_before_any_factorization(
        monkeypatch, g, t):
    def no_factorization(*args, **kwargs):
        raise AssertionError("factorized before the input was checked")

    for name in ("cholesky", "qr", "solve"):
        monkeypatch.setattr(np.linalg, name, no_factorization)
    for name in ("_cholesky_in_place", "svd"):
        monkeypatch.setattr(numkernel, name, no_factorization)
    with pytest.raises(ValueError, match="ridge_lstsq"):
        ridge_lstsq(g, t)


# ---------------------------------------------------------- sampling

def test_sample_cgaussian_split_variance():
    # unit-variance complex entries: each part carries variance 1/2
    rng = RngStream(124)
    z = sample_cgaussian(rng, 300, 300)
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
    """The SUB_* ids are distinct, and the rng docstring's table lists each
    of them, in order, plus id 8, retired with the row subsample so that no
    later stream reuses its draws."""
    from airelm import rng
    ids = [SUB_SPLIT, SUB_CHANNEL, SUB_TRAIN_NOISE, SUB_TEST_NOISE,
           SUB_DIGITAL, SUB_MINIBATCH, SUB_AR, SUB_SYNTH]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)
    assert {name for name in vars(rng) if name.startswith("SUB_")} == {
        "SUB_SPLIT", "SUB_CHANNEL", "SUB_TRAIN_NOISE", "SUB_TEST_NOISE",
        "SUB_DIGITAL", "SUB_MINIBATCH", "SUB_AR", "SUB_SYNTH"}
    rows = dict(re.findall(r"^ (\d+) +(.+)$", rng.__doc__, re.M))
    assert [int(i) for i in rows] == ids + [8]
    assert rows["8"].startswith("retired")
    assert not any(rows[str(i)].startswith("retired") for i in ids)


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
