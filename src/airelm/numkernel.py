"""Dense numerical kernel: Gaussian sampling, SVD, pseudoinverse, min-norm LS.

Matrices are plain float64 (or complex128) numpy arrays in row-major order;
no wrapper class is introduced.  All operations are pure functions of their
inputs plus, where present, the RngStream state.  `one_blas_thread` holds
the BLAS that numpy links against at one thread, so that LAPACK results do
not depend on the core count and trial workers do not oversubscribe it.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from .rng import RngStream

DEFAULT_REL_TOL = 1e-12

# Largest condition number of G that `min_norm_lstsq` solves through the Gram
# matrix; see its docstring for the error bound behind the value.
GRAM_MAX_COND = 1e4


@functools.cache
def blas_thread_control():
    """(get, set) thread-count functions of numpy's BLAS, or None.

    Looked up once, on first use, through the handle of numpy's own linalg
    extension: dlsym searches that library's dependencies, so this finds
    the OpenBLAS numpy loaded, under the plain or the scipy-openblas
    names, 64-bit-integer builds included.  None for a BLAS without these
    entry points (MKL, Accelerate, unknown builds).
    """
    import ctypes
    from numpy.linalg import _umath_linalg
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold BLAS at one thread inside the block; restore the count on exit.

    Does nothing when the BLAS exposes no thread control.  The count is
    process-wide: a block entered by one thread covers BLAS calls from
    every thread.
    """
    control = blas_thread_control()
    if control is None:
        yield
        return
    get, put = control
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def sample_cgaussian(rng: RngStream, rows: int, cols: int, std: float = 1.0) -> np.ndarray:
    """Complex matrix with i.i.d. CN(0, std^2) entries.

    Real and imaginary parts are independent N(0, std^2/2), so the complex
    per-entry variance E|h|^2 equals std^2.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if std < 0:
        raise ValueError("std must be non-negative")
    parts = rng.normal(0.0, std * np.sqrt(0.5), (2, rows, cols))
    return parts[0] + 1j * parts[1]


def svd(a: np.ndarray):
    """Thin SVD: returns (U, s, V) with a = U @ diag(s) @ V.T.conj().

    Singular values are non-negative and sorted descending; U and V have
    orthonormal columns.
    """
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("svd: input contains NaN or Inf")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u, s, vt.conj().T


def _cutoff(rel_tol: float, shape, s_max: float) -> float:
    """Singular-value cutoff tau = rel_tol * max(rows, cols) * s_max.

    Singular values at or below tau count as zero.  Rejects a rel_tol
    outside (0, 1): a negative one keeps zero singular values and divides
    by them, and one >= 1 cuts every direction.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    return rel_tol * max(shape) * s_max


def pseudoinverse(a: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with a relative cutoff.

    Singular values at or below tau = rel_tol * max(rows, cols) * s_max are
    treated as zero.  The result satisfies the four Penrose conditions to
    roughly machine precision for well-scaled inputs.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("pseudoinverse: input contains NaN or Inf")
    u, s, v = svd(a)
    keep = s > _cutoff(rel_tol, a.shape, s[0] if s.size else 0.0)
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return v @ (inv_s[:, None] * u.T)


def _gram_well_conditioned(a: np.ndarray, r: float) -> bool:
    """Whether the Gram matrix A passes the gate of `min_norm_lstsq`, by
    the shifted-Cholesky certificate or, when that fails, by `eigvalsh`."""
    n = a.shape[0]
    floor = max(GRAM_MAX_COND ** -2, r * r)
    shifted = a.copy()
    shifted.flat[::n + 1] -= (2.0 * np.linalg.norm(a) * floor
                              + (n + 1) * np.finfo(float).eps * np.trace(a))
    try:
        np.linalg.cholesky(shifted)
        return True
    except np.linalg.LinAlgError:
        del shifted         # inconclusive; free it before eigvalsh's buffers
    lam = np.linalg.eigvalsh(a)
    lam_min, lam_max = lam[0], lam[-1]          # eigvalsh sorts ascending
    tau = r * np.sqrt(max(lam_max, 0.0))
    return bool(lam_min > 0.0 and lam_max <= GRAM_MAX_COND ** 2 * lam_min
                and lam_min > tau ** 2)


def min_norm_lstsq(g: np.ndarray, t: np.ndarray,
                   rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Minimum-norm least-squares solution w of G w ~= t, i.e. w = G^+ t.

    Among all minimizers of ||G w - t|| the returned w has the smallest
    Euclidean norm and lies in the row space of G.  Two paths compute it:

    - Gram solve.  A = G G^T (n x n) when G has no more rows than columns,
      else G^T G.  An LU solve (`np.linalg.solve`) gives w = G^T A^-1 t
      (wide G) or w = A^-1 G^T t (tall G).  It runs when A's eigenvalues
      lam pass the gate: lam_min > 0, the condition number
      kappa(G) = sqrt(lam_max / lam_min) is at most GRAM_MAX_COND, and
      lam_min > tau^2 for the cutoff tau below.
    - Thin SVD of G, keeping singular values above
      tau = r * s_max, r = rel_tol * max(rows, cols), for every other G.

    The gate is decided without the eigenvalues when a Cholesky
    factorization of A - s I completes, for the shift

        s = 2 ||A||_F * max(GRAM_MAX_COND^-2, r^2) + (n + 1) * eps * tr(A).

    Why that gives the same decision: ||A||_F >= lam_max, and a computed
    Cholesky factor R of a symmetric M has R^T R = M + dM with
    ||dM||_2 <= gamma_(n+1) tr(M) (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3), which the trace term covers along
    with the rounding of the shift (eps is twice the unit roundoff).  So a
    factor that completes proves lam_min >= 2 * 1e-8 * lam_max and
    lam_min > 2 tau^2: twice what the gate needs.  That margin dwarfs the
    n * eps * lam_max error of the `eigvalsh` values, which therefore pass
    the gate too, and the path and every output bit are unchanged.  When
    the factorization fails the test is inconclusive (||A||_F can exceed
    lam_max by up to sqrt(n)) and `eigvalsh` decides.

    Why the bound 1e4: forming A squares the conditioning, so the Gram
    solve's relative error grows like kappa^2 * eps, about 1e-8 at 1e4.
    Past it the SVD is the accurate path.  The LU solve of A adds an error
    of the same order, kappa(A) * eps = kappa^2 * eps.  Both paths solve
    the same problem: a G on the Gram path has s_min / s_max >= 1e-4,
    while the SVD path drops only s <= tau, and at the default rel_tol
    tau / s_max is 1e-12 * max(rows, cols), far below 1e-4.  For a larger
    rel_tol the Gram path also requires s_min > tau, so no singular value
    the SVD path would drop ever reaches the Gram path.
    """
    g = np.asarray(g, dtype=float)
    t = np.asarray(t, dtype=float)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(t))):
        raise ValueError("min_norm_lstsq: input contains NaN or Inf")
    if t.ndim == 2 and t.shape[1] == 1:
        t = t[:, 0]
    if t.ndim != 1 or g.ndim != 2 or g.shape[0] != t.shape[0]:
        raise ValueError(
            f"min_norm_lstsq: shape mismatch, G is {g.shape}, t has {t.shape}")
    r = _cutoff(rel_tol, g.shape, 1.0)      # rejects a bad rel_tol up front
    wide = g.shape[0] <= g.shape[1]
    if g.size:
        a = g @ g.T if wide else g.T @ g
        if _gram_well_conditioned(a, r):
            if wide:
                return g.T @ np.linalg.solve(a, t)
            return np.linalg.solve(a, g.T @ t)
        del a               # free the Gram matrix before the SVD's buffers
    u, s, v = svd(g)
    keep = s > r * (s[0] if s.size else 0.0)
    coeff = np.zeros_like(s)
    coeff[keep] = (u.T @ t)[keep] / s[keep]
    return v @ coeff
