"""Dense numerical kernel: Gaussian sampling, SVD, min-norm and ridge least
squares.

Matrices are plain float64 (or complex128) numpy arrays in row-major order;
no wrapper class is introduced.  All operations are pure functions of their
inputs plus, where present, the RngStream state.  `one_blas_thread` holds
the BLAS that numpy links against at one thread, so that LAPACK results do
not depend on the core count and trial workers do not oversubscribe it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math

import numpy as np

from .rng import RngStream

DEFAULT_REL_TOL = 1e-12
_EPS = float(np.finfo(float).eps)

# Largest condition number of G that `min_norm_lstsq` solves through the Gram
# matrix; see its docstring for the bound behind it.
GRAM_MAX_COND = 1e4

# The ridge weight of `ridge_lstsq`: lam = RIDGE_C * tr(A) / n, RIDGE_C times
# the mean eigenvalue of the n x n Gram matrix A, so lam scales with G.
RIDGE_C = 1.0


@functools.cache
def _linalg_lib():
    """ctypes handle of numpy's linalg extension, through which dlsym finds
    the OpenBLAS numpy loaded."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


def _openblas_function(name: str, argtypes, restype):
    """OpenBLAS's function `name` in numpy's build, bound with these types,
    under the plain or the scipy-openblas prefix, with or without the
    `64_` suffix of 64-bit-integer builds; None where none of them is
    found (MKL, Accelerate, unknown builds)."""
    lib = _linalg_lib()
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
                return fn
    return None


@functools.cache
def blas_thread_control():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None for a
    BLAS without them."""
    get = _openblas_function("get_num_threads", [], ctypes.c_int)
    put = _openblas_function("set_num_threads", [ctypes.c_int], None)
    return None if get is None or put is None else (get, put)


@functools.cache
def blas_core():
    """Name of the CPU kernel numpy's OpenBLAS chose when it loaded
    ("SkylakeX", "Haswell", ...), which sets the round-off bits of its GEMM
    and Cholesky; None for a BLAS that does not name one."""
    corename = _openblas_function("get_corename", [], ctypes.c_char_p)
    return None if corename is None else corename().decode()


@functools.cache
def lapack_cholesky():
    """(dpotrf, dposv) of numpy's LAPACK, or None.  Only the scipy-openblas
    ILP64 names are bound: their `64_` suffix fixes the integer width."""
    lib, i64 = _linalg_lib(), ctypes.POINTER(ctypes.c_int64)
    try:
        potrf, posv = lib.scipy_dpotrf_64_, lib.scipy_dposv_64_
    except AttributeError:
        return None
    arr = ctypes.c_void_p           # checked by `_writable_pointer`
    # the trailing size_t is the hidden Fortran length of the uplo string
    potrf.argtypes = [ctypes.c_char_p, i64, arr, i64, i64, ctypes.c_size_t]
    posv.argtypes = [ctypes.c_char_p, i64, i64, arr, i64, arr, i64, i64,
                     ctypes.c_size_t]
    potrf.restype = posv.restype = None
    return potrf, posv


def _writable_pointer(a: np.ndarray) -> int:
    """Address of a's data, for LAPACK to read and overwrite in place; a
    TypeError, as `np.ctypeslib.ndpointer` raises, unless a is a writable,
    C-contiguous float64 array."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.c_contiguous and a.flags.writeable):
        raise TypeError("LAPACK needs a writable, C-contiguous float64 array")
    return a.ctypes.data


def _cholesky_in_place(a: np.ndarray, b: np.ndarray = None) -> int:
    """LAPACK info of dpotrf('L') on a or, given b, of dposv('L') solving
    a x = b into b, in place.  a is n x n and symmetric, so C order serves.
    Both arrays are checked before LAPACK runs.

    Without numpy's ILP64 dpotrf and dposv (`lapack_cholesky` is None),
    `np.linalg.cholesky` factors a copy of a, or `np.linalg.solve` (LU)
    writes x into b, and the info is 0, or 1 where they raise."""
    lapack = lapack_cholesky()
    if lapack is None:
        try:
            if b is None:
                np.linalg.cholesky(a)
            else:
                b[...] = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return 1
        return 0
    potrf, posv = lapack
    n, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64()
    if b is None:
        potrf(b"L", n, _writable_pointer(a), n, info, 1)
    else:
        pa, pb = _writable_pointer(a), _writable_pointer(b)
        posv(b"L", n, ctypes.c_int64(1), pa, n, pb, n, info, 1)
    return info.value


# the policy `set_malloc_policy` sets, and glibc's mallopt parameter numbers
MALLOC_POLICY = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}
_MALLOPT_PARAMS = {"mmap_threshold": -3, "trim_threshold": -1}
malloc_applied = None       # MALLOC_POLICY once set; process-wide, as it is


def _libc():
    """ctypes handle of the C library the process runs on."""
    return ctypes.CDLL(None)


def set_malloc_policy():
    """Set MALLOC_POLICY through glibc's mallopt and return it, or None
    where there is no mallopt or it refuses a value.

    By default glibc serves a large block (from 128 KiB, a threshold it
    raises as such blocks are freed) by its own mmap and unmaps it when it
    is freed, and it trims a heap's free top beyond 128 KiB, so a sweep
    faults each D x N_r block it allocates in page by page.  With these
    thresholds the heap keeps freed blocks for reuse, in the resident set.
    """
    global malloc_applied
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
    applied = mallopt is not None and all(
        mallopt(_MALLOPT_PARAMS[key], value) == 1
        for key, value in MALLOC_POLICY.items())
    malloc_applied = dict(MALLOC_POLICY) if applied else None
    return malloc_applied


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


def sample_cgaussian(rng: RngStream, rows: int, cols: int) -> np.ndarray:
    """Complex matrix with i.i.d. CN(0, 1) entries.

    Real and imaginary parts are independent N(0, 1/2), so the complex
    per-entry variance E|h|^2 is 1.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    parts = rng.normal(0.0, np.sqrt(0.5), (2, rows, cols))
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


def _gram_system(g, t, name: str):
    """(G, t, A, wide) for G w ~= t: G and t as float64 arrays and A the
    smaller Gram matrix, G G^T for a wide G (no more rows than columns)
    else G^T G, or None for an empty G.  Raises ValueError, before any
    factorization, for a NaN or Inf in G or t and for mismatched shapes,
    a t that is not 1-D among them; a finite G whose Gram matrix overflows
    passes, its A holding Inf, with no warning."""
    g = np.asarray(g, dtype=float)
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"{name}: input contains NaN or Inf")
    if t.ndim != 1 or g.ndim != 2 or g.shape[0] != t.shape[0]:
        raise ValueError(
            f"{name}: shape mismatch, G is {g.shape}, t has {t.shape}")
    wide = g.shape[0] <= g.shape[1]
    if not g.size:
        return g, t, None, wide
    with np.errstate(over="ignore"):
        a = g @ g.T if wide else g.T @ g
    # each entry of G is squared into one diagonal entry of A, so a finite
    # tr(A) proves G finite unless the squares overflowed
    if not (math.isfinite(a.trace()) or np.isfinite(g).all()):
        raise ValueError(f"{name}: input contains NaN or Inf")
    return g, t, a, wide


def _gram_solve(g, t, a, wide: bool) -> np.ndarray:
    """G^T A^-1 t (wide G) or A^-1 G^T t (tall G) by one dposv over A."""
    b = t.copy() if wide else g.T @ t
    if _cholesky_in_place(a, b):
        raise np.linalg.LinAlgError("dposv: A not positive definite")
    return g.T @ b if wide else b


def _certified(a: np.ndarray, floor: float) -> bool:
    """True when a Cholesky factorization of A - s I completes for the shift
    s = 2 ||A||_F * floor + (n + 1) * eps * tr(A), which proves
    lam_min(A) >= 2 * floor * lam_max(A); see `min_norm_lstsq`.  False for
    a trace term below the normal floats, where underflow voids the bound,
    and for an s that is not finite: dpotrf may complete on a NaN diagonal."""
    n = a.shape[0]
    term = (n + 1) * _EPS * a.trace()
    # a Python float, so an overflowing product is inf without a warning
    shift = 2.0 * float(np.linalg.norm(a)) * floor + term
    if not (term >= 2.0 ** -1022 and math.isfinite(shift)):
        return False
    shifted = a.copy()
    shifted.ravel()[::n + 1] -= shift
    return _cholesky_in_place(shifted) == 0


def min_norm_lstsq(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution w of G w ~= t, i.e. w = G^+ t.

    Among all minimizers of ||G w - t|| the returned w has the smallest
    Euclidean norm and lies in the row space of G.  With the Gram matrix
    A = G G^T (n x n) when G has no more rows than columns, else G^T G, and
    the cutoff tau = r * s_max, r = DEFAULT_REL_TOL * max(rows, cols), two
    paths compute it:

    - Gram solve, when a bare dpotrf('L') factors A - s I for the shift

          s = 2 ||A||_F * f + (n + 1) * eps * tr(A),
          f = max(GRAM_MAX_COND^-2, r^2).

      ||A||_F >= lam_max, and a computed Cholesky factor R of a symmetric
      M has R^T R = M + dM with ||dM||_2 <= gamma_(n+1) tr(M) (Higham,
      Accuracy and Stability of Numerical Algorithms, Thm 10.3), which the
      trace term covers along with the rounding of the shift (eps is twice
      the unit roundoff).  So a factor that completes proves
      lam_min >= 2 f lam_max: kappa(G) <= 7.1e3 and lam_min > 2 tau^2, so
      no singular value would be cut.  A Cholesky solve (LAPACK dposv) of
      A then gives w = G^T A^-1 t (wide G) or w = A^-1 G^T t (tall G).
      Forming A squares the conditioning, so the relative error grows like
      kappa^2 * eps, about 1e-8 at 1e4, and the backward-stable Cholesky
      (Higham, Thm 10.4) adds as much.
    - Every other G, an empty, zero, rank-deficient or ill-conditioned one
      or one whose Gram matrix overflowed (a non-finite shift fails the
      certificate), takes one `np.linalg.lstsq` call with rcond = r:
      LAPACK's dgelsd, an SVD of G that treats singular values at or below
      tau as zero, the cut of `np.linalg.pinv(G, rcond=r)`.

    Without numpy's ILP64 dpotrf and dposv, `_cholesky_in_place` runs the
    certificate by `np.linalg.cholesky`, with the same decision, and the
    Gram solve by `np.linalg.solve` (LU, 2n^3/3 flops to n^3/3); w moves at
    round-off only.  Per-fit costs: README, "Numerics".
    """
    g, t, a, wide = _gram_system(g, t, "min_norm_lstsq")
    r = DEFAULT_REL_TOL * max(g.shape)
    if a is not None and _certified(a, max(GRAM_MAX_COND ** -2, r * r)):
        return _gram_solve(g, t, a, wide)
    del a                   # free the Gram matrix before dgelsd's buffers
    return np.linalg.lstsq(g, t, rcond=r)[0]


def ridge_lstsq(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Ridge least-squares solution w of G w ~= t: the minimizer of
    ||G w - t||^2 + lam ||w||^2 with lam = RIDGE_C * tr(A) / n, for the
    n x n Gram matrix A of `min_norm_lstsq` (the regularized ELM of Huang,
    Zhou, Ding and Zhang, IEEE TSMC-B 42(2), 2012; Hoerl and Kennard,
    Technometrics 12(1), 1970).

    One Cholesky solve (LAPACK dposv, through `_cholesky_in_place`) of
    A + lam I gives w = G^T (A + lam I)^-1 t for a wide G and
    w = (A + lam I)^-1 G^T t for a tall one; the two are equal.  lam is
    RIDGE_C times A's mean eigenvalue and lam_max(A) <= tr(A), so
    kappa(A + lam I) <= 1 + n / RIDGE_C whatever G is: the factor completes
    for every finite A, with no certificate or SVD.  A zero or
    empty G gives w = 0, the minimum-norm answer.  G is scaled by a power
    of two, and w back, where its Gram matrix overflows or lam is subnormal.
    """
    g, t, a, wide = _gram_system(g, t, "ridge_lstsq")
    trace = 0.0 if a is None else a.trace()
    if trace == 0.0 and not g.any():
        return np.zeros(g.shape[1])
    n = a.shape[0]
    lam = RIDGE_C * trace / n
    if not (2.0 ** -1022 <= lam and math.isfinite(trace + lam)):
        exponent = math.frexp(np.abs(g).max())[1]
        with np.errstate(over="ignore"):
            return np.ldexp(ridge_lstsq(np.ldexp(g, -exponent), t), -exponent)
    a.ravel()[::n + 1] += lam
    return _gram_solve(g, t, a, wide)
