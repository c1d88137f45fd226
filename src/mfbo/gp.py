"""Exact Gaussian-process inference on finite point sets.

Squared-exponential kernels, Cholesky factors, triangular solves, Gaussian
entropies and log-determinants. The multi-fidelity structure, and the one
posterior conditioned with these, live one layer up in mfbo.model.

Conventions: covariances are dense float64 arrays, entropies are in nats,
and every factorization runs through the same escalating-jitter ladder so
numerical failures surface as a single exception type (NumericalError).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass
import numpy as np

from . import covops

# Jitter ladder for factorizations: try the matrix as given, then escalate.
JITTER_LADDER = (1e-10, 1e-8, 1e-6)

LOG_2PI_E = float(np.log(2.0 * np.pi) + 1.0)


class NumericalError(RuntimeError):
    """A covariance factorization failed even at the largest jitter."""


@dataclass(frozen=True, eq=False)
class SquaredExpKernel:
    """k(x, x') = signal_variance * exp(-0.5 * sum_i ((x-x')_i / ls_i)^2)."""

    signal_variance: float
    lengthscales: np.ndarray

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=np.float64))
        if ls.ndim != 1 or ls.size == 0:
            raise ValueError("lengthscales must be a non-empty 1-d vector")
        if not np.all(ls > 0):
            raise ValueError("lengthscales must be positive")
        if not self.signal_variance > 0:
            raise ValueError("signal_variance must be positive")
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_variance", float(self.signal_variance))

    @property
    def dim(self) -> int:
        return self.lengthscales.shape[0]

    def cross(self, xa, xb) -> np.ndarray:
        return covops.se_cross(xa, xb, self.lengthscales, self.signal_variance)

    def sym(self, xa) -> np.ndarray:
        return covops.se_sym(xa, self.lengthscales, self.signal_variance)

    def scaled(self, ls_factor: float = 1.0, sv_factor: float = 1.0) -> "SquaredExpKernel":
        """A rescaled copy; used by hyperparameter grids."""
        return SquaredExpKernel(
            signal_variance=self.signal_variance * sv_factor,
            lengthscales=self.lengthscales * ls_factor,
        )


@dataclass(frozen=True, eq=False)
class GpPrior:
    """GP prior with a constant mean and homoscedastic observation noise."""

    kernel: SquaredExpKernel
    noise_variance: float = 0.0
    mean: float = 0.0

    def __post_init__(self):
        if not 0 <= self.noise_variance < np.inf:
            raise ValueError("noise_variance must be >= 0 and finite")
        if not np.isfinite(self.mean):
            raise ValueError("mean must be finite")
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        object.__setattr__(self, "mean", float(self.mean))


def chol_factor(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric PSD matrix.

    Tries the matrix as given, then adds each jitter from the ladder to the
    diagonal until factorization succeeds. Returns (L, jitter_used).
    """
    mat = np.asarray(mat, dtype=np.float64)
    n = mat.shape[0]
    tried = (0.0,) + JITTER_LADDER
    for jit in tried:
        try:
            target = mat if jit == 0.0 else mat + jit * np.eye(n)
            return np.linalg.cholesky(target), jit
        except np.linalg.LinAlgError:
            continue
    diag = np.diag(mat)
    raise NumericalError(
        "Cholesky failed for %dx%d matrix after jitter up to %.1e "
        "(diag range [%.3e, %.3e], est. condition %.3e)"
        % (n, n, tried[-1], diag.min(), diag.max(), _cond_estimate(mat))
    )


def _cond_estimate(mat) -> float:
    try:
        w = np.linalg.eigvalsh(mat)
        small = max(abs(w.min()), 1e-300)
        return float(abs(w.max()) / small)
    except np.linalg.LinAlgError:
        return float("inf")


def solve_triangular(L, b, overwrite_b=False) -> np.ndarray:
    """Solve L x = b for lower triangular L.

    Calls LAPACK's dtrtrs with the arguments scipy's solve_triangular
    passes for L's memory layout, so the result is bitwise scipy's without
    its per-call validation. That makes L and b float64 and finite the
    caller's promise. A Fortran-ordered L goes in as lower, untransposed;
    any other L as its C-ordered copy, which is the Fortran-ordered upper
    factor L^T, transposed (no copy if L is C-ordered). b is copied into
    Fortran order unless overwrite_b lets an owned Fortran-ordered b hold
    the result. Raises LinAlgError at a zero pivot, as scipy does.
    """
    if np.size(b) == 0:
        return np.empty_like(b, dtype=np.float64)
    x, info = _dtrtrs()(L, b, overwrite_b)
    if info > 0:
        raise np.linalg.LinAlgError(
            "singular matrix: resolution failed at diagonal %d" % (info - 1))
    if info < 0:
        raise ValueError("illegal value in %d-th argument of internal trtrs" % -info)
    return x


# Thread-count functions an OpenBLAS build may export, as (get, set) names:
# numpy's 64-bit-integer build, scipy's build, then a plain OpenBLAS.
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# LAPACK's dtrtrs as an OpenBLAS build may export it, with its integer
# type: numpy's 64-bit-integer build, a 64-bit-integer OpenBLAS, a plain one.
_DTRTRS_SYMBOLS = (
    ("scipy_dtrtrs_64_", ctypes.c_int64),
    ("dtrtrs_64_", ctypes.c_int64),
    ("dtrtrs_", ctypes.c_int),
)


@functools.cache
def _openblas_libs() -> tuple:
    """Each OpenBLAS the process has loaded, found once from its mapped
    shared objects. Empty where there is no /proc/self/maps or no OpenBLAS
    (MKL, Accelerate). They are bound as ctypes.PyDLL, whose calls keep the
    GIL: a small solve takes microseconds, and releasing and retaking the
    GIL around it would add a sizeable share to that."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()})
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.PyDLL(path))
        except OSError:
            continue
    return tuple(libs)


@functools.cache
def _blas_controls() -> tuple:
    """The (get, set) thread-count functions of each loaded OpenBLAS."""
    controls = []
    for lib in _openblas_libs():
        for get_name, set_name in _OPENBLAS_THREAD_FUNCS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                controls.append((get, put))
                break
    return tuple(controls)


@functools.cache
def _dtrtrs():
    """solve(L, b, overwrite_b) -> (x, info) for solve_triangular: dtrtrs
    from the first loaded OpenBLAS that exports one of _DTRTRS_SYMBOLS, or
    else scipy's, imported here on first use."""
    for name, int_t in _DTRTRS_SYMBOLS:
        for lib in _openblas_libs():
            fn = getattr(lib, name, None)
            if fn is not None:
                return _openblas_dtrtrs(fn, int_t)
    from scipy.linalg.lapack import dtrtrs

    def solve(L, b, overwrite_b):
        if L.flags.f_contiguous:
            return dtrtrs(L, b, lower=1, overwrite_b=overwrite_b)
        return dtrtrs(L.T, b, lower=0, trans=1, overwrite_b=overwrite_b)

    return solve


def _openblas_dtrtrs(fn, int_t):
    """solve(L, b, overwrite_b) over fn, an OpenBLAS dtrtrs taking int_t
    integers, passing what scipy's wrapper passes (solve_triangular).

    Arrays go in through ctypes.c_double.from_buffer of C-ordered float64
    memory, which must be writable, so a read-only L is copied too.
    OpenBLAS's dtrtrs is its own C routine, so no Fortran character lengths
    follow the ten arguments.
    """
    ints = ctypes.POINTER(int_t)
    doubles = ctypes.POINTER(ctypes.c_double)
    fn.argtypes = (ctypes.c_char_p,) * 3 + (ints, ints, doubles, ints, doubles, ints, ints)
    fn.restype = None
    one = int_t(1)  # LAPACK only reads it, so every call may share it

    def solve(L, b, overwrite_b):
        # the C-ordered memory of a Fortran-ordered L is L^T
        lower = L.flags.f_contiguous
        a = L.T if lower else L
        flags = a.flags
        if not (flags.c_contiguous and flags.writeable and a.dtype == np.float64):
            a = np.array(a, dtype=np.float64)
        flags = b.flags
        if overwrite_b and flags.f_contiguous and flags.writeable and b.dtype == np.float64:
            x = b
        else:
            x = np.array(b, dtype=np.float64, order="F")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or x.ndim > 2 or x.shape[0] != a.shape[0]:
            # LAPACK would read and write past the buffers
            raise ValueError("dtrtrs needs a square L and b with as many rows: %s and %s"
                             % (a.shape, x.shape))
        n, info = int_t(a.shape[0]), int_t(0)
        fn(b"L" if lower else b"U", b"N" if lower else b"T", b"N",
           n, one if x.ndim == 1 else int_t(x.shape[1]), ctypes.c_double.from_buffer(a), n,
           ctypes.c_double.from_buffer(x.T), n, info)
        return x, info.value

    return solve


@contextlib.contextmanager
def one_blas_thread():
    """Hold every loaded OpenBLAS at one thread inside the block.

    mfbo's BLAS work is gemv-sized updates and triangular solves on at most
    a few hundred rows. Threading them gains no wall time, and the idle
    workers spin after each threaded call, so a run at the default thread
    count burns about twice its wall time in CPU. Each library's count is
    saved, set to 1 and restored on exit, so a nested use leaves the outer
    state as it was. The setting is process-wide while the block runs, so
    blocks overlapping in several threads restore whatever the last one to
    leave found. It does nothing where no OpenBLAS is found. Also usable as
    a decorator: @one_blas_thread().
    """
    controls = _blas_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


def chol_logdet(mat: np.ndarray) -> float:
    """log det(mat) via Cholesky, escalating jitter on failure."""
    L, _ = chol_factor(mat)
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def gaussian_entropy(cov: np.ndarray) -> float:
    """Differential entropy 0.5*log det(2*pi*e*cov), in nats."""
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("cov must be square, got shape %s" % (cov.shape,))
    return 0.5 * (cov.shape[0] * LOG_2PI_E + chol_logdet(cov))
