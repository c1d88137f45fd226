"""Exact Gaussian-process inference on finite point sets.

Squared-exponential kernels, Cholesky-based posteriors, Gaussian entropies
and log-determinants. Everything here is plain conditioning of a joint
Gaussian; the multi-fidelity structure lives one layer up in mfbo.model.

Conventions: covariances are dense float64 arrays, entropies are in nats,
and every factorization runs through the same escalating-jitter ladder so
numerical failures surface as a single exception type (NumericalError).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from scipy.linalg import solve_triangular

from . import covops

# Jitter ladder for factorizations: try the matrix as given, then escalate.
JITTER_LADDER = (1e-10, 1e-8, 1e-6)

LOG_2PI_E = float(np.log(2.0 * np.pi) + 1.0)


class NumericalError(RuntimeError):
    """A covariance factorization failed even at the largest jitter."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class GpPrior:
    """GP prior with a constant mean and homoscedastic observation noise."""

    kernel: SquaredExpKernel
    noise_variance: float = 0.0
    mean: float = 0.0

    def __post_init__(self):
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        object.__setattr__(self, "mean", float(self.mean))

    def mean_at(self, X) -> np.ndarray:
        return np.full(np.shape(X)[0], self.mean)


def chol_factor(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric PSD matrix.

    Tries the matrix as given, then adds each jitter from the ladder to the
    diagonal until factorization succeeds. Returns (L, jitter_used).
    """
    mat = np.asarray(mat, dtype=np.float64)
    n = mat.shape[0]
    if n == 0:
        return np.zeros((0, 0)), 0.0
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


def chol_logdet(mat: np.ndarray) -> float:
    """log det(mat) via Cholesky, escalating jitter on failure."""
    L, _ = chol_factor(mat)
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def gaussian_entropy(cov: np.ndarray) -> float:
    """Differential entropy 0.5*log det(2*pi*e*cov), in nats."""
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("cov must be square, got shape %s" % (cov.shape,))
    n = cov.shape[0]
    if n == 0:
        return 0.0
    return 0.5 * (n * LOG_2PI_E + chol_logdet(cov))


def posterior(prior: GpPrior, X, y, Xq) -> tuple[np.ndarray, np.ndarray]:
    """Exact GP posterior mean and covariance at query points.

    mean_S(x)  = m(x) + k_S(x)' K_S^-1 (y - m(X))
    cov_S(x,x') = k(x,x') - k_S(x)' K_S^-1 k_S(x')
    with K_S = K(X, X) + noise_variance * I. Empty X returns the prior.
    """
    Xq = np.asarray(Xq, dtype=np.float64)
    if Xq.ndim != 2:
        raise ValueError("Xq must be (q, d)")
    X = np.asarray(X, dtype=np.float64).reshape(-1, Xq.shape[1])
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y lengths differ: %d vs %d" % (X.shape[0], y.shape[0]))
    k = prior.kernel
    prior_cov = k.sym(Xq)
    prior_mean = prior.mean_at(Xq)
    if X.shape[0] == 0:
        return prior_mean, prior_cov
    K = k.sym(X)
    K[np.diag_indices_from(K)] += prior.noise_variance
    L, _ = chol_factor(K)
    W = solve_triangular(L, k.cross(X, Xq), lower=True)
    a = solve_triangular(L, y - prior.mean_at(X), lower=True)
    mean = prior_mean + W.T @ a
    cov = prior_cov - W.T @ W
    cov = 0.5 * (cov + cov.T)
    return mean, cov
