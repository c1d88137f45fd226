"""Squared-exponential covariance blocks via weighted scipy distances.

Distances are taken with weights w = 1/lengthscale**2 rather than on
pre-scaled inputs: the weighted form accumulates (a-b)**2 * w per
dimension, while dividing the inputs by the lengthscales first rounds
differently and is enough to flip near-tied greedy choices.
"""

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform


def _prep(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-d point array, got shape %s" % (x.shape,))
    return x


def se_cross(xa, xb, lengthscales, signal_variance):
    """k(xa_i, xb_j) = signal_variance * exp(-0.5 * sum_k ((a-b)_k/ls_k)^2)."""
    xa = _prep(xa)
    xb = _prep(xb)
    ls = np.ascontiguousarray(lengthscales, dtype=np.float64)
    if xa.shape[1] != xb.shape[1] or xa.shape[1] != ls.shape[0]:
        raise ValueError(
            "dimension mismatch: xa %s, xb %s, lengthscales %s"
            % (xa.shape, xb.shape, ls.shape)
        )
    d2 = cdist(xa, xb, "sqeuclidean", w=1.0 / ls**2)
    return float(signal_variance) * np.exp(-0.5 * d2)


def se_sym(xa, lengthscales, signal_variance):
    """Symmetric SE covariance of one point set.

    squareform mirrors one condensed distance vector and leaves a zero
    diagonal, so the result is bitwise symmetric with diagonal exactly
    signal_variance.
    """
    xa = _prep(xa)
    ls = np.ascontiguousarray(lengthscales, dtype=np.float64)
    if xa.shape[1] != ls.shape[0]:
        raise ValueError(
            "dimension mismatch: xa %s, lengthscales %s" % (xa.shape, ls.shape)
        )
    if xa.shape[0] == 0:  # squareform would read an empty vector as 1x1
        return np.empty((0, 0))
    d2 = squareform(pdist(xa, "sqeuclidean", w=1.0 / ls**2))
    return float(signal_variance) * np.exp(-0.5 * d2)
