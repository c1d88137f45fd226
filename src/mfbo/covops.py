"""Squared-exponential covariance blocks in numpy, bitwise scipy's weighted
squared Euclidean distances.

The squared distance of points a and b is

    d2 = sum_k ((a-b)_k * w_k) * (a-b)_k,  w = 1/lengthscale**2,

added over dimensions k in order, which is bit for bit what scipy's
cdist/pdist "sqeuclidean" with weights w compute. Dividing the inputs by
the lengthscales first rounds differently and is enough to flip near-tied
greedy choices. The terms are laid out dimension-major, a C-ordered
(d, ...) block, and summed over its first axis, which numpy adds in order.
A sum over a contiguous axis would add 8 or more terms pairwise and change
the bits, and so would a sum over the first axis when the rest of the
block is one element, so that case uses the running sum instead.
"""

import numpy as np

# Elements of one dimension-major block of differences: se_cross takes the
# rows of xa in steps that keep each block within it, so a block against a
# few thousand candidates is one row of xa at a time
BLOCK_ELEMS = 1 << 16


def _prep(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-d point array, got shape %s" % (x.shape,))
    return x


def _sq_dist(xa, xb, w) -> np.ndarray:
    """d2[i, j] of xa's row i and xb's row j, C-ordered, xb's points along
    the contiguous axis. xb stored dimension-major (Fortran-ordered) gives
    contiguous rows to the subtraction."""
    na, d = xa.shape
    nb = xb.shape[0]
    d2 = np.empty((na, nb))
    step = max(1, BLOCK_ELEMS // max(d * nb, 1))
    a, b, w = xa.T[:, :, None], xb.T[:, None, :], w[:, None, None]
    for i in range(0, na, step):
        diff = np.subtract(b, a[:, i:i + step], order="C")  # (d, rows, nb)
        t = np.multiply(diff, w, order="C")
        t *= diff
        if t[0].size > 1:
            np.add.reduce(t, axis=0, out=d2[i:i + step])
        else:
            d2[i:i + step] = np.add.accumulate(t, axis=0)[-1]
    return d2


def se_cross(xa, xb, lengthscales, signal_variance):
    """k(xa_i, xb_j) = signal_variance * exp(-0.5 * sum_k ((a-b)_k/ls_k)^2),
    C-ordered."""
    xa = _prep(xa)
    xb = _prep(xb)
    ls = np.asarray(lengthscales, dtype=np.float64)
    if xa.shape[1] != xb.shape[1] or xa.shape[1] != ls.shape[0]:
        raise ValueError(
            "dimension mismatch: xa %s, xb %s, lengthscales %s"
            % (xa.shape, xb.shape, ls.shape)
        )
    k = _sq_dist(xa, xb, 1.0 / ls**2)
    k *= -0.5
    np.exp(k, out=k)
    k *= float(signal_variance)
    return k


def se_sym(xa, lengthscales, signal_variance):
    """Symmetric SE covariance of one point set, se_cross(xa, xa).

    (a-b)_k and (b-a)_k differ only in sign, so the result is bitwise
    symmetric, and its diagonal is exactly signal_variance.
    """
    return se_cross(xa, xa, lengthscales, signal_variance)
