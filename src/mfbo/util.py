"""Small shared helpers: deterministic seed mixing, quasi-uniform points and
the shape check of a point matrix."""

from __future__ import annotations

import math

import numpy as np

_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def mix64(*parts) -> int:
    """Fold ints and strings into one 64-bit seed.

    Each part is serialized (ints as their 64-bit value, strings as utf-8
    bytes plus a length tag) and folded through splitmix64, so e.g.
    mix64(seed, "noise") and mix64(seed, "candidates") give decorrelated
    streams and the derivation is reproducible across platforms.
    """
    h = 0x8000000000000000
    for part in parts:
        if isinstance(part, (int, np.integer)):
            h = _splitmix64(h ^ (int(part) & _M64))
        elif isinstance(part, str):
            data = part.encode("utf-8")
            h = _splitmix64(h ^ len(data))
            for i in range(0, len(data), 8):
                chunk = int.from_bytes(data[i : i + 8], "little")
                h = _splitmix64(h ^ chunk)
        else:
            raise TypeError("mix64 parts must be ints or strings, got %r" % (part,))
    return h


def _first_primes(d: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def halton_points(bounds: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n points of the scrambled Halton sequence in the box bounds (d, 2).

    This is Owen's randomized Halton (arXiv 1706.02808), bitwise equal to
    scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(n) scaled to
    the box, in the same (column-major) memory layout. Coordinate k uses
    the k-th prime as its base b and ceil(54 / log2(b)) - 1 digit
    permutations, each a shuffle of arange(b) drawn in turn from
    default_rng(seed). Point i's coordinate is the sum of
    perm_j[digit_j(i)] / b**(j+1) over the digits j, added from the lowest
    digit up; that order is what makes it bitwise.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[0] < 1 or bounds.shape[1] != 2:
        raise ValueError("bounds must be a (d, 2) array with d >= 1, got shape %s"
                         % (bounds.shape,))
    if not np.isfinite(bounds).all():
        raise ValueError("bounds must be finite")
    if n < 0:
        raise ValueError("point count must be >= 0, got %d" % n)
    d = bounds.shape[0]
    rng = np.random.default_rng(seed)
    unit = np.zeros((d, n))
    for k, base in enumerate(_first_primes(d)):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        s = unit[k]
        q = np.arange(n, dtype=np.int64)
        b2r = 1.0 / base
        for perm in perms:
            # q is nondecreasing, so once its last entry is 0 every digit left is 0
            if n and q[-1]:
                q, digit = np.divmod(q, base)
                s += perm[digit] * b2r
            else:
                s += perm[0] * b2r
            b2r /= base
    return bounds[:, 0] + unit.T * (bounds[:, 1] - bounds[:, 0])


def as_points(X, dim: int) -> np.ndarray:
    """X as a float (n, dim) matrix; ValueError if it is not one."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError("X must be an (n, %d) matrix of points, got shape %s" % (dim, X.shape))
    return X
