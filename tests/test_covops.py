import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from mfbo import covops


def _cases(rng):
    for d in (1, 2, 6):
        for n in (1, 3, 17):
            xa = rng.uniform(-2.0, 2.0, size=(n, d))
            xb = rng.uniform(-2.0, 2.0, size=(5, d))
            ls = rng.uniform(0.3, 2.0, size=d)
            sv = float(rng.uniform(0.2, 3.0))
            yield xa, xb, ls, sv


def _direct(xa, xb, ls, sv):
    return np.array(
        [[sv * np.exp(-0.5 * np.sum(((a - b) / ls) ** 2)) for b in xb] for a in xa]
    ).reshape(len(xa), len(xb))


def test_repeat_calls_are_bitwise_equal():
    rng = np.random.default_rng(17)
    xa = rng.uniform(-2, 2, size=(9, 4))
    xb = rng.uniform(-2, 2, size=(5, 4))
    ls = rng.uniform(0.3, 2.0, size=4)
    assert np.array_equal(covops.se_sym(xa, ls, 1.1), covops.se_sym(xa, ls, 1.1))
    assert np.array_equal(covops.se_cross(xa, xb, ls, 1.1), covops.se_cross(xa, xb, ls, 1.1))


def test_sym_is_bitwise_symmetric_with_exact_diag():
    rng = np.random.default_rng(8)
    for xa, _, ls, sv in _cases(rng):
        K = covops.se_sym(xa, ls, sv)
        assert np.array_equal(K, K.T)
        assert np.all(K.diagonal() == sv)


def test_cross_matches_direct_formula():
    rng = np.random.default_rng(9)
    xa = rng.uniform(-1, 1, size=(4, 3))
    xb = rng.uniform(-1, 1, size=(6, 3))
    ls = np.array([0.5, 1.0, 2.0])
    cases = [(xa, xb, ls, 1.7)] + list(_cases(rng))
    for xa, xb, ls, sv in cases:
        K = covops.se_cross(xa, xb, ls, sv)
        assert K.shape == (len(xa), len(xb))
        assert np.allclose(K, _direct(xa, xb, ls, sv), rtol=0.0, atol=1e-14)


def test_sym_matches_direct_formula():
    rng = np.random.default_rng(10)
    for xa, _, ls, sv in _cases(rng):
        K = covops.se_sym(xa, ls, sv)
        assert K.shape == (len(xa), len(xa))
        assert np.allclose(K, _direct(xa, xa, ls, sv), rtol=0.0, atol=1e-14)


def test_sym_off_diagonal_block_is_cross_bitwise():
    # model.info_gain_set reads its cross-covariance as the off-diagonal
    # block of one symmetric build over the stacked points
    rng = np.random.default_rng(31)
    for d in range(1, 9):
        for n, k in ((1, 1), (5, 3), (16, 9)):
            a = rng.uniform(-2.0, 2.0, size=(n, d))
            b = rng.uniform(-2.0, 2.0, size=(k, d))
            b[0] = a[-1]  # a point of a repeated in b
            a[0] = a[-1]  # and within a
            ls = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=d))
            sv = float(rng.uniform(0.2, 3.0))
            K = covops.se_sym(np.vstack([a, b]), ls, sv)
            assert np.array_equal(K[:n, n:], covops.se_cross(a, b, ls, sv)), (d, n, k)
            assert np.array_equal(K[n:, :n], covops.se_cross(b, a, ls, sv)), (d, n, k)


def _scipy_cross(xa, xb, ls, sv):
    """The kernel as weighted scipy distances, which covops must match bitwise."""
    return sv * np.exp(-0.5 * cdist(xa, xb, "sqeuclidean", w=1.0 / ls**2))


def _scipy_sym(xa, ls, sv):
    return sv * np.exp(-0.5 * squareform(pdist(xa, "sqeuclidean", w=1.0 / ls**2)))


def _points(rng, n, d, repeats):
    x = rng.uniform(-2.0, 2.0, size=(n, d))
    if repeats and n > 2:
        x[1] = x[0]
        x[-1] = x[0]
    return x


# 1 x n, n x 1 and n x m blocks; the last ones span several of se_cross's
# steps, and (7282, 1) at d = 9 ends on a one-pair step
SHAPES = ((1, 1), (1, 7), (1, 600), (9, 1), (25, 1), (6, 11), (40, 300), (300, 40))


@pytest.mark.parametrize("d", range(1, 10))
def test_cross_is_bitwise_scipy_cdist(d):
    rng = np.random.default_rng(100 + d)
    shapes = SHAPES + (((1, 8000), (7282, 1)) if d == 9 else ())
    for na, nb in shapes:
        for repeats in (False, True):
            xa = _points(rng, na, d, repeats)
            xb = _points(rng, nb, d, repeats)
            if nb > 1:
                xb[-1] = xa[-1]  # a point of xa again in xb
            ls = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=d))
            sv = float(rng.uniform(0.2, 3.0))
            want = _scipy_cross(xa, xb, ls, sv)
            for order_a in "CF":
                for order_b in "CF":
                    got = covops.se_cross(np.asarray(xa, order=order_a),
                                          np.asarray(xb, order=order_b), ls, sv)
                    assert np.array_equal(got, want), (d, na, nb, repeats, order_a, order_b)


@pytest.mark.parametrize("d", range(1, 10))
def test_sym_is_bitwise_scipy_pdist(d):
    rng = np.random.default_rng(200 + d)
    for n in (1, 2, 5, 30, 120):
        for repeats in (False, True):
            x = _points(rng, n, d, repeats)
            ls = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=d))
            sv = float(rng.uniform(0.2, 3.0))
            want = _scipy_sym(x, ls, sv)
            for order in "CF":
                got = covops.se_sym(np.asarray(x, order=order), ls, sv)
                assert np.array_equal(got, want), (d, n, repeats, order)


def test_empty_point_sets():
    ls = np.array([1.0, 1.0])
    assert covops.se_sym(np.zeros((0, 2)), ls, 1.0).shape == (0, 0)
    assert covops.se_cross(np.zeros((0, 2)), np.zeros((3, 2)), ls, 1.0).shape == (0, 3)


def test_readonly_inputs_accepted():
    x = np.random.default_rng(0).standard_normal((3, 2))
    x.flags.writeable = False
    K = covops.se_sym(x, np.array([1.0, 1.0]), 1.0)
    assert K.shape == (3, 3)


def test_shape_validation():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        covops.se_cross(x, np.zeros((3, 5)), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        covops.se_sym(x, np.array([1.0, 1.0, 1.0]), 1.0)
