import numpy as np
import pytest

from mfbo.gp import (
    GpPrior,
    NumericalError,
    SquaredExpKernel,
    chol_factor,
    chol_logdet,
    gaussian_entropy,
    posterior,
)


def dense_se(kern, Xa, Xb):
    diff = Xa[:, None, :] - Xb[None, :, :]
    return kern.signal_variance * np.exp(-0.5 * np.sum((diff / kern.lengthscales) ** 2, axis=2))


class TestKernel:
    def test_diagonal_is_signal_variance(self):
        x = np.array([[0.0], [0.7]])
        for sv in (1.0, 2.0):
            k = SquaredExpKernel(signal_variance=sv, lengthscales=np.array([1.0]))
            assert np.all(np.diag(k.sym(x)) == sv)
            assert k.cross(x[:1], x[:1])[0, 0] == sv

    def test_unit_distance_value(self):
        k = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0]))
        v = k.cross(np.array([[0.0]]), np.array([[1.0]]))[0, 0]
        assert v == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_symmetry_and_range(self, rng):
        k = SquaredExpKernel(signal_variance=1.3, lengthscales=np.array([0.5, 2.0]))
        xa = rng.uniform(-3, 3, size=(20, 2))
        xb = rng.uniform(-3, 3, size=(20, 2))
        C = k.cross(xa, xb)
        assert np.array_equal(C, k.cross(xb, xa).T)
        assert np.all((C > 0.0) & (C <= 1.3))
        S = k.sym(xa)
        assert np.array_equal(S, S.T)

    def test_validation(self):
        with pytest.raises(ValueError):
            SquaredExpKernel(signal_variance=0.0, lengthscales=np.array([1.0]))
        with pytest.raises(ValueError):
            SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0, -1.0]))
        k = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0]))
        with pytest.raises(ValueError):
            k.cross(np.array([[0.0, 0.0]]), np.array([[0.0]]))
        with pytest.raises(ValueError):
            k.sym(np.array([[0.0, 0.0]]))

    def test_scaled(self):
        k = SquaredExpKernel(signal_variance=2.0, lengthscales=np.array([1.0, 4.0]))
        s = k.scaled(ls_factor=0.5, sv_factor=2.0)
        assert s.signal_variance == 4.0
        assert np.allclose(s.lengthscales, [0.5, 2.0])


class TestCholesky:
    def test_identity_logdet_zero(self):
        assert chol_logdet(np.eye(3)) == 0.0

    def test_diag_logdet(self):
        assert chol_logdet(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), abs=1e-12)

    def test_random_spd_matches_dense_det(self, rng):
        for _ in range(10):
            A = rng.standard_normal((4, 4))
            M = A @ A.T + 0.5 * np.eye(4)
            assert chol_logdet(M) == pytest.approx(np.log(np.linalg.det(M)), abs=1e-8)

    def test_jitter_ladder_reports_used_value(self):
        # rank-deficient: needs jitter, and the ladder should find one
        M = np.ones((3, 3))
        L, used = chol_factor(M)
        assert used > 0.0
        assert np.allclose(L @ L.T, M + used * np.eye(3), atol=1e-8)

    def test_hopeless_matrix_raises_with_diagnostics(self):
        M = np.array([[1.0, 0.0], [0.0, -5.0]])
        with pytest.raises(NumericalError) as exc:
            chol_factor(M)
        assert "2x2" in str(exc.value)


class TestEntropy:
    def test_scalar_unit_variance(self):
        assert gaussian_entropy(np.array([[1.0]])) == pytest.approx(1.4189385332046727, abs=1e-12)

    def test_scalar_variance_four(self):
        expect = 0.5 * np.log(2.0 * np.pi * np.e * 4.0)
        assert gaussian_entropy(np.array([[4.0]])) == pytest.approx(expect, abs=1e-12)

    def test_diagonal_additivity(self):
        h = gaussian_entropy(np.diag([0.7, 2.5]))
        ha = gaussian_entropy(np.array([[0.7]]))
        hb = gaussian_entropy(np.array([[2.5]]))
        assert h == pytest.approx(ha + hb, abs=1e-10)


class TestPosterior:
    def test_empty_conditioning_returns_prior(self, rng):
        kern = SquaredExpKernel(signal_variance=1.5, lengthscales=np.array([0.7]))
        prior = GpPrior(kern, noise_variance=0.1, mean=2.0)
        Xq = rng.uniform(-1, 1, size=(4, 1))
        mean, cov = posterior(prior, np.zeros((0, 1)), np.zeros(0), Xq)
        assert np.allclose(mean, 2.0)
        assert np.allclose(cov, dense_se(kern, Xq, Xq), atol=1e-12)

    def test_single_point_hand_oracle(self):
        # k(x,x)=1, noise 0.25: mean = y/1.25, var = 1 - 1/1.25
        kern = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0]))
        prior = GpPrior(kern, noise_variance=0.25)
        X = np.array([[0.3]])
        for y0 in (2.0, -1.0, 0.0):
            mean, cov = posterior(prior, X, np.array([y0]), X)
            assert mean[0] == pytest.approx(0.8 * y0, abs=1e-12)
            assert cov[0, 0] == pytest.approx(0.2, abs=1e-12)

    def test_duplicated_query_points_give_identical_rows(self, rng):
        kern = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.5]))
        prior = GpPrior(kern, noise_variance=0.1)
        X = rng.uniform(-1, 1, size=(3, 1))
        y = rng.standard_normal(3)
        Xq = np.array([[0.2], [0.2], [0.7]])
        mean, cov = posterior(prior, X, y, Xq)
        assert mean[0] == mean[1]
        assert np.allclose(cov[0], cov[1], atol=1e-12)
        assert np.allclose(cov[:, 0], cov[:, 1], atol=1e-12)

    def test_matches_dense_inverse_oracle(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            kern = SquaredExpKernel(
                signal_variance=float(rng.uniform(0.3, 3.0)),
                lengthscales=rng.uniform(0.3, 2.0, size=d),
            )
            prior = GpPrior(kern, noise_variance=float(rng.uniform(1e-4, 0.5)),
                            mean=float(rng.uniform(-1, 1)))
            X = rng.uniform(-1, 1, size=(n, d))
            y = rng.standard_normal(n)
            Xq = rng.uniform(-1, 1, size=(5, d))
            mean, cov = posterior(prior, X, y, Xq)
            K = dense_se(kern, X, X) + prior.noise_variance * np.eye(n)
            Ks = dense_se(kern, Xq, X)
            Kinv = np.linalg.inv(K)
            mean0 = prior.mean_at(Xq) + Ks @ Kinv @ (y - prior.mean_at(X))
            cov0 = dense_se(kern, Xq, Xq) - Ks @ Kinv @ Ks.T
            assert np.max(np.abs(mean - mean0)) < 1e-8
            assert np.max(np.abs(cov - cov0)) < 1e-8

    def test_variance_monotone_under_more_data(self, rng):
        kern = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.6]))
        prior = GpPrior(kern, noise_variance=0.05)
        X = rng.uniform(-1, 1, size=(8, 1))
        y = rng.standard_normal(8)
        Xq = rng.uniform(-1, 1, size=(6, 1))
        for k in range(8):
            _, cov_small = posterior(prior, X[:k], y[:k], Xq)
            _, cov_big = posterior(prior, X[: k + 1], y[: k + 1], Xq)
            assert np.all(np.diag(cov_big) <= np.diag(cov_small) + 1e-9)

    def test_zero_noise_interpolates(self, rng):
        kern = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.8]))
        prior = GpPrior(kern, noise_variance=0.0)
        X = rng.uniform(-1, 1, size=(5, 1))
        y = rng.standard_normal(5)
        mean, cov = posterior(prior, X, y, X)
        assert np.max(np.abs(mean - y)) < 1e-8
        assert np.all(np.diag(cov) <= 1e-8)

    def test_mismatched_lengths_raise(self):
        kern = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0]))
        prior = GpPrior(kern, noise_variance=0.1)
        with pytest.raises(ValueError):
            posterior(prior, np.zeros((2, 1)), np.zeros(3), np.zeros((1, 1)))
