import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import blas_threads
from mfbo import gp
from mfbo.gp import (
    NumericalError,
    SquaredExpKernel,
    chol_factor,
    chol_logdet,
    gaussian_entropy,
    one_blas_thread,
    solve_triangular,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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

    def test_empty_matrix(self):
        L, used = chol_factor(np.zeros((0, 0)))
        assert L.shape == (0, 0) and used == 0.0


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

    def test_empty_matrix(self):
        assert gaussian_entropy(np.zeros((0, 0))) == 0.0


class TestSolveTriangular:
    """The direct LAPACK solve against scipy.linalg.solve_triangular, which
    it must match bit for bit."""

    @staticmethod
    def _factor(rng, n):
        A = rng.standard_normal((n, n))
        return np.linalg.cholesky(A @ A.T + n * np.eye(n))

    @staticmethod
    def _layout(L, order):
        """L Fortran- or C-ordered, or as "view" the trailing block of a
        larger C-ordered factor, a strided view like the posterior fold's
        state.L[k:, k:]."""
        if order != "view":
            return np.asarray(L, order=order)
        n = L.shape[0]
        big = np.eye(n + 3)
        big[3:, 3:] = L
        big[3:, :3] = 0.25
        return big[3:, 3:]

    @pytest.mark.parametrize("order", ["C", "F", "view"])
    @pytest.mark.parametrize("rhs", [(), (1,), (7,)])
    # The plain solve keeps its ids [0-rhs*-*]; overwrite_b=True must give
    # the same bits whether or not b's layout lets dtrtrs solve in place.
    @pytest.mark.parametrize("overwrite_b", [False, True], ids=["0", "overwrite"])
    def test_bitwise_scipy(self, rng, order, rhs, overwrite_b):
        for n in (1, 2, 9, 40):
            L = self._layout(self._factor(rng, n), order)
            b = rng.standard_normal((n,) + rhs)
            want = scipy.linalg.solve_triangular(L, b, lower=True, check_finite=False)
            got = solve_triangular(L, b, overwrite_b=overwrite_b)
            assert got.shape == b.shape
            assert np.array_equal(got, want)

    def test_overwrite_b_on_an_owned_fortran_block(self, rng):
        L = self._factor(rng, 12)
        b = np.asfortranarray(rng.standard_normal((12, 30)))
        want = scipy.linalg.solve_triangular(L, b, lower=True, check_finite=False)
        got = solve_triangular(L, b, overwrite_b=True)
        assert np.array_equal(got, want)
        assert np.shares_memory(got, b)  # solved in place

    def test_zero_rows(self):
        for b in (np.zeros((0, 5), order="F"), np.zeros(0)):
            want = scipy.linalg.solve_triangular(np.zeros((0, 0)), b, lower=True)
            got = solve_triangular(np.zeros((0, 0)), b, overwrite_b=True)
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", ["C", "F", "view"])
    def test_zero_pivot_raises(self, order):
        L = self._layout(np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.2, 0.3, 1.0]]), order)
        b = np.ones(3)
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
            scipy.linalg.solve_triangular(L, b, lower=True)
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
            solve_triangular(L, b)

    @pytest.mark.parametrize("L, b", [
        (np.eye(3), np.ones(2)), (np.eye(3), np.ones((4, 2))), (np.ones((3, 2)), np.ones(3)),
        (np.eye(2), np.ones((2, 1, 1))),
    ])
    def test_shape_mismatch_raises(self, L, b):
        with pytest.raises(ValueError):
            scipy.linalg.solve_triangular(L, b, lower=True)
        with pytest.raises(ValueError):
            solve_triangular(L, b)

    def test_read_only_factor(self, rng):
        L = self._factor(rng, 12)
        L.flags.writeable = False
        b = rng.standard_normal((12, 3))
        want = scipy.linalg.solve_triangular(L, b, lower=True, check_finite=False)
        for layout in (L, L.T.T, np.asfortranarray(L)):
            layout.flags.writeable = False
            assert np.array_equal(solve_triangular(layout, b), want)

    def test_binds_the_openblas_numpy_maps(self):
        # scipy is loaded in this process too; the solve must still use
        # numpy's library, not fall back to scipy's wrapper
        if not any(getattr(lib, name, None) is not None
                   for lib in gp._openblas_libs() for name, _ in gp._DTRTRS_SYMBOLS):
            pytest.skip("no OpenBLAS with dtrtrs is loaded")
        assert gp._dtrtrs().__qualname__.startswith("_openblas_dtrtrs")

    @pytest.mark.parametrize("order", ["C", "F", "view"])
    @pytest.mark.parametrize("overwrite_b", [False, True], ids=["0", "overwrite"])
    def test_scipy_fallback_in_process(self, rng, monkeypatch, order, overwrite_b):
        # the solve numpy builds without OpenBLAS (MKL, Accelerate) bind
        monkeypatch.setattr(gp, "_openblas_libs", lambda: ())
        solve = gp._dtrtrs.__wrapped__()
        assert solve.__qualname__.startswith("_dtrtrs")
        for n in (1, 5, 40, 150):
            L = self._layout(self._factor(rng, n), order)
            for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                want = scipy.linalg.solve_triangular(L, b, lower=True, check_finite=False)
                x, info = solve(L, np.array(b, order="F"), overwrite_b)
                assert info == 0 and x.shape == b.shape
                assert np.array_equal(x, want)

    def test_fallback_to_scipy_when_no_symbol_is_found(self):
        # a fresh process whose lookup misses: scipy is imported at the
        # first solve, not before, and gives scipy's bits in every layout
        code = """
import json, sys
import numpy as np
from mfbo import gp
gp._DTRTRS_SYMBOLS = ()
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
rng = np.random.default_rng(7)
A = rng.standard_normal((30, 30))
L = np.linalg.cholesky(A @ A.T + 30 * np.eye(30))
big = np.eye(33)
big[3:, 3:] = L
layouts = [L, np.asfortranarray(L), big[3:, 3:]]
bs = [rng.standard_normal(30), rng.standard_normal((30, 4))]
got = [gp.solve_triangular(M, b) for M in layouts for b in bs]
loaded_by_solve = "scipy.linalg.lapack" in sys.modules
import scipy.linalg
want = [scipy.linalg.solve_triangular(M, b, lower=True, check_finite=False)
        for M in layouts for b in bs]
Z = np.array([[1.0, 0.0], [0.5, 0.0]])
try:
    gp.solve_triangular(Z, np.ones(2))
    message = None
except np.linalg.LinAlgError as exc:
    message = str(exc)
print(json.dumps({"loaded_before": loaded, "loaded_by_solve": loaded_by_solve,
                  "bound": gp._dtrtrs().__qualname__,
                  "bitwise": [bool(np.array_equal(g, w)) for g, w in zip(got, want)],
                  "message": message}))
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(proc.stdout)
        assert out["loaded_before"] == [] and out["loaded_by_solve"]
        assert out["bound"].startswith("_dtrtrs")  # scipy's wrapper, not an OpenBLAS binding
        assert out["bitwise"] == [True] * 6
        assert out["message"] == "singular matrix: resolution failed at diagonal 1"


class TestOneBlasThread:
    def test_controls_every_loaded_openblas(self):
        try:
            with open("/proc/self/maps") as fh:
                fields = [line.split(maxsplit=5) for line in fh]
        except OSError:
            pytest.skip("no /proc/self/maps")
        paths = {f[5].strip() for f in fields
                 if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()}
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" in blas.lower():
            assert paths, "numpy reports %s but no OpenBLAS is mapped" % blas
        assert len(gp._blas_controls()) == len(paths)

    def test_one_thread_inside_caller_count_after(self, blas_at_two):
        with one_blas_thread():
            assert blas_threads(blas_at_two) == [1] * len(blas_at_two)
        assert blas_threads(blas_at_two) == [2] * len(blas_at_two)

    def test_restores_when_the_block_raises(self, blas_at_two):
        with pytest.raises(KeyError):
            with one_blas_thread():
                raise KeyError("inside")
        assert blas_threads(blas_at_two) == [2] * len(blas_at_two)

    def test_nested_use_keeps_the_outer_state(self, blas_at_two):
        one = [1] * len(blas_at_two)
        with one_blas_thread():
            with one_blas_thread():
                assert blas_threads(blas_at_two) == one
            assert blas_threads(blas_at_two) == one
        assert blas_threads(blas_at_two) == [2] * len(blas_at_two)

    def test_no_library_found_is_a_noop(self, blas_at_two, monkeypatch):
        monkeypatch.setattr(gp, "_blas_controls", lambda: ())
        with one_blas_thread():
            assert blas_threads(blas_at_two) == [2] * len(blas_at_two)
        assert blas_threads(blas_at_two) == [2] * len(blas_at_two)
