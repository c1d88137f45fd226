import numpy as np
import pytest
from scipy.linalg import solve_triangular

from mfbo import gp
from mfbo.gp import GpPrior, SquaredExpKernel
from mfbo.model import (
    DEGENERATE_VAR,
    Action,
    CovState,
    FidelityModel,
    _joint_sym,
)

# pass/fail lines recorded by test_acceptance, echoed after the pytest summary
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# scalar oracle for CandidateGains.gains: one action at a time, no vectorization
def info_gain_single(state: CovState, action: Action) -> float:
    """Information gain of one fresh observation about the latent f."""
    model = state.model
    model._check_fidelity(action.fidelity)
    kf = model.target_prior.kernel
    sv = kf.signal_variance
    if sv < DEGENERATE_VAR:
        return 0.0
    x1 = action.x[None, :]
    lev = action.fidelity
    prior1 = model.prior_variance(lev)
    if state.n:
        base = kf.cross(state.X, x1)[:, 0]
        wf = solve_triangular(state.L, base, lower=True, check_finite=False)
        if sv - wf @ wf < DEGENERATE_VAR:
            return 0.0
        cross = _joint_sym(model, np.vstack([state.X, x1]), np.append(state.fids, lev))[:-1, -1]
        w1 = solve_triangular(state.L, cross, lower=True, check_finite=False)
        v1 = prior1 - w1 @ w1
    else:
        v1 = prior1
    if lev < model.m:
        v0 = model.error_kernel(lev).signal_variance + model.noise_variance(lev)
        ef = state.err.get(lev)
        if ef is not None:
            ce = model.error_kernel(lev).cross(state.X[ef.idx], x1)[:, 0]
            we = solve_triangular(ef.L, ce, lower=True, check_finite=False)
            v0 = v0 - we @ we
    else:
        v0 = model.noise_variance(model.m)
    # v1 >= v0 analytically; the floors only guard zero-noise roundoff
    return 0.5 * float(np.log(max(v1, 1e-300) / max(v0, 1e-300)))


# CandidateGains.gains as first written, one full-length array operation at
# a time: the oracle for its in-place form, which must match it bit for bit.
# It reads the projections cands holds, so cands.gains() must run first.
def gains_formula(cands) -> dict[int, np.ndarray]:
    model = cands.state.model
    nc = cands.Xc.shape[0]
    sv = model.target_prior.kernel.signal_variance
    qf = cands._wf.sq
    degenerate = (sv - qf < DEGENERATE_VAR) | (sv < DEGENERATE_VAR)
    out = {}
    for lev in range(1, model.m + 1):
        low = cands._low.get(lev)
        v1 = model.prior_variance(lev) - (qf if low is None else low[0].sq)
        if lev < model.m:
            ker = model.error_kernel(lev)
            v0 = np.full(nc, ker.signal_variance + model.noise_variance(lev))
            if low is not None:
                v0 = v0 - low[1].sq
        else:
            v0 = np.full(nc, model.noise_variance(model.m))
        gains = 0.5 * np.log(np.maximum(v1, 1e-300) / np.maximum(v0, 1e-300))
        gains[degenerate] = 0.0
        out[lev] = gains
    return out


# from-scratch oracle for CandidateGains.posterior: the latent posterior at
# Xq from fresh solves, K_c built in one block. Its mean, prior + K_c^T K^-1
# (y - mu), rounds differently from the fold CandidateGains keeps, prior +
# W_f^T L^-1 (y - mu), so tests compare the two within a measured bound.
def predict_latent_diag(state: CovState, y, Xq) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and pointwise variance of f at Xq (no cross terms)
    given the values y observed at state's points."""
    model = state.model
    Xq = np.asarray(Xq, dtype=np.float64).reshape(-1, model.dim)
    kf = model.target_prior.kernel
    prior_mean = model.target_prior.mean
    sv = kf.signal_variance
    if state.n == 0:
        return np.full(Xq.shape[0], prior_mean), np.full(Xq.shape[0], sv)
    resid = np.asarray(y, dtype=np.float64) - prior_mean
    a = solve_triangular(state.L, resid, lower=True, check_finite=False)
    alpha = solve_triangular(state.L.T, a, lower=False, check_finite=False)
    Kc = kf.cross(state.X, Xq)
    mean = prior_mean + Kc.T @ alpha
    W = solve_triangular(state.L, Kc, lower=True, check_finite=False)
    var = np.maximum(sv - np.einsum("ij,ij->j", W, W), 0.0)
    return mean, var


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def blas_threads(controls) -> list[int]:
    return [get() for get, _ in controls]


@pytest.fixture
def blas_at_two():
    """The thread controls of every loaded OpenBLAS, each set to 2 threads:
    a caller's count that gp.one_blas_thread must restore. The counts as
    found come back after the test."""
    controls = gp._blas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    saved = blas_threads(controls)
    for _, put in controls:
        put(2)
    yield controls
    for (_, put), count in zip(controls, saved):
        put(count)


@pytest.fixture
def two_fid_model() -> FidelityModel:
    """Small 2-fidelity 1-d model with round numbers, handy for oracles."""
    target = GpPrior(
        SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.4])),
        noise_variance=0.05,
        mean=0.0,
    )
    err = GpPrior(
        SquaredExpKernel(signal_variance=0.25, lengthscales=np.array([0.6])),
        noise_variance=0.02,
    )
    return FidelityModel(target_prior=target, error_priors=(err,), costs=np.array([1.0, 3.0]))


@pytest.fixture
def three_fid_model() -> FidelityModel:
    target = GpPrior(
        SquaredExpKernel(signal_variance=2.0, lengthscales=np.array([0.5, 0.8])),
        noise_variance=0.1,
        mean=1.0,
    )
    errs = (
        GpPrior(SquaredExpKernel(signal_variance=0.5, lengthscales=np.array([0.7, 0.7])),
                noise_variance=0.04),
        GpPrior(SquaredExpKernel(signal_variance=0.2, lengthscales=np.array([1.0, 1.0])),
                noise_variance=0.03),
    )
    return FidelityModel(target_prior=target, error_priors=errs, costs=np.array([1.0, 2.0, 4.0]))
