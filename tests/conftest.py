import numpy as np
import pytest
from scipy.linalg import solve_triangular

from mfbo.gp import GpPrior, SquaredExpKernel
from mfbo.model import (
    DEGENERATE_VAR,
    Action,
    CovState,
    FidelityModel,
    History,
    _joint_cross,
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
def info_gain_single(history: History, action: Action, state: CovState | None = None) -> float:
    """Information gain of one fresh observation about the latent f."""
    cov = state if state is not None else history.cov
    model = cov.model
    model._check_fidelity(action.fidelity)
    kf = model.target_prior.kernel
    sv = kf.signal_variance
    if sv < DEGENERATE_VAR:
        return 0.0
    x1 = action.x[None, :]
    lev = action.fidelity
    prior1 = model.prior_variance(lev)
    if cov.n:
        base = kf.cross(cov.X, x1)[:, 0]
        wf = solve_triangular(cov.L, base, lower=True, check_finite=False)
        if sv - wf @ wf < DEGENERATE_VAR:
            return 0.0
        f1 = np.array([lev], dtype=np.int64)
        cross = _joint_cross(model, cov.X, cov.fids, x1, f1)[:, 0]
        w1 = solve_triangular(cov.L, cross, lower=True, check_finite=False)
        v1 = prior1 - w1 @ w1
    else:
        v1 = prior1
    if lev < model.m:
        v0 = model.error_kernel(lev).signal_variance + model.noise_variance(lev)
        ef = cov.err.get(lev)
        if ef is not None:
            ce = model.error_kernel(lev).cross(cov.X[ef.idx], x1)[:, 0]
            we = solve_triangular(ef.L, ce, lower=True, check_finite=False)
            v0 = v0 - we @ we
    else:
        v0 = model.noise_variance(model.m)
    # v1 >= v0 analytically; the floors only guard zero-noise roundoff
    return 0.5 * float(np.log(max(v1, 1e-300) / max(v0, 1e-300)))


# from-scratch oracle for CandidateGains.posterior: the latent posterior at
# Xq from one fresh solve, K_c built in one block
def predict_latent_diag(history: History, Xq) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and pointwise variance of f at Xq (no cross terms)."""
    model = history.model
    Xq = np.asarray(Xq, dtype=np.float64).reshape(-1, model.dim)
    kf = model.target_prior.kernel
    prior_mean = model.target_prior.mean_at(Xq)
    sv = kf.signal_variance
    if len(history) == 0:
        return prior_mean, np.full(Xq.shape[0], sv)
    Kc = kf.cross(history.cov.X, Xq)
    mean = prior_mean + Kc.T @ history.alpha
    W = solve_triangular(history.cov.L, Kc, lower=True, check_finite=False)
    var = np.maximum(sv - np.einsum("ij,ij->j", W, W), 0.0)
    return mean, var


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


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
