"""Additive multi-output GP over fidelities.

An observation at fidelity l of point x is modeled as

    y = f(x) + eps_l(x) + noise_l        (l < m, independent GP eps_l)
    y = f(x) + noise_m                   (l = m, the target fidelity)

so any two observations are jointly Gaussian with covariance

    k_f(x, x') + [l == l' < m] * k_{eps_l}(x, x') + [same observation] * s2_l.

Everything downstream (posteriors over the latent target f, information
gains of candidate queries about f) is exact conditioning in that joint
Gaussian. Information gains need no observed values, only locations, which
is what lets the exploration routine score hypothetical query sets.

Fidelities are 1-based; m = number of fidelities = target index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .gp import (
    LOG_2PI_E,
    GpPrior,
    NumericalError,
    SquaredExpKernel,
    chol_factor,
    gaussian_entropy,
)

# A history factorization is extended incrementally; every REBUILD_EVERY
# appends it is recomputed from scratch to stop error accumulation.
REBUILD_EVERY = 25

# Below this latent variance a query point is treated as already known and
# its information gain is exactly zero (avoids log(0/0) degeneracies).
DEGENERATE_VAR = 1e-12


@dataclass(frozen=True, eq=False)
class Action:
    """A query: point x at a fidelity level (1-based, m = target)."""

    x: np.ndarray
    fidelity: int

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64).reshape(-1)
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "fidelity", int(self.fidelity))
        if self.fidelity < 1:
            raise ValueError("fidelity must be >= 1")


@dataclass(frozen=True, eq=False)
class Observation:
    action: Action
    y: float

    def __post_init__(self):
        object.__setattr__(self, "y", float(self.y))


@dataclass(frozen=True)
class FidelityModel:
    """Joint prior: target GP plus one disturbance GP per lower fidelity.

    target_prior.noise_variance is the target-fidelity observation noise;
    error_priors[l-1].noise_variance is fidelity l's. Error priors must be
    zero-mean (the additive decomposition puts all mean structure in f).
    costs[l-1] is the query cost of fidelity l, strictly positive.
    """

    target_prior: GpPrior
    error_priors: tuple[GpPrior, ...]
    costs: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=np.float64).reshape(-1)
        if costs.shape[0] != len(self.error_priors) + 1:
            raise ValueError(
                "need one cost per fidelity: %d costs for m=%d"
                % (costs.shape[0], len(self.error_priors) + 1)
            )
        if not np.all(costs > 0):
            raise ValueError("costs must be strictly positive")
        for p in self.error_priors:
            if callable(p.mean) or float(p.mean) != 0.0:
                raise ValueError("error priors must be zero-mean")
            if p.kernel.dim != self.target_prior.kernel.dim:
                raise ValueError("error prior dimension mismatch")
        costs.flags.writeable = False
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "error_priors", tuple(self.error_priors))

    @property
    def m(self) -> int:
        return len(self.error_priors) + 1

    @property
    def dim(self) -> int:
        return self.target_prior.kernel.dim

    @property
    def target_cost(self) -> float:
        return float(self.costs[-1])

    def cost(self, fidelity: int) -> float:
        self._check_fidelity(fidelity)
        return float(self.costs[fidelity - 1])

    def noise_variance(self, fidelity: int) -> float:
        self._check_fidelity(fidelity)
        if fidelity == self.m:
            return self.target_prior.noise_variance
        return self.error_priors[fidelity - 1].noise_variance

    def error_kernel(self, fidelity: int) -> SquaredExpKernel:
        self._check_fidelity(fidelity)
        return self.error_priors[fidelity - 1].kernel

    def prior_variance(self, fidelity: int) -> float:
        """Marginal variance of a single observation at this fidelity."""
        v = self.target_prior.kernel.signal_variance + self.noise_variance(fidelity)
        if fidelity < self.m:
            v += self.error_kernel(fidelity).signal_variance
        return v

    def scaled(self, ls_factor: float = 1.0, sv_factor: float = 1.0) -> "FidelityModel":
        """Copy with all kernels rescaled (noise and costs unchanged)."""
        tp = self.target_prior
        return FidelityModel(
            target_prior=GpPrior(
                kernel=tp.kernel.scaled(ls_factor, sv_factor),
                noise_variance=tp.noise_variance,
                mean=tp.mean,
            ),
            error_priors=tuple(
                GpPrior(
                    kernel=p.kernel.scaled(ls_factor, sv_factor),
                    noise_variance=p.noise_variance,
                )
                for p in self.error_priors
            ),
            costs=self.costs.copy(),
        )

    def _check_fidelity(self, fidelity: int):
        if not 1 <= fidelity <= self.m:
            raise ValueError("fidelity %r out of range 1..%d" % (fidelity, self.m))


# --------------------------------------------------------------------------
# dense joint covariance builders

def _joint_sym(model: FidelityModel, X: np.ndarray, fids: np.ndarray) -> np.ndarray:
    """Joint covariance of n distinct observations (noise on the diagonal)."""
    K = model.target_prior.kernel.sym(X)
    for lev in range(1, model.m):
        idx = np.flatnonzero(fids == lev)
        if idx.size:
            K[np.ix_(idx, idx)] += model.error_kernel(lev).sym(X[idx])
    K[np.diag_indices_from(K)] += np.array(
        [model.noise_variance(int(f)) for f in fids]
    )
    return K


def _joint_cross(model, Xa, fida, Xb, fidb) -> np.ndarray:
    """Cross-covariance between two sets of distinct observations."""
    C = model.target_prior.kernel.cross(Xa, Xb)
    for lev in range(1, model.m):
        ia = np.flatnonzero(fida == lev)
        ib = np.flatnonzero(fidb == lev)
        if ia.size and ib.size:
            C[np.ix_(ia, ib)] += model.error_kernel(lev).cross(Xa[ia], Xb[ib])
    return C


# --------------------------------------------------------------------------
# incremental factorization state

class _ErrFactor:
    """Cholesky of k_eps_l(X_l, X_l) + s2_l I over one fidelity's points."""

    __slots__ = ("idx", "L", "jit", "since_rebuild")

    def __init__(self, idx, L, jit, since_rebuild):
        self.idx = idx
        self.L = L
        self.jit = jit
        self.since_rebuild = since_rebuild


class CovState:
    """Location-only covariance state of a set of observations.

    Holds the joint-covariance Cholesky factor plus one residual-covariance
    factor per low fidelity (the error processes are independent across
    fidelities, so residual conditioning block-diagonalizes). Appending an
    observation extends each factor by a triangular solve; every
    REBUILD_EVERY appends the factor is rebuilt from scratch.
    """

    __slots__ = ("model", "X", "fids", "L", "jit", "err", "since_rebuild")

    def __init__(self, model, X, fids, L, jit, err, since_rebuild):
        self.model = model
        self.X = X
        self.fids = fids
        self.L = L
        self.jit = jit
        self.err = err  # dict fidelity -> _ErrFactor
        self.since_rebuild = since_rebuild

    @classmethod
    def empty(cls, model: FidelityModel) -> "CovState":
        d = model.dim
        return cls(
            model,
            np.zeros((0, d)),
            np.zeros(0, dtype=np.int64),
            np.zeros((0, 0)),
            0.0,
            {},
            0,
        )

    @classmethod
    def build(cls, model: FidelityModel, X, fids) -> "CovState":
        X = np.asarray(X, dtype=np.float64).reshape(-1, model.dim)
        fids = np.asarray(fids, dtype=np.int64).reshape(-1)
        if X.shape[0] == 0:
            return cls.empty(model)
        L, jit = chol_factor(_joint_sym(model, X, fids))
        err = {}
        for lev in range(1, model.m):
            idx = np.flatnonzero(fids == lev)
            if idx.size:
                err[lev] = cls._build_err(model, X, idx, lev)
        return cls(model, X, fids, L, jit, err, 0)

    @staticmethod
    def _build_err(model, X, idx, lev) -> _ErrFactor:
        Ke = model.error_kernel(lev).sym(X[idx])
        Ke[np.diag_indices_from(Ke)] += model.noise_variance(lev)
        L, jit = chol_factor(Ke)
        return _ErrFactor(idx, L, jit, 0)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def append(self, action: Action) -> "CovState":
        model = self.model
        model._check_fidelity(action.fidelity)
        if action.x.shape[0] != model.dim:
            raise ValueError("action dimension mismatch")
        Xn = np.vstack([self.X, action.x[None, :]])
        fn = np.append(self.fids, action.fidelity)
        if self.since_rebuild + 1 >= REBUILD_EVERY:
            return CovState.build(model, Xn, fn)
        x1 = action.x[None, :]
        f1 = np.array([action.fidelity], dtype=np.int64)
        diag = model.prior_variance(action.fidelity)
        L = _extend_chol(
            self.L,
            _joint_cross(model, self.X, self.fids, x1, f1)[:, 0] if self.n else np.zeros(0),
            diag + self.jit,
        )
        if L is None:
            return CovState.build(model, Xn, fn)
        err = dict(self.err)
        lev = action.fidelity
        if lev < model.m:
            ker = model.error_kernel(lev)
            old = err.get(lev)
            if old is None:
                Le, jite = chol_factor(
                    np.array([[ker.signal_variance + model.noise_variance(lev)]])
                )
                err[lev] = _ErrFactor(np.array([self.n]), Le, jite, 0)
            elif old.since_rebuild + 1 >= REBUILD_EVERY:
                err[lev] = self._build_err(model, Xn, np.append(old.idx, self.n), lev)
            else:
                col = ker.cross(self.X[old.idx], x1)[:, 0]
                de = ker.signal_variance + model.noise_variance(lev) + old.jit
                Le = _extend_chol(old.L, col, de)
                if Le is None:
                    err[lev] = self._build_err(model, Xn, np.append(old.idx, self.n), lev)
                else:
                    err[lev] = _ErrFactor(
                        np.append(old.idx, self.n), Le, old.jit, old.since_rebuild + 1
                    )
        return CovState(model, Xn, fn, L, self.jit, err, self.since_rebuild + 1)

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.L))))


def _extend_chol(L, col, diag) -> np.ndarray | None:
    """Extend lower Cholesky L by one row/column; None if not positive."""
    n = L.shape[0]
    if n == 0:
        if diag <= 0:
            return None
        return np.array([[np.sqrt(diag)]])
    w = solve_triangular(L, col, lower=True, check_finite=False)
    d2 = diag - w @ w
    if not np.isfinite(d2) or d2 <= max(1e-12 * diag, 0.0):
        return None
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = L
    out[n, :n] = w
    out[n, n] = np.sqrt(d2)
    return out


# --------------------------------------------------------------------------
# observation history

class History:
    """Immutable record of observations plus cached factorizations."""

    __slots__ = ("model", "observations", "cov", "y", "alpha")

    def __init__(self, model, observations, cov, y, alpha):
        self.model = model
        self.observations = observations
        self.cov = cov
        self.y = y
        self.alpha = alpha

    @classmethod
    def empty(cls, model: FidelityModel) -> "History":
        return cls(model, (), CovState.empty(model), np.zeros(0), np.zeros(0))

    @classmethod
    def from_observations(cls, model: FidelityModel, observations: Iterable[Observation]) -> "History":
        observations = tuple(observations)
        if not observations:
            return cls.empty(model)
        X = np.array([o.action.x for o in observations])
        fids = np.array([o.action.fidelity for o in observations], dtype=np.int64)
        cov = CovState.build(model, X, fids)
        y = np.array([o.y for o in observations])
        return cls(model, observations, cov, y, _alpha(model, cov, y))

    def update(self, obs: Observation) -> "History":
        cov = self.cov.append(obs.action)
        y = np.append(self.y, obs.y)
        return History(self.model, self.observations + (obs,), cov, y, _alpha(self.model, cov, y))

    def __len__(self) -> int:
        return len(self.observations)


def _alpha(model, cov: CovState, y) -> np.ndarray:
    if y.shape[0] == 0:
        return np.zeros(0)
    resid = y - model.target_prior.mean_at(cov.X)
    a = solve_triangular(cov.L, resid, lower=True, check_finite=False)
    return solve_triangular(cov.L.T, a, lower=False, check_finite=False)


# --------------------------------------------------------------------------
# prediction

def predict_latent(history: History, Xq) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance of the latent target f at Xq."""
    model = history.model
    Xq = np.asarray(Xq, dtype=np.float64).reshape(-1, model.dim)
    kf = model.target_prior.kernel
    prior_mean = model.target_prior.mean_at(Xq)
    prior_cov = kf.sym(Xq)
    if len(history) == 0:
        return prior_mean, prior_cov
    Kc = kf.cross(history.cov.X, Xq)
    mean = prior_mean + Kc.T @ history.alpha
    W = solve_triangular(history.cov.L, Kc, lower=True, check_finite=False)
    cov = prior_cov - W.T @ W
    cov = 0.5 * (cov + cov.T)
    return mean, cov


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


# --------------------------------------------------------------------------
# information gains about the latent target f
#
# I(y_A; f | y_S) = H(y_A | y_S) - H(y_A | f, y_S). Given the whole latent
# f, the residuals y_s - f(x_s) of the history become observable, so the
# second entropy is residual-covariance conditioning only; it splits into
# independent per-fidelity blocks.

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


def info_gain_set(history: History, actions: Sequence[Action], state: CovState | None = None) -> float:
    """Joint information gain of a set of fresh observations about f."""
    actions = list(actions)
    if not actions:
        return 0.0
    cov = state if state is not None else history.cov
    model = cov.model
    Xe = np.array([a.x for a in actions])
    fe = np.array([a.fidelity for a in actions], dtype=np.int64)
    for f in fe:
        model._check_fidelity(int(f))
    See = _joint_sym(model, Xe, fe)
    if cov.n:
        Cse = _joint_cross(model, cov.X, cov.fids, Xe, fe)
        W = solve_triangular(cov.L, Cse, lower=True, check_finite=False)
        cond1 = See - W.T @ W
        cond1 = 0.5 * (cond1 + cond1.T)
    else:
        cond1 = See
    h1 = gaussian_entropy(cond1)
    h0 = 0.0
    for lev in range(1, model.m):
        idx = np.flatnonzero(fe == lev)
        if not idx.size:
            continue
        ker = model.error_kernel(lev)
        Ke = ker.sym(Xe[idx])
        Ke[np.diag_indices_from(Ke)] += model.noise_variance(lev)
        ef = cov.err.get(lev)
        if ef is not None:
            We = solve_triangular(
                ef.L, ker.cross(cov.X[ef.idx], Xe[idx]), lower=True, check_finite=False
            )
            Ke = Ke - We.T @ We
            Ke = 0.5 * (Ke + Ke.T)
        h0 += gaussian_entropy(Ke)
    n_target = int(np.sum(fe == model.m))
    if n_target:
        s2m = model.noise_variance(model.m)
        with np.errstate(divide="ignore"):
            h0 += n_target * 0.5 * (LOG_2PI_E + float(np.log(s2m)))
    return h1 - h0


def batch_info_gains(state: CovState, Xc) -> dict[int, np.ndarray]:
    """info_gain_single for every candidate point at every fidelity.

    Vectorized over candidates; used by the exploration loop's per-step
    argmax. Agrees with info_gain_single including its degenerate clamp.
    """
    model = state.model
    Xc = np.asarray(Xc, dtype=np.float64).reshape(-1, model.dim)
    nc = Xc.shape[0]
    kf = model.target_prior.kernel
    sv = kf.signal_variance
    if state.n:
        base = kf.cross(state.X, Xc)
        Wf = solve_triangular(state.L, base, lower=True, check_finite=False)
        qf = np.einsum("ij,ij->j", Wf, Wf)
    else:
        base = None
        qf = np.zeros(nc)
    degenerate = (sv - qf < DEGENERATE_VAR) | (sv < DEGENERATE_VAR)
    out = {}
    for lev in range(1, model.m + 1):
        prior1 = model.prior_variance(lev)
        if state.n:
            q1 = qf
            if lev < model.m:
                idx = np.flatnonzero(state.fids == lev)
                if idx.size:
                    cross = base.copy()
                    cross[idx, :] += model.error_kernel(lev).cross(state.X[idx], Xc)
                    W = solve_triangular(state.L, cross, lower=True, check_finite=False)
                    q1 = np.einsum("ij,ij->j", W, W)
            v1 = prior1 - q1
        else:
            v1 = np.full(nc, prior1)
        if lev < model.m:
            ker = model.error_kernel(lev)
            v0 = np.full(nc, ker.signal_variance + model.noise_variance(lev))
            ef = state.err.get(lev)
            if ef is not None:
                We = solve_triangular(
                    ef.L, ker.cross(state.X[ef.idx], Xc), lower=True, check_finite=False
                )
                v0 = v0 - np.einsum("ij,ij->j", We, We)
        else:
            v0 = np.full(nc, model.noise_variance(model.m))
        gains = 0.5 * np.log(np.maximum(v1, 1e-300) / np.maximum(v0, 1e-300))
        gains[degenerate] = 0.0
        out[lev] = gains
    return out


# --------------------------------------------------------------------------
# hyperparameter refitting

@dataclass(frozen=True)
class HyperGrid:
    """Candidate joint models for marginal-likelihood grid search."""

    models: tuple[FidelityModel, ...]

    def __post_init__(self):
        if not self.models:
            raise ValueError("grid must contain at least one model")
        object.__setattr__(self, "models", tuple(self.models))


def default_hyper_grid(model: FidelityModel, factors=None) -> HyperGrid:
    """5x5 grid of (lengthscale, signal-variance) multipliers around model.

    The same multipliers apply to the target and every error process.
    """
    if factors is None:
        factors = np.logspace(np.log10(0.25), np.log10(4.0), 5)
    return HyperGrid(
        tuple(model.scaled(a, b) for a in factors for b in factors)
    )


def log_marginal_likelihood(model: FidelityModel, observations: Sequence[Observation]) -> float:
    observations = list(observations)
    n = len(observations)
    if n == 0:
        return 0.0
    X = np.array([o.action.x for o in observations])
    fids = np.array([o.action.fidelity for o in observations], dtype=np.int64)
    y = np.array([o.y for o in observations])
    K = _joint_sym(model, X, fids)
    L, _ = chol_factor(K)
    resid = y - model.target_prior.mean_at(X)
    a = solve_triangular(L, resid, lower=True, check_finite=False)
    return float(
        -0.5 * (a @ a) - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2.0 * np.pi)
    )


def fit_hyperparameters(history: History, grid: HyperGrid) -> FidelityModel:
    """Pick the grid model with the best joint log marginal likelihood.

    Ties break to the earliest grid index; grid points whose covariance
    cannot be factorized are skipped; if every point fails, the current
    model is kept and a warning is issued.
    """
    best = None
    best_lml = -np.inf
    for cand in grid.models:
        if cand.m != history.model.m or cand.dim != history.model.dim:
            raise ValueError("grid model shape does not match history model")
        try:
            lml = log_marginal_likelihood(cand, history.observations)
        except NumericalError:
            continue
        if lml > best_lml:
            best_lml = lml
            best = cand
    if best is None:
        warnings.warn("hyperparameter grid search failed at every grid point")
        return history.model
    return best
