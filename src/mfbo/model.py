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
from collections import namedtuple
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

# Below this latent variance a query point is treated as already known and
# its information gain is exactly zero (avoids log(0/0) degeneracies).
DEGENERATE_VAR = 1e-12

# Why a factor or a candidate projection was computed from scratch
FIRST_POINT = "first point"
JOINT_FAILED = "joint extension failed"
ERROR_FAILED = "error extension failed"
NEW_MODEL = "new model"


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
            if p.mean != 0.0:
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

# Cholesky of k_eps_l(X_l, X_l) + s2_l I over one fidelity's points X[idx]
_ErrFactor = namedtuple("_ErrFactor", "idx L jit")


class CovState:
    """Location-only covariance state of a set of observations.

    Holds the joint-covariance Cholesky factor plus one residual-covariance
    factor per low fidelity (the error processes are independent across
    fidelities, so residual conditioning block-diagonalizes). Appending an
    observation extends each factor it enters by one row (bordered
    Cholesky); only a failed extension, from a rounding-level pivot as at a
    noiseless repeated point, recomputes that factor from scratch. rebuilt
    is JOINT_FAILED or ERROR_FAILED if the append that made the state did
    so, FIRST_POINT if it started a fidelity's error factor, else None.
    """

    __slots__ = ("model", "X", "fids", "L", "jit", "err", "rebuilt")

    def __init__(self, model, X, fids, L, jit, err, rebuilt=None):
        self.model = model
        self.X = X
        self.fids = fids
        self.L = L
        self.jit = jit
        self.err = err  # dict fidelity -> _ErrFactor
        self.rebuilt = rebuilt

    @classmethod
    def empty(cls, model: FidelityModel) -> "CovState":
        no_points = np.zeros((0, model.dim)), np.zeros(0, dtype=np.int64), np.zeros((0, 0))
        return cls(model, *no_points, 0.0, {})

    @classmethod
    def build(cls, model: FidelityModel, X, fids, rebuilt=None) -> "CovState":
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
        return cls(model, X, fids, L, jit, err, rebuilt)

    @staticmethod
    def _build_err(model, X, idx, lev) -> _ErrFactor:
        Ke = model.error_kernel(lev).sym(X[idx])
        Ke[np.diag_indices_from(Ke)] += model.noise_variance(lev)
        L, jit = chol_factor(Ke)
        return _ErrFactor(idx, L, jit)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def append(self, action: Action) -> "CovState":
        model = self.model
        model._check_fidelity(action.fidelity)
        if action.x.shape[0] != model.dim:
            raise ValueError("action dimension mismatch")
        x1 = action.x[None, :]
        Xn = np.vstack([self.X, x1])
        fn = np.append(self.fids, action.fidelity)
        col = _joint_cross(model, self.X, self.fids, x1, fn[-1:])[:, 0]
        L = _extend_chol(self.L, col, model.prior_variance(action.fidelity) + self.jit)
        if L is None:
            return CovState.build(model, Xn, fn, JOINT_FAILED)
        err = dict(self.err)
        rebuilt = None
        lev = action.fidelity
        if lev < model.m:
            ker = model.error_kernel(lev)
            old = err.get(lev, _ErrFactor(np.zeros(0, dtype=np.int64), np.zeros((0, 0)), 0.0))
            idx = np.append(old.idx, self.n)
            col = ker.cross(self.X[old.idx], x1)[:, 0]
            Le = _extend_chol(old.L, col, ker.signal_variance + model.noise_variance(lev) + old.jit)
            if Le is None:
                err[lev] = self._build_err(model, Xn, idx, lev)
                rebuilt = ERROR_FAILED
            else:
                err[lev] = _ErrFactor(idx, Le, old.jit)
                rebuilt = None if lev in self.err else FIRST_POINT
        return CovState(model, Xn, fn, L, self.jit, err, rebuilt)


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
        return self.adopt((obs,), self.cov.append(obs.action))

    def adopt(self, observations: Sequence[Observation], cov: CovState) -> "History":
        """This history plus observations whose actions cov, a
        CandidateGains.state, holds already, so no factor is extended twice."""
        observations = self.observations + tuple(observations)
        if cov.n != len(observations):
            raise ValueError("covariance state holds %d points for %d observations"
                             % (cov.n, len(observations)))
        y = np.append(self.y, [o.y for o in observations[len(self):]])
        return History(self.model, observations, cov, y, _alpha(self.model, cov, y))

    def __len__(self) -> int:
        return len(self.observations)


def _alpha(model, cov: CovState, y) -> np.ndarray:
    if y.shape[0] == 0:
        return np.zeros(0)
    resid = y - model.target_prior.mean_at(cov.X)
    a = solve_triangular(cov.L, resid, lower=True, check_finite=False)
    return solve_triangular(cov.L.T, a, lower=False, check_finite=False)


# --------------------------------------------------------------------------
# information gains about the latent target f
#
# I(y_A; f | y_S) = H(y_A | y_S) - H(y_A | f, y_S). Given the whole latent
# f, the residuals y_s - f(x_s) of the history become observable, so the
# second entropy is residual-covariance conditioning only; it splits into
# independent per-fidelity blocks.

def info_gain_set(history: History, actions: Sequence[Action]) -> float:
    """Joint information gain of a set of fresh observations about f."""
    actions = list(actions)
    if not actions:
        return 0.0
    cov = history.cov
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


class _Grow:
    """Rows appended one at a time to a C-ordered block whose room doubles
    when full, so an append never copies the rows already there."""

    __slots__ = ("buf", "n")

    def __init__(self, rows):
        self.buf, self.n = rows, rows.shape[0]

    @property
    def rows(self) -> np.ndarray:
        return self.buf[: self.n]

    def append(self, r) -> None:
        if self.n == self.buf.shape[0]:
            buf = np.empty((max(2 * self.n, 8), self.buf.shape[1]))
            buf[: self.n] = self.rows
            self.buf = buf
        self.buf[self.n] = r
        self.n += 1


class _Rows:
    """Rows of one projection W = L^-1 C(X, Xc), solved at once (head) or
    appended one at a time (tail), and their column sums of squares."""

    __slots__ = ("head", "tail", "sq")

    def __init__(self, L, C):
        # C is Fortran-ordered and owned here, so the solve runs in place
        self.head = solve_triangular(L, C, lower=True, overwrite_b=True, check_finite=False)
        self.sq = np.einsum("ij,ij->j", self.head, self.head)
        self.tail = _Grow(np.empty((0, C.shape[1])))

    def append(self, c, w, d) -> None:
        """Add the row for a new last row [w, d] of L and row c of C."""
        n0 = self.head.shape[0]
        r = (c - w[:n0] @ self.head - w[n0:] @ self.tail.rows) / d
        self.tail.append(r)
        self.sq += r * r


class CandidateGains:
    """Per-candidate information gains and the latent posterior at a fixed
    candidate matrix Xc, kept current as observations are appended one at
    a time. This is the library's one source of both: Explore-LF and
    gamma_max_bound rank by gains(), and the policies read posterior().

    gains()[l][i] = I(y_(Xc[i], l); f | state) = 0.5 * log(v1 / v0), where
    v1 is a fresh observation's variance given the state's observations and
    v0 its variance given those and the whole of f: the error process's
    residual variance plus noise at a low fidelity, the noise alone at the
    target. A candidate whose latent variance is below DEGENERATE_VAR gains
    exactly 0. Each entry matches info_gain_set of that one action up to
    rounding.

    It holds W_f = L^-1 k_f(X, Xc) over the state's joint factor L; for
    each low fidelity l with points, W_l = L^-1 (k_f + k_eps_l on l's
    rows)(X, Xc); for each error factor, W_eps_l = L_eps_l^-1 k_eps_l(X_l,
    Xc); the column sums of squares of each; and K_c = k_f(X, Xc) as one
    C-ordered n x nc block. append(action) advances the CovState and adds
    one row to K_c and to each projection the point enters, r = (c(x, Xc)
    - w^T W) / d for the factor's new last row [w, d], at O(n nc) cost.
    After an append with a `rebuilt` state, or reset(), all is computed
    afresh at the next use; recomputes counts these computes by cause.
    """

    def __init__(self, state: CovState, Xc):
        self.Xc = np.asarray(Xc, dtype=np.float64).reshape(-1, state.model.dim)
        self.recomputes = dict.fromkeys((FIRST_POINT, JOINT_FAILED, ERROR_FAILED, NEW_MODEL), 0)
        self.reset(state, None)

    def reset(self, state: CovState, cause=NEW_MODEL) -> None:
        """Drop every projection, to compute afresh at state on next use
        (by default the state of a new model, after a refit)."""
        self.state, self._cause = state, cause
        self._wf = self._kc = None
        self._wl: dict[int, _Rows] = {}
        self._we: dict[int, _Rows] = {}

    def _recompute(self) -> None:
        if self._cause is not None:
            self.recomputes[self._cause] += 1
        state = self.state
        model = state.model
        kc = model.target_prior.kernel.cross(state.X, self.Xc)
        # solved on Fortran-ordered copies, so every solve runs in place
        self._wl = {}
        for lev in range(1, model.m):
            idx = np.flatnonzero(state.fids == lev)
            if idx.size:
                cross = kc.copy(order="F")
                cross[idx, :] += model.error_kernel(lev).cross(state.X[idx], self.Xc)
                self._wl[lev] = _Rows(state.L, cross)
        self._wf = _Rows(state.L, kc.copy(order="F"))
        self._kc = _Grow(kc)
        self._we = {
            lev: _Rows(ef.L, model.error_kernel(lev).cross(self.Xc, state.X[ef.idx]).T)
            for lev, ef in state.err.items()
        }

    def append(self, action: Action) -> None:
        """Condition on one more observation at action."""
        self.state = new = self.state.append(action)
        if self._wf is None:
            return
        if new.rebuilt is not None:
            return self.reset(new, new.rebuilt)
        lev = action.fidelity
        model = new.model
        x1 = action.x[None, :]
        w, d = new.L[-1, :-1], new.L[-1, -1]
        kf_row = model.target_prior.kernel.cross(x1, self.Xc)[0]
        self._kc.append(kf_row)
        self._wf.append(kf_row, w, d)
        ke_row = model.error_kernel(lev).cross(x1, self.Xc)[0] if lev < model.m else None
        for l, rows in self._wl.items():
            rows.append(kf_row + ke_row if l == lev else kf_row, w, d)
        if ke_row is not None:
            ef = new.err[lev]
            self._we[lev].append(ke_row, ef.L[-1, :-1], ef.L[-1, -1])

    def gains(self) -> dict[int, np.ndarray]:
        """{fidelity: gains} of one fresh observation at each candidate."""
        if self._wf is None:
            self._recompute()
        model = self.state.model
        nc = self.Xc.shape[0]
        sv = model.target_prior.kernel.signal_variance
        qf = self._wf.sq
        degenerate = (sv - qf < DEGENERATE_VAR) | (sv < DEGENERATE_VAR)
        out = {}
        for lev in range(1, model.m + 1):
            v1 = model.prior_variance(lev) - (self._wl[lev].sq if lev in self._wl else qf)
            if lev < model.m:
                ker = model.error_kernel(lev)
                v0 = np.full(nc, ker.signal_variance + model.noise_variance(lev))
                if lev in self._we:
                    v0 = v0 - self._we[lev].sq
            else:
                v0 = np.full(nc, model.noise_variance(model.m))
            gains = 0.5 * np.log(np.maximum(v1, 1e-300) / np.maximum(v0, 1e-300))
            gains[degenerate] = 0.0
            out[lev] = gains
        return out

    def posterior(self, history: History) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean, prior + K_c^T alpha, and pointwise variance,
        sv - (W_f column sums of squares) floored at 0, of f at Xc given
        history, whose covariance state must be this object's."""
        if history.cov is not self.state:
            raise ValueError("history does not hold this object's covariance state")
        if self._wf is None:
            self._recompute()
        prior = self.state.model.target_prior
        mean = prior.mean_at(self.Xc) + self._kc.rows.T @ history.alpha
        return mean, np.maximum(prior.kernel.signal_variance - self._wf.sq, 0.0)


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


def default_hyper_grid(model: FidelityModel) -> HyperGrid:
    """5x5 grid of (lengthscale, signal-variance) multipliers around model.

    The same multipliers apply to the target and every error process.
    """
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
