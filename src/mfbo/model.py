"""Additive multi-output GP over fidelities.

An observation at fidelity l of point x is modeled as

    y = f(x) + eps_l(x) + noise_l        (l < m, independent GP eps_l)
    y = f(x) + noise_m                   (l = m, the target fidelity)

so any two observations are jointly Gaussian with covariance

    k_f(x, x') + [l == l' < m] * k_{eps_l}(x, x') + [same observation] * s2_l.

Everything downstream (posteriors over the latent target f, information
gains of candidate queries about f) is exact conditioning in that joint
Gaussian. Information gains need no observed values, only locations, which
is what lets the exploration routine score hypothetical query sets. So a
CovState records only where observations were made; their values travel
beside it as one vector y, in the order the points were appended, and
only the posterior mean (CandidateGains.posterior) and the marginal
likelihood (fit_hyperparameters) read them.

Fidelities are 1-based; m = number of fidelities = target index.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import covops
from .gp import (
    LOG_2PI_E,
    GpPrior,
    NumericalError,
    SquaredExpKernel,
    chol_factor,
    gaussian_entropy,
    solve_triangular,
)
from .util import as_points

# Below this latent variance a query point is treated as already known and
# its information gain is exactly zero (avoids log(0/0) degeneracies).
DEGENERATE_VAR = 1e-12

# Why a factor or a candidate projection was computed from scratch
FIRST_POINT = "first point"
JOINT_FAILED = "joint extension failed"
ERROR_FAILED = "error extension failed"
NEW_MODEL = "new model"


@dataclass(frozen=True, eq=False, slots=True)
class Action:
    """A query: point x at a fidelity level (1-based, m = target)."""

    x: np.ndarray
    fidelity: int

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("x must be a 1-d point, got shape %s" % (x.shape,))
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "fidelity", int(self.fidelity))
        if self.fidelity < 1:
            raise ValueError("fidelity must be >= 1")


@dataclass(frozen=True, eq=False, slots=True)
class Observation:
    action: Action
    y: float

    def __post_init__(self):
        object.__setattr__(self, "y", float(self.y))
        if not np.isfinite(self.y):
            raise ValueError("observed values must be finite")


@dataclass(frozen=True, eq=False)
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
        """Copy with all kernels rescaled (noise, means and costs unchanged)."""
        def rescale(p: GpPrior) -> GpPrior:
            return replace(p, kernel=p.kernel.scaled(ls_factor, sv_factor))

        return replace(self, target_prior=rescale(self.target_prior),
                       error_priors=tuple(map(rescale, self.error_priors)))

    def _check_fidelity(self, fidelity: int):
        if not 1 <= fidelity <= self.m:
            raise ValueError("fidelity %r out of range 1..%d" % (fidelity, self.m))


# --------------------------------------------------------------------------
# dense joint covariance builders

def _joint_sym(model: FidelityModel, X: np.ndarray, fids: np.ndarray, memo=None) -> np.ndarray:
    """Joint covariance of n distinct observations (noise on the diagonal).

    Each kernel block is its signal variance times the unit block
    exp(-0.5 d2) of its lengthscales, which is bitwise what kernel.sym
    returns. memo, a dict one caller keeps for one point set, holds the
    latest unit block per kernel (key 0 the target's, l fidelity l's error
    kernel) and hands it back while that kernel's lengthscales are
    unchanged, so a grid that varies only signal variances computes each
    block once.
    """
    model._check_fidelity(int(fids.min(initial=1)))
    model._check_fidelity(int(fids.max(initial=1)))
    tk = model.target_prior.kernel
    K = tk.signal_variance * _unit_sym(memo, 0, X, tk.lengthscales)
    for lev in range(1, model.m):
        idx = np.flatnonzero(fids == lev)
        if idx.size:
            ek = model.error_kernel(lev)
            unit = _unit_sym(memo, lev, X[idx], ek.lengthscales)
            K[np.ix_(idx, idx)] += ek.signal_variance * unit
    noise = np.array([model.noise_variance(lev) for lev in range(1, model.m + 1)])
    K.reshape(-1)[:: K.shape[0] + 1] += noise[fids - 1]  # the diagonal, as a view
    return K


def _unit_sym(memo, key, X, lengthscales) -> np.ndarray:
    """exp(-0.5 d2) over X, memo[key]'s block if it has these lengthscales."""
    ls = lengthscales.tobytes()
    if memo is not None and key in memo and memo[key][0] == ls:
        return memo[key][1]
    block = covops.se_sym(X, lengthscales, 1.0)
    if memo is not None:
        memo[key] = (ls, block)
    return block


def _error_block(model: FidelityModel, lev: int, X: np.ndarray) -> np.ndarray:
    """k_eps_l(X, X) + s2_l I: fidelity lev's error covariance plus noise."""
    K = model.error_kernel(lev).sym(X)
    K[np.diag_indices_from(K)] += model.noise_variance(lev)
    return K


# --------------------------------------------------------------------------
# incremental factorization state

def _located(model: FidelityModel, X, fids) -> tuple[np.ndarray, np.ndarray]:
    """X as an (n, dim) float matrix and fids as its n integer fidelities;
    ValueError if either has another shape."""
    X = as_points(X, model.dim)
    fids = np.asarray(fids, dtype=np.int64)
    if fids.shape != (X.shape[0],):
        raise ValueError("fids must hold one fidelity per point: shape %s for %d points"
                         % (fids.shape, X.shape[0]))
    return X, fids


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
        return cls.build(model, np.zeros((0, model.dim)), ())

    @classmethod
    def build(cls, model: FidelityModel, X, fids, rebuilt=None) -> "CovState":
        X, fids = _located(model, X, fids)
        L, jit = chol_factor(_joint_sym(model, X, fids))
        err = {}
        for lev in range(1, model.m):
            idx = np.flatnonzero(fids == lev)
            if idx.size:
                err[lev] = cls._build_err(model, X, idx, lev)
        return cls(model, X, fids, L, jit, err, rebuilt)

    @staticmethod
    def _build_err(model, X, idx, lev) -> _ErrFactor:
        L, jit = chol_factor(_error_block(model, lev, X[idx]))
        return _ErrFactor(idx, L, jit)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def append(self, action: Action) -> "CovState":
        model = self.model
        model._check_fidelity(action.fidelity)
        if action.x.shape[0] != model.dim:
            raise ValueError("action dimension mismatch")
        lev = action.fidelity
        x1 = action.x[None, :]
        Xn = np.vstack([self.X, x1])
        fn = np.append(self.fids, lev)
        # the joint column is k_f(X, x) plus k_eps_l(X_l, x) at fidelity l's
        # rows, the last column _joint_sym builds over Xn; the error factor
        # reuses k_eps_l
        col = model.target_prior.kernel.cross(self.X, x1)[:, 0]
        if lev < model.m:
            ker = model.error_kernel(lev)
            old = self.err.get(lev, _ErrFactor(np.zeros(0, dtype=np.int64), np.zeros((0, 0)), 0.0))
            ecol = ker.cross(self.X[old.idx], x1)[:, 0]
            col[old.idx] += ecol
        L = _extend_chol(self.L, col, model.prior_variance(lev) + self.jit)
        if L is None:
            return CovState.build(model, Xn, fn, JOINT_FAILED)
        err = dict(self.err)
        rebuilt = None
        if lev < model.m:
            idx = np.append(old.idx, self.n)
            Le = _extend_chol(old.L, ecol, ker.signal_variance + model.noise_variance(lev) + old.jit)
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
    w = solve_triangular(L, col)
    d2 = diag - w @ w
    if not np.isfinite(d2) or d2 <= max(1e-12 * diag, 0.0):
        return None
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = L
    out[n, :n] = w
    out[n, n] = np.sqrt(d2)
    return out


# --------------------------------------------------------------------------
# information gains about the latent target f
#
# I(y_A; f | y_S) = H(y_A | y_S) - H(y_A | f, y_S). Given the whole latent
# f, the residuals y_s - f(x_s) at the state's points become observable,
# so the second entropy is residual-covariance conditioning only; it splits
# into independent per-fidelity blocks.

def info_gain_set(state: CovState, actions: Sequence[Action]) -> float:
    """Joint information gain about f of fresh observations at actions,
    given the observations at state's points."""
    actions = list(actions)
    if not actions:
        return 0.0
    model = state.model
    n = state.n
    Xe = np.array([a.x for a in actions])
    fe = np.array([a.fidelity for a in actions], dtype=np.int64)
    # one build over the state's points and the actions: a pair's kernel
    # value does not depend on the block it is built in, so K[:n, n:] is
    # the cross-covariance
    K = _joint_sym(model, np.vstack([state.X, Xe]), np.concatenate([state.fids, fe]))
    W = solve_triangular(state.L, K[:n, n:])
    cond1 = K[n:, n:] - W.T @ W
    h1 = gaussian_entropy(0.5 * (cond1 + cond1.T))
    h0 = 0.0
    for lev in range(1, model.m):
        idx = np.flatnonzero(fe == lev)
        if not idx.size:
            continue
        Ke = _error_block(model, lev, Xe[idx])
        ef = state.err.get(lev)
        if ef is not None:
            We = solve_triangular(ef.L, model.error_kernel(lev).cross(state.X[ef.idx], Xe[idx]))
            Ke = Ke - We.T @ We
            Ke = 0.5 * (Ke + Ke.T)
        h0 += gaussian_entropy(Ke)
    n_target = int(np.sum(fe == model.m))
    if n_target:
        s2m = model.noise_variance(model.m)
        with np.errstate(divide="ignore"):
            h0 += n_target * 0.5 * (LOG_2PI_E + float(np.log(s2m)))
    return h1 - h0


class _Rows:
    """Rows of one projection W = L^-1 C(X, Xc), in one C-ordered block of
    capacity rows, and their column sums of squares. The block is made
    once, with the rows solved at once; each append writes the next row
    in place, and no block grows."""

    __slots__ = ("buf", "n", "sq")

    def __init__(self, L, C, capacity):
        # C is Fortran-ordered and owned here, so the solve runs in place
        W = solve_triangular(L, C, overwrite_b=True)
        self.sq = np.einsum("ij,ij->j", W, W)
        self.n = W.shape[0]
        self.buf = np.empty((capacity, W.shape[1]))
        self.buf[: self.n] = W

    @property
    def rows(self) -> np.ndarray:
        return self.buf[: self.n]

    def append(self, c, w, d) -> None:
        """Write the row for a new last row [w, d] of L and row c of C."""
        r = self.buf[self.n]
        np.matmul(w, self.rows, out=r)
        np.subtract(c, r, out=r)
        r /= d
        self.n += 1
        self.sq += r * r


def _observed_values(y, n: int) -> np.ndarray:
    """y as a float vector; ValueError unless it holds n finite values."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != n:
        raise ValueError("%d values for %d observed points" % (y.shape[0], n))
    if not np.all(np.isfinite(y)):
        raise ValueError("observed values must be finite")
    return y


class CandidateGains:
    """Per-candidate information gains and the latent posterior at a fixed
    candidate matrix Xc, kept current as observations are appended one at
    a time. This is the library's one source of both: Explore-LF and
    gamma_max_bound rank by pick(), the greedy step, which computes the
    same per-fidelity gains as gains(); the policies read posterior().

    gains()[l][i] = I(y_(Xc[i], l); f | state) = 0.5 * log(v1 / v0), where
    v1 is a fresh observation's variance given the state's observations and
    v0 its variance given those and the whole of f: the error process's
    residual variance plus noise at a low fidelity, the noise alone at the
    target. A candidate whose latent variance is below DEGENERATE_VAR gains
    exactly 0. Each entry matches info_gain_set of that one action up to
    rounding.

    It holds W_f = L^-1 k_f(X, Xc) over the state's joint factor L and, for
    each low fidelity l with points, one pair: W_l = L^-1 (k_f + k_eps_l on
    l's rows)(X, Xc) and W_eps_l = L_eps_l^-1 k_eps_l(X_l, Xc) over its
    error factor, both from one error block k_eps_l(X_l, Xc). Xc must be a
    non-empty (n, d) matrix of finite values (ValueError otherwise; this is
    the one check of every caller's candidates). It is kept Fortran-ordered,
    one contiguous row per dimension, so a kernel row against it reads
    contiguous memory (mfbo.covops). Each projection keeps its rows in one
    C-ordered block and their column sums of squares. append(action)
    advances the CovState and adds one row to each projection the point
    enters, r = (c(x, Xc) - w^T W) / d for the factor's new last row [w, d],
    one O(n nc) product. A `rebuilt` state or reset() computes all afresh;
    recomputes counts these by cause. The posterior mean,
    prior + W_f^T L^-1 (y - mu), is folded as values arrive.

    budget is the most the caller will spend on the actions it appends
    (None: no appends), and each append pays its cost out of it. Each
    compute sizes the blocks once, with room for capacity = state.n +
    budget // c + 1 points, the 1 for rounding in the caller's sums, where
    c is the cheapest cost of an action that extends them: at the target or
    at a low fidelity with points, as one at a fidelity without points
    computes them afresh. No block grows; an append past capacity raises
    RuntimeError before the state advances.
    """

    def __init__(self, state: CovState, Xc, budget=None):
        # dimension-major, as make_candidates builds it
        Xc = np.asfortranarray(Xc, dtype=np.float64)
        d = state.model.dim
        if Xc.ndim != 2 or Xc.shape[0] == 0 or Xc.shape[1] != d:
            raise ValueError("candidates must be an (n, %d) matrix with n >= 1, not of shape %s"
                             % (d, Xc.shape))
        if not np.isfinite(Xc).all():
            raise ValueError("candidates must be an (n, %d) matrix of finite values" % d)
        self.Xc = Xc
        self.budget = budget
        self.recomputes = dict.fromkeys((FIRST_POINT, JOINT_FAILED, ERROR_FAILED, NEW_MODEL), 0)
        self.reset(state, None)

    def reset(self, state: CovState, cause=NEW_MODEL) -> None:
        """Compute every projection afresh at state and restart the mean's
        fold, counted under cause (by default a new model's, after a refit)."""
        if cause is not None:
            self.recomputes[cause] += 1
        self.state = state
        # free the old projections first, so old and new never coexist
        self._wf = self._low = None
        self._last = None  # the last append's action key and kernel rows
        self._recompute()

    def _recompute(self) -> None:
        state = self.state
        model = state.model
        spare = 0  # points the state has room for
        if self.budget is not None:
            cheapest = min(model.costs[lev - 1] for lev in (*state.err, model.m))
            spare = max(int(self.budget // cheapest) + 1, 0)  # 0 once overspent
        self.capacity = state.n + spare
        # k_f(X, Xc), built row by row against the candidates, then copied
        # into Fortran order, as are the error blocks: every solve runs in place
        kf = np.asfortranarray(model.target_prior.kernel.cross(state.X, self.Xc))
        # fidelity l -> (W_l, W_eps_l)
        self._low = {}
        for lev, ef in state.err.items():
            ke = np.asfortranarray(model.error_kernel(lev).cross(state.X[ef.idx], self.Xc))
            cross = kf.copy(order="F")
            cross[ef.idx, :] += ke
            wl = _Rows(state.L, cross, self.capacity)
            del cross  # before the next solve, so one solved copy is alive at a time
            self._low[lev] = wl, _Rows(ef.L, ke, len(ef.idx) + spare)
            del ke
        self._wf = _Rows(state.L, kf, self.capacity)
        # the values folded into the mean, L^-1 (y - mu) and W_f^T of it
        self._y, self._a, self._wa = np.zeros(0), np.zeros(0), np.zeros(self.Xc.shape[0])

    def append(self, action: Action) -> None:
        """Condition on one more observation at action."""
        if self.state.n == self.capacity:
            raise RuntimeError("append past the %d points sized from the budget" % self.capacity)
        self.state = new = self.state.append(action)
        self.budget -= float(new.model.costs[action.fidelity - 1])
        if new.rebuilt is not None:
            return self.reset(new, new.rebuilt)
        lev = action.fidelity
        w, d = new.L[-1, :-1], new.L[-1, -1]
        kf_row, ke_row = self._kernel_rows(action)
        self._wf.append(kf_row, w, d)
        for l, (wl, we) in self._low.items():
            if l == lev:
                wl.append(kf_row + ke_row, w, d)
                ef = new.err[lev]
                we.append(ke_row, ef.L[-1, :-1], ef.L[-1, -1])
            else:
                wl.append(kf_row, w, d)

    def _kernel_rows(self, action: Action) -> tuple:
        """k_f(x, Xc) and, where action's fidelity has a projection pair,
        k_eps_l(x, Xc), else None. An append that repeats the previous one
        reuses its rows, which depend only on the point and the model, and
        reset() drops them: a policy may query one point again and again,
        as gp_mi on borehole8 does in about 95% of its appends."""
        key = action.x.tobytes(), action.fidelity
        if self._last is None or self._last[0] != key:
            model = self.state.model
            x1 = action.x[None, :]
            kf = model.target_prior.kernel.cross(x1, self.Xc)[0]
            ke = None
            if action.fidelity in self._low:
                ke = model.error_kernel(action.fidelity).cross(x1, self.Xc)[0]
            self._last = key, kf, ke
        return self._last[1:]

    def _degenerate(self) -> np.ndarray:
        """Candidates whose latent variance is below DEGENERATE_VAR."""
        sv = self.state.model.target_prior.kernel.signal_variance
        return (sv - self._wf.sq < DEGENERATE_VAR) | (sv < DEGENERATE_VAR)

    def _gain(self, lev: int, degenerate) -> np.ndarray:
        """gains()[lev], as a fresh array."""
        model = self.state.model
        # 0.5 log(v1 / v0), each variance floored at 1e-300, in place on
        # v1; v0 stays a scalar while it is the same at every candidate
        low = self._low.get(lev)
        g = model.prior_variance(lev) - (self._wf.sq if low is None else low[0].sq)
        np.maximum(g, 1e-300, out=g)
        if lev < model.m:
            v0 = model.error_kernel(lev).signal_variance + model.noise_variance(lev)
        else:
            v0 = model.noise_variance(lev)
        if low is None:
            v0 = max(v0, 1e-300)
        else:
            v0 = v0 - low[1].sq
            np.maximum(v0, 1e-300, out=v0)
        np.divide(g, v0, out=g)
        np.log(g, out=g)
        g *= 0.5
        g[degenerate] = 0.0
        return g

    def gains(self) -> dict[int, np.ndarray]:
        """{fidelity: gains} of one fresh observation at each candidate."""
        degenerate = self._degenerate()
        return {lev: self._gain(lev, degenerate) for lev in range(1, self.state.model.m + 1)}

    def pick(self, fidelities, taken=None) -> tuple[int, int, float] | None:
        """The greedy step: the (fidelity, candidate index, gain) with the
        largest gain per cost over fidelities, or None if every pair is
        taken. taken maps a fidelity to a boolean mask of candidates to
        skip. Ties break to the fidelity listed first, then the lowest
        candidate index. Only the listed fidelities' gains are computed.
        """
        degenerate = self._degenerate()
        costs = self.state.model.costs
        best, best_ratio = None, -np.inf
        for lev in fidelities:
            g = self._gain(lev, degenerate)
            ratio = g / costs[lev - 1]
            if taken is not None:
                ratio[taken[lev]] = -np.inf
            i = int(np.argmax(ratio))
            if ratio[i] > best_ratio:
                best, best_ratio = (lev, i, float(g[i])), ratio[i]
        return best

    def posterior(self, y) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean, prior + W_f^T a with a = L^-1 (y - mu), and
        pointwise variance, sv - (W_f column sums of squares) floored at 0,
        of f at Xc given the values y observed at the state's points, in
        the order they were appended. A call solves a and adds W_f's rows
        only for the values past those folded so far, and folds afresh if y
        differs from them. Raises ValueError unless y holds one finite
        value per point."""
        state = self.state
        y = _observed_values(y, state.n)
        prior = state.model.target_prior
        k = self._y.shape[0]
        if not np.array_equal(y[:k], self._y):
            k, self._wa = 0, np.zeros(self.Xc.shape[0])
        if k < state.n:
            # rows k: of L a = y - mu, given a[:k]
            resid = y[k:] - prior.mean - state.L[k:, :k] @ self._a[:k]
            a = solve_triangular(state.L[k:, k:], resid)
            self._wa += self._wf.rows[k:].T @ a
            self._y, self._a = y.copy(), np.concatenate([self._a[:k], a])
        mean = prior.mean + self._wa
        return mean, np.maximum(prior.kernel.signal_variance - self._wf.sq, 0.0)


# --------------------------------------------------------------------------
# hyperparameter refitting

def default_hyper_grid(model: FidelityModel) -> tuple[FidelityModel, ...]:
    """5x5 grid of (lengthscale, signal-variance) multipliers around model.

    The same multipliers apply to the target and every error process. The
    lengthscale multiplier is the outer loop, so each run of 5 consecutive
    models shares its kernels' unit blocks in fit_hyperparameters. The
    middle entry, both multipliers 1, is model itself, so a refit that
    keeps the prior's parameters keeps its factors.
    """
    factors = np.logspace(np.log10(0.25), np.log10(4.0), 5)
    return tuple(model if a == b == 1.0 else model.scaled(a, b)
                 for a in factors for b in factors)


def log_marginal_likelihood(model: FidelityModel, X, fids, y, memo=None) -> float:
    """log p(y) of values y observed at points X of fidelities fids.

    memo is passed to _joint_sym: fit_hyperparameters keeps one for the
    whole grid, so grid models that share a kernel's lengthscales share its
    unit block, and the value is bitwise the one computed without it.
    Raises ValueError unless y holds one finite value per point.
    """
    X, fids = _located(model, X, fids)
    n = X.shape[0]
    y = _observed_values(y, n)
    if n == 0:
        return 0.0
    K = _joint_sym(model, X, fids, memo)
    L, _ = chol_factor(K)
    resid = y - model.target_prior.mean
    a = solve_triangular(L, resid)
    return float(
        -0.5 * (a @ a) - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2.0 * np.pi)
    )


def fit_hyperparameters(state: CovState, y, grid: Sequence[FidelityModel]) -> FidelityModel:
    """Pick the grid model with the best joint log marginal likelihood of
    the values y observed at state's points.

    Each grid model is scored by one log_marginal_likelihood call, all
    sharing one memo. Ties break to the earliest grid index; grid points whose
    covariance cannot be factorized are skipped; if every point fails, or
    the grid is empty, state's model is kept and a warning is issued.
    Raises ValueError unless y holds one finite value per point.
    """
    y = _observed_values(y, state.n)
    best = None
    best_lml = -np.inf
    memo = {}
    for cand in grid:
        if cand.m != state.model.m or cand.dim != state.model.dim:
            raise ValueError("grid model shape does not match the state's model")
        try:
            lml = log_marginal_likelihood(cand, state.X, state.fids, y, memo)
        except NumericalError:
            continue
        if lml > best_lml:
            best_lml = lml
            best = cand
    if best is None:
        warnings.warn("hyperparameter grid search failed at every grid point")
        return state.model
    return best
