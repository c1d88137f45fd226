"""Synthetic multi-fidelity benchmark problems.

Each problem has the additive model's form: a target f, written for
maximization, plus one fixed smooth low-frequency disturbance per lower
fidelity with a documented amplitude bound

    u_l(x) = f(x) + A_l * cos(2*pi * w.z + phi),   z = unit-cube coords,

with w, phi drawn once from a seeded generator, so |u_l - f| <= A_l
everywhere and evaluators are deterministic given (name, seed). Classical
minimization forms are negated and, where the maximum would be negative,
shifted (currin2 is 2 - currin, borehole8 10 - borehole).

Disturbance amplitudes, observation-noise fractions and the default GP
hyperparameters below are reproduction parameters: they shape the test
problems but are not part of any algorithmic contract.

Each problem is one row of _PROBLEMS. Certified optima (dense quasi-random
scan plus local refinement, frozen): hartmann6 3.322368011415514, currin2
2 - 3*(1 - exp(-1/2)), borehole8 10 - 7.819676328755232 at the domain
corner recorded as its x_star.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .gp import GpPrior, SquaredExpKernel
from .model import Action, FidelityModel
from .util import as_points, halton_points, mix64

# fixed sample used to estimate ranges/variances at build time
_RANGE_SEED = 170_561
_RANGE_SAMPLE = 4096


@dataclass(frozen=True, eq=False)
class BenchmarkProblem:
    """A fixed multi-fidelity problem as the additive model sees it: u_m is
    target_fn and u_l = target_fn + disturbances[l-1] below it (noiseless,
    (n, d) -> (n,)), observed with noise_sd[l-1]; m and d are the model's."""

    name: str
    bounds: np.ndarray          # (d, 2)
    target_fn: Callable
    disturbances: tuple[Callable, ...]  # one per lower fidelity
    noise_sd: np.ndarray        # (m,)
    f_star: float               # certified max of the target
    x_star: np.ndarray
    model: FidelityModel        # default prior (reproduction parameters)

    def __post_init__(self):
        m, d = self.m, self.dim
        parts = (len(self.disturbances), np.shape(self.noise_sd), np.shape(self.bounds))
        if parts != (m - 1, (m,), (d, 2)):
            raise ValueError(
                "problem %r disagrees with its model (m=%d, d=%d): %d disturbances, "
                "noise_sd shape %s, bounds shape %s" % ((self.name, m, d) + parts))

    @property
    def costs(self) -> np.ndarray:
        """Query cost of each fidelity, strictly increasing: the model's."""
        return self.model.costs

    @property
    def m(self) -> int:
        return self.model.m

    @property
    def dim(self) -> int:
        return self.model.dim

    def values(self, X, fidelity: int) -> np.ndarray:
        """Noiseless u_l at an (n, d) array of points."""
        if not 1 <= fidelity <= self.m:
            raise ValueError("fidelity %r out of range 1..%d" % (fidelity, self.m))
        X = as_points(X, self.dim)
        v = np.asarray(self.target_fn(X), dtype=np.float64)
        return v + self.disturbances[fidelity - 1](X) if fidelity < self.m else v

    def value(self, x, fidelity: int | None = None) -> float:
        """Noiseless u_l at one point x of length d (default l: the target)."""
        if fidelity is None:
            fidelity = self.m
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError("x must be a point of length %d, got shape %s" % (self.dim, x.shape))
        return float(self.values(x[None, :], fidelity)[0])

    def evaluate(self, action: Action, rng: np.random.Generator) -> float:
        """One noisy observation; always draws exactly one normal."""
        noiseless = self.value(action.x, action.fidelity)
        return noiseless + float(self.noise_sd[action.fidelity - 1]) * float(
            rng.standard_normal()
        )


# --------------------------------------------------------------------------
# targets, in maximization form

def _hartmann6(X):
    A = np.array(
        [
            [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
            [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
            [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
            [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
        ]
    )
    P = 1e-4 * np.array(
        [
            [1312, 1696, 5569, 124, 8283, 5886],
            [2329, 4135, 8307, 3736, 1004, 9991],
            [2348, 1451, 3522, 2883, 3047, 6650],
            [4047, 8828, 8732, 5743, 1091, 381],
        ]
    )
    alpha = np.array([1.0, 1.2, 3.0, 3.2])
    inner = ((X[:, None, :] - P[None]) ** 2 * A).sum(-1)
    return (np.exp(-inner) * alpha).sum(-1)


def _currin2(X):
    x1, x2 = X[:, 0], X[:, 1]
    # the exponential factor tends to 1 as x2 -> 0+
    fac = np.where(x2 <= 0, 1.0, 1.0 - np.exp(-1.0 / (2.0 * np.maximum(x2, 1e-300))))
    num = 2300 * x1**3 + 1900 * x1**2 + 2092 * x1 + 60
    den = 100 * x1**3 + 500 * x1**2 + 4 * x1 + 20
    return 2.0 - fac * num / den


def _borehole8(X):
    rw, r, tu, hu, tl, hl, ell, kw = (X[:, i] for i in range(8))
    lnr = np.log(r / rw)
    return 10.0 - 2.0 * np.pi * tu * (hu - hl) / (
        lnr * (1.0 + 2.0 * ell * tu / (lnr * rw**2 * kw) + tu / tl)
    )


# --------------------------------------------------------------------------
# problem assembly

def _cosine_bump(bounds, amplitude: float, seed: int):
    """Smooth disturbance bounded by amplitude, fixed once per seed."""
    rng = np.random.default_rng(seed)
    lo = bounds[:, 0].copy()
    span = (bounds[:, 1] - bounds[:, 0]).copy()
    w = rng.uniform(0.5, 1.5, size=bounds.shape[0])
    phi = rng.uniform(0.0, 2.0 * np.pi)

    def bump(X):
        z = (X - lo) / span
        return amplitude * np.cos(2.0 * np.pi * (z @ w) + phi)

    return bump


def _assemble(name, target_fn, bounds, costs, amplitudes, f_star, x_star, noise_frac, seed):
    bounds = np.asarray(bounds, dtype=np.float64)
    sample = halton_points(bounds, _RANGE_SAMPLE, _RANGE_SEED)
    fm = target_fn(sample)
    disturbances = tuple(
        _cosine_bump(bounds, amp, mix64(seed, name, lev))
        for lev, amp in enumerate(amplitudes, start=1)
    )
    noise_sd = np.array(
        [noise_frac * float(np.ptp(v)) for v in [fm + d(sample) for d in disturbances] + [fm]]
    )

    # default prior: reproduction parameters, refined online by grid search
    span = bounds[:, 1] - bounds[:, 0]
    target_prior = GpPrior(
        kernel=SquaredExpKernel(
            signal_variance=float(np.var(fm)), lengthscales=0.2 * span
        ),
        noise_variance=float(noise_sd[-1] ** 2),
        mean=float(np.mean(fm)),
    )
    error_priors = tuple(
        GpPrior(
            kernel=SquaredExpKernel(
                signal_variance=max(amp**2 / 2.0, 1e-8), lengthscales=0.5 * span
            ),
            noise_variance=float(noise_sd[lev - 1] ** 2),
        )
        for lev, amp in enumerate(amplitudes, start=1)
    )
    model = FidelityModel(target_prior=target_prior, error_priors=error_priors, costs=costs)
    return BenchmarkProblem(
        name=name,
        bounds=bounds,
        target_fn=target_fn,
        disturbances=disturbances,
        noise_sd=noise_sd,
        f_star=f_star,
        x_star=np.asarray(x_star, dtype=np.float64),
        model=model,
    )


# name -> target, bounds, costs, disturbance amplitudes, f* and x*.
# borehole8's amplitude is 0.4 x the target's range over the fixed range
# sample (tests recompute it bit for bit).
_PROBLEMS = {
    "hartmann6": dict(
        target_fn=_hartmann6,
        bounds=[[0.0, 1.0]] * 6,
        costs=[1.0, 2.0, 4.0, 8.0],
        amplitudes=[0.6, 0.4, 0.2],
        f_star=3.322368011415514,
        x_star=[0.20168950968761765, 0.15001069413863433, 0.47687396963094986,
                0.27533242916768874, 0.31165161370991157, 0.6573005333899428],
    ),
    "currin2": dict(
        target_fn=_currin2,
        bounds=[[0.0, 1.0]] * 2,
        costs=[1.0, 3.0],
        amplitudes=[0.5],
        f_star=2.0 - 3.0 * (1.0 - float(np.exp(-0.5))),
        x_star=[0.0, 1.0],
    ),
    "borehole8": dict(
        target_fn=_borehole8,
        bounds=[
            [0.05, 0.15],       # r_w
            [100.0, 50000.0],   # r
            [63070.0, 115600.0],  # T_u
            [990.0, 1110.0],    # H_u
            [63.1, 116.0],      # T_l
            [700.0, 820.0],     # H_l
            [1120.0, 1680.0],   # L
            [9855.0, 12045.0],  # K_w
        ],
        costs=[1.0, 2.0],
        amplitudes=[107.67842733846463],
        f_star=10.0 - 7.819676328755232,
        x_star=[0.05, 50000.0, 63070.0, 990.0, 63.1, 820.0, 1680.0, 9855.0],
    ),
}

PROBLEM_NAMES = tuple(sorted(_PROBLEMS))


def make_problem(name: str, noise: float = 0.05, seed: int = 0) -> BenchmarkProblem:
    """Build a benchmark problem by name.

    noise is the observation-noise fraction of each fidelity's sampled
    range (0 disables noise); seed fixes the lower-fidelity disturbances.
    """
    try:
        row = _PROBLEMS[name]
    except KeyError:
        raise ValueError(
            "unknown problem %r (known: %s)" % (name, ", ".join(PROBLEM_NAMES))
        ) from None
    if not 0 <= noise < np.inf:
        raise ValueError("noise fraction must be finite and >= 0")
    return _assemble(name, noise_frac=noise, seed=seed, **row)


def single_fidelity_problem(problem: BenchmarkProblem) -> BenchmarkProblem:
    """Target-only view of a problem (m = 1), same cost and noise."""
    model = FidelityModel(problem.model.target_prior, (), problem.costs[-1:])
    return replace(problem, name=problem.name + "-sf", disturbances=(),
                   noise_sd=problem.noise_sd[-1:].copy(), model=model)
