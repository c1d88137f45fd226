"""Synthetic multi-fidelity benchmark problems.

All problems are maximization; classical minimization forms are negated
and, where the resulting maximum would be negative, shifted by a constant
so the best target value is positive. Lower fidelities are the target
function plus a fixed smooth low-frequency disturbance with a documented
amplitude bound

    u_l(x) = f(x) + A_l * cos(2*pi * w.z + phi),   z = unit-cube coords,

with w, phi drawn once from a seeded generator, so |u_l - f| <= A_l
everywhere and evaluators are deterministic given (name, seed).

Disturbance amplitudes, observation-noise fractions and the default GP
hyperparameters below are reproduction parameters: they shape the test
problems but are not part of any algorithmic contract.

Certified optima (dense quasi-random scan plus local refinement, frozen):
hartmann6 3.322368011415514, currin2 2 - 3*(1 - exp(-1/2)), borehole8
10 - 7.819676328755232 at the domain corner recorded in _BOREHOLE_XSTAR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gp import GpPrior, SquaredExpKernel
from .model import Action, FidelityModel
from .util import halton_points, mix64

# fixed sample used to estimate ranges/variances at build time
_RANGE_SEED = 170_561
_RANGE_SAMPLE = 4096


@dataclass(frozen=True, eq=False)
class BenchmarkProblem:
    """A fixed multi-fidelity problem: noiseless evaluators plus noise."""

    name: str
    bounds: np.ndarray          # (d, 2)
    fidelity_fns: tuple[Callable, ...]  # vectorized (n, d) -> (n,); last is the target
    noise_sd: np.ndarray        # (m,)
    f_star: float               # certified max of the target
    x_star: np.ndarray
    model: FidelityModel        # default prior (reproduction parameters)

    @property
    def costs(self) -> np.ndarray:
        """Query cost of each fidelity, strictly increasing: the model's."""
        return self.model.costs

    @property
    def m(self) -> int:
        return len(self.fidelity_fns)

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    def values(self, X, fidelity: int) -> np.ndarray:
        """Noiseless u_l at an (n, d) array of points."""
        if not 1 <= fidelity <= self.m:
            raise ValueError("fidelity %r out of range 1..%d" % (fidelity, self.m))
        X = np.asarray(X, dtype=np.float64).reshape(-1, self.dim)
        return np.asarray(self.fidelity_fns[fidelity - 1](X), dtype=np.float64)

    def value(self, x, fidelity: int | None = None) -> float:
        if fidelity is None:
            fidelity = self.m
        return float(self.values(np.asarray(x).reshape(1, -1), fidelity)[0])

    def evaluate(self, action: Action, rng: np.random.Generator) -> float:
        """One noisy observation; always draws exactly one normal."""
        noiseless = self.value(action.x, action.fidelity)
        return noiseless + float(self.noise_sd[action.fidelity - 1]) * float(
            rng.standard_normal()
        )


# --------------------------------------------------------------------------
# raw response surfaces

def _hartmann6_raw(X):
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
    return -(np.exp(-inner) * alpha).sum(-1)


def _currin_raw(X):
    x1, x2 = X[:, 0], X[:, 1]
    # the exponential factor tends to 1 as x2 -> 0+
    fac = np.where(x2 <= 0, 1.0, 1.0 - np.exp(-1.0 / (2.0 * np.maximum(x2, 1e-300))))
    num = 2300 * x1**3 + 1900 * x1**2 + 2092 * x1 + 60
    den = 100 * x1**3 + 500 * x1**2 + 4 * x1 + 20
    return fac * num / den


_BOREHOLE_BOUNDS = np.array(
    [
        [0.05, 0.15],       # r_w
        [100.0, 50000.0],   # r
        [63070.0, 115600.0],  # T_u
        [990.0, 1110.0],    # H_u
        [63.1, 116.0],      # T_l
        [700.0, 820.0],     # H_l
        [1120.0, 1680.0],   # L
        [9855.0, 12045.0],  # K_w
    ]
)


def _borehole_raw(X):
    rw, r, tu, hu, tl, hl, ell, kw = (X[:, i] for i in range(8))
    lnr = np.log(r / rw)
    return 2.0 * np.pi * tu * (hu - hl) / (
        lnr * (1.0 + 2.0 * ell * tu / (lnr * rw**2 * kw) + tu / tl)
    )


_HARTMANN6_XSTAR = np.array(
    [
        0.20168950968761765,
        0.15001069413863433,
        0.47687396963094986,
        0.27533242916768874,
        0.31165161370991157,
        0.6573005333899428,
    ]
)
_BOREHOLE_XSTAR = np.array(
    [0.05, 50000.0, 63070.0, 990.0, 63.1, 820.0, 1680.0, 9855.0]
)

_CURRIN_SHIFT = 2.0
_BOREHOLE_SHIFT = 10.0


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
    m = len(amplitudes) + 1
    sample = halton_points(bounds, _RANGE_SAMPLE, _RANGE_SEED)
    fm = target_fn(sample)

    fns = []
    for lev, amp in enumerate(amplitudes, start=1):
        bump = _cosine_bump(bounds, amp, mix64(seed, name, lev))
        fns.append(_add_bump(target_fn, bump))
    fns.append(target_fn)

    noise_sd = np.array(
        [noise_frac * float(np.ptp(fn(sample))) for fn in fns]
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
        fidelity_fns=tuple(fns),
        noise_sd=noise_sd,
        f_star=f_star,
        x_star=np.asarray(x_star, dtype=np.float64),
        model=model,
    )


def _add_bump(fn, bump):
    return lambda X: fn(X) + bump(X)


def _shifted_neg(fn, shift):
    return lambda X: shift - fn(X)


def _make_hartmann6(noise, seed):
    return _assemble(
        "hartmann6",
        _shifted_neg(_hartmann6_raw, 0.0),
        np.array([[0.0, 1.0]] * 6),
        [1.0, 2.0, 4.0, 8.0],
        [0.6, 0.4, 0.2],
        f_star=3.322368011415514,
        x_star=_HARTMANN6_XSTAR,
        noise_frac=noise,
        seed=seed,
    )


def _make_currin2(noise, seed):
    return _assemble(
        "currin2",
        _shifted_neg(_currin_raw, _CURRIN_SHIFT),
        np.array([[0.0, 1.0]] * 2),
        [1.0, 3.0],
        [0.5],
        f_star=_CURRIN_SHIFT - 3.0 * (1.0 - float(np.exp(-0.5))),
        x_star=np.array([0.0, 1.0]),
        noise_frac=noise,
        seed=seed,
    )


def _make_borehole8(noise, seed):
    sample = halton_points(_BOREHOLE_BOUNDS, _RANGE_SAMPLE, _RANGE_SEED)
    amp = 0.4 * float(np.ptp(_BOREHOLE_SHIFT - _borehole_raw(sample)))
    return _assemble(
        "borehole8",
        _shifted_neg(_borehole_raw, _BOREHOLE_SHIFT),
        _BOREHOLE_BOUNDS,
        [1.0, 2.0],
        [amp],
        f_star=_BOREHOLE_SHIFT - 7.819676328755232,
        x_star=_BOREHOLE_XSTAR,
        noise_frac=noise,
        seed=seed,
    )


_BUILDERS = {
    "hartmann6": _make_hartmann6,
    "currin2": _make_currin2,
    "borehole8": _make_borehole8,
}

PROBLEM_NAMES = tuple(sorted(_BUILDERS))


def make_problem(name: str, noise: float = 0.05, seed: int = 0) -> BenchmarkProblem:
    """Build a benchmark problem by name.

    noise is the observation-noise fraction of each fidelity's sampled
    range (0 disables noise); seed fixes the lower-fidelity disturbances.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            "unknown problem %r (known: %s)" % (name, ", ".join(PROBLEM_NAMES))
        ) from None
    if noise < 0:
        raise ValueError("noise fraction must be >= 0")
    return builder(noise, seed)


def single_fidelity_problem(problem: BenchmarkProblem) -> BenchmarkProblem:
    """Target-only view of a problem (m = 1), same cost and noise."""
    model = FidelityModel(
        target_prior=problem.model.target_prior,
        error_priors=(),
        costs=problem.costs[-1:],
    )
    return BenchmarkProblem(
        name=problem.name + "-sf",
        bounds=problem.bounds,
        fidelity_fns=problem.fidelity_fns[-1:],
        noise_sd=problem.noise_sd[-1:].copy(),
        f_star=problem.f_star,
        x_star=problem.x_star,
        model=model,
    )
