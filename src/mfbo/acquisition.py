"""Single-fidelity GP maximizer subroutines over finite candidate sets.

Both selectors act on the posterior of the latent target f at a fixed
candidate set and return the index of the chosen point. Ties break to the
lowest candidate index (first argmax).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import halton_points


@dataclass(frozen=True)
class CandidateSet:
    """Finite optimization domain of quasi-uniform points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def default_candidate_count(dim: int) -> int:
    return 1000 if dim <= 2 else 5000


def make_candidates(bounds, n: int | None, seed: int) -> CandidateSet:
    """Seeded quasi-uniform candidate set inside the box bounds (d, 2)."""
    bounds = np.asarray(bounds, dtype=np.float64)
    if n is None:
        n = default_candidate_count(bounds.shape[0])
    if n < 1:
        raise ValueError("candidate count must be >= 1")
    return CandidateSet(points=halton_points(bounds, n, seed))


@dataclass(frozen=True)
class UcbSchedule:
    """Confidence schedule for GP-UCB on a finite candidate set.

    beta_t = 2 * log(n_candidates * t^2 * pi^2 / (6 * delta)), t >= 1.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")

    def beta(self, t: int, n_candidates: int) -> float:
        if t < 1:
            raise ValueError("round index t must be >= 1")
        return 2.0 * float(
            np.log(n_candidates * t**2 * np.pi**2 / (6.0 * self.delta))
        )


def gp_ucb_select(mean, var, schedule: UcbSchedule, t: int) -> int:
    """argmax of mean + sqrt(beta_t) * std over candidates; returns index."""
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if mean.shape[0] == 0:
        raise ValueError("empty candidate set")
    beta = schedule.beta(t, mean.shape[0])
    score = mean + np.sqrt(beta) * np.sqrt(np.maximum(var, 0.0))
    return int(np.argmax(score))


def gp_mi_select(mean, var, accumulated_gamma: float, alpha_mi: float) -> tuple[int, float]:
    """Mutual-information acquisition.

    score = mean + sqrt(alpha_mi) * (sqrt(var + gamma) - sqrt(gamma));
    the chosen point's variance is folded into the accumulator, which the
    caller carries across rounds. Returns (index, new_gamma).
    """
    if accumulated_gamma < 0:
        raise ValueError("accumulated_gamma must be >= 0")
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape[0] == 0:
        raise ValueError("empty candidate set")
    var = np.maximum(np.asarray(var, dtype=np.float64), 0.0)
    bonus = np.sqrt(var + accumulated_gamma) - np.sqrt(accumulated_gamma)
    score = mean + np.sqrt(alpha_mi) * bonus
    idx = int(np.argmax(score))
    return idx, accumulated_gamma + float(var[idx])