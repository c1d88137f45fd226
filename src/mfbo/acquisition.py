"""Single-fidelity GP maximizer subroutines over finite candidate sets.

make_candidates builds a run's candidate set as a plain (n, d) matrix. Both
selectors act on the posterior of the latent target f at a fixed
candidate set and return the index of the chosen point. Ties break to the
lowest candidate index (first argmax).
"""

from __future__ import annotations

import numpy as np

from .util import halton_points


def default_candidate_count(dim: int) -> int:
    return 1000 if dim <= 2 else 5000


def make_candidates(bounds, n: int | None, seed: int) -> np.ndarray:
    """Seeded quasi-uniform candidate set inside the box bounds (d, 2): a
    read-only (n, d) matrix, dimension-major as CandidateGains keeps it."""
    bounds = np.asarray(bounds, dtype=np.float64)
    if n is None:
        n = default_candidate_count(bounds.shape[0])
    if n < 1:
        raise ValueError("candidate count must be >= 1")
    points = halton_points(bounds, n, seed)
    points.flags.writeable = False
    return points


def ucb_beta(t: int, n_candidates: int, delta: float) -> float:
    """GP-UCB confidence on a finite candidate set, for round t >= 1:

    beta_t = 2 * log(n_candidates * t^2 * pi^2 / (6 * delta)), 0 < delta < 1.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if t < 1:
        raise ValueError("round index t must be >= 1")
    return 2.0 * float(np.log(n_candidates * t**2 * np.pi**2 / (6.0 * delta)))


def gp_ucb_select(mean, var, delta: float, t: int) -> int:
    """argmax of mean + sqrt(beta_t) * std over candidates; returns index."""
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if mean.shape[0] == 0:
        raise ValueError("empty candidate set")
    beta = ucb_beta(t, mean.shape[0], delta)
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