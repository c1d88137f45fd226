"""Budget-aware greedy exploration of lower fidelities.

One candidate set is the domain for every fidelity. Each step scores every
candidate action (point, fidelity) by information gain about the latent
target per unit cost, conditioned on everything selected so far. The loop
keeps picking lower-fidelity actions until one of three exits fires:

  budget_exhausted      no action fits in the budget reserve,
  target_better         the per-cost argmax is a target-fidelity action,
  low_cumulative_ratio  adding the argmax would drop the set's total
                        information per cost below beta = 1/alpha(B).

The reserve keeps one target query affordable: an action at fidelity l is
feasible only if cost_l <= B - cost(selected) - cost_m. On a non-empty
result the selected set E certifies info_gain_set(E)/cost(E) >= beta.

The scores come from the caller's CandidateGains at the history's state
(the policy keeps one for a whole run). Each pick is appended to it and
adds one row to each candidate projection it enters, so a step costs
O(n nc) for n observations and nc candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Action, CandidateGains, History, info_gain_set

BUDGET_EXHAUSTED = "budget_exhausted"
TARGET_BETTER = "target_better"
LOW_CUMULATIVE_RATIO = "low_cumulative_ratio"


@dataclass(frozen=True)
class ExploreConfig:
    """The budget exponent of alpha(B) = B**alpha_exponent, in (0, 0.5)."""

    alpha_exponent: float = 1.0 / 3.0

    def __post_init__(self):
        if not 0.0 < self.alpha_exponent < 0.5:
            raise ValueError("alpha_exponent must lie in (0, 0.5)")


@dataclass(frozen=True)
class ExploreResult:
    selected: tuple[Action, ...]
    cost: float
    cumulative_info_gain: float
    stop_reason: str
    beta: float

    @property
    def size(self) -> int:
        return len(self.selected)


def alpha_budget(budget: float, exponent: float = 1.0 / 3.0) -> float:
    """Exploration allowance alpha(B) = B**exponent."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    return float(budget) ** exponent


def explore_lf(budget: float, history: History, cfg: ExploreConfig, cands: CandidateGains) -> ExploreResult:
    """Select a lower-fidelity exploration set within the budget reserve
    from cands.Xc, shared by every fidelity; each pick is appended to cands."""
    if cands.state is not history.cov:
        raise ValueError("cands must hold the history's covariance state")
    model = history.model
    m = model.m
    beta = 1.0 / alpha_budget(budget, cfg.alpha_exponent) if budget > 0 else np.inf
    target_cost = model.target_cost
    if budget < target_cost:
        return ExploreResult((), 0.0, 0.0, BUDGET_EXHAUSTED, beta)

    selected: list[Action] = []
    cost_sel = 0.0
    running_gain = 0.0
    reason = BUDGET_EXHAUSTED
    while True:
        reserve = budget - cost_sel - target_cost
        feasible = [lev for lev in range(1, m + 1) if model.costs[lev - 1] <= reserve]
        if not feasible:
            reason = BUDGET_EXHAUSTED
            break
        gains = cands.gains()
        best_score = -np.inf
        best = None  # (fidelity, candidate index, raw gain)
        for lev in feasible:
            arr = gains[lev] / model.costs[lev - 1]
            i = int(np.argmax(arr))
            if arr[i] > best_score:
                best_score = arr[i]
                best = (lev, i, float(gains[lev][i]))
        lev, idx, raw_gain = best
        if lev == m:
            reason = TARGET_BETTER
            break
        new_gain = running_gain + raw_gain
        new_cost = cost_sel + float(model.costs[lev - 1])
        if new_gain / new_cost < beta:
            reason = LOW_CUMULATIVE_RATIO
            break
        action = Action(x=cands.Xc[idx], fidelity=lev)
        selected.append(action)
        cost_sel = new_cost
        running_gain = new_gain
        cands.append(action)

    # certificate recomputed through the contract function so the stored
    # value is exactly what a verifier recomputes
    total_gain = info_gain_set(history, selected) if selected else 0.0
    return ExploreResult(tuple(selected), cost_sel, total_gain, reason, beta)

