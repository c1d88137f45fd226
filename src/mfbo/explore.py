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
result the selected set E certifies I(E)/cost(E) >= beta, where I(E) is
the running sum of the picks' conditional gains, which by the chain rule
is the joint gain of E about f; it is the sum the stop test compares, so
the certificate holds exactly as stored.

The scores come from the caller's CandidateGains (the policy keeps one for
a whole run), whose pick() is the greedy step over the feasible
fidelities, and the model is the one of its covariance state. Each pick
is appended to it and adds one row to each candidate projection it
enters, so a step costs O(n nc) for n observations and nc candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Action, CandidateGains

BUDGET_EXHAUSTED = "budget_exhausted"
TARGET_BETTER = "target_better"
LOW_CUMULATIVE_RATIO = "low_cumulative_ratio"


@dataclass(frozen=True)
class ExploreResult:
    selected: tuple[Action, ...]
    cost: float
    cumulative_info_gain: float
    stop_reason: str | None       # None only for NO_EXPLORATION
    beta: float | None


# what an episode that does not explore records: no picks, no cost, no gain
NO_EXPLORATION = ExploreResult((), 0.0, 0.0, None, None)


def alpha_budget(budget: float, exponent: float) -> float:
    """Exploration allowance alpha(B) = B**exponent."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    return float(budget) ** exponent


def explore_lf(budget: float, alpha_exponent: float, cands: CandidateGains) -> ExploreResult:
    """Select a lower-fidelity exploration set within the budget reserve.

    budget is the remaining budget B, and the stop threshold is
    beta = 1/alpha(B) = B**-alpha_exponent (PolicyConfig checks the
    exponent's range). The actions come from cands.Xc, shared by every
    fidelity, and are scored at cands.state; each pick is appended to it.
    """
    model = cands.state.model
    m = model.m
    beta = 1.0 / alpha_budget(budget, alpha_exponent) if budget > 0 else np.inf
    target_cost = model.target_cost

    selected: list[Action] = []
    cost_sel = 0.0
    running_gain = 0.0
    while True:
        reserve = budget - cost_sel - target_cost
        feasible = [lev for lev in range(1, m + 1) if model.costs[lev - 1] <= reserve]
        if not feasible:
            reason = BUDGET_EXHAUSTED
            break
        lev, idx, raw_gain = cands.pick(feasible)
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

    return ExploreResult(tuple(selected), cost_sel, running_gain, reason, beta)

