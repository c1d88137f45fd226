"""Regret accounting over policy traces.

Cumulative regret charges the full budget at the target exchange rate: a
trace with budget B and target cost c_m could have bought B / c_m target
queries, so

    R(B) = (B / c_m) f* - sum_j f(x_j)

over the target queries x_j actually made. decompose_regret splits this
into the exploration overhead (cost diverted from target queries, plus
any unspent residue, priced in f* units) and the sum of per-query
instantaneous regrets; the two sides agree to rounding error by
construction, and the check is wired into the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import Trace


def cumulative_regret(trace: Trace, f_star: float, cost: float | None = None) -> float:
    """Regret at spend level cost (default: the budget), counting the
    episodes finished by then."""
    if cost is None:
        cost = trace.budget
    done = _finished_by(np.cumsum([ep.cost for ep in trace.episodes]), cost)
    return (cost / trace.target_cost) * f_star - float(np.sum(trace.rewards()[:done]))


def _finished_by(costs: np.ndarray, cost: float) -> int:
    """How many episodes, ending at cumulative costs, finished by spend cost."""
    return int(np.searchsorted(costs, cost + 1e-9, side="right"))


def decompose_regret(trace: Trace, f_star: float) -> dict:
    """Split cumulative regret into exploration overhead and query regret.

    Returns total, the two parts, their recombination and the gap
    |total - recombined|. The residue (budget left unspent because it no
    longer covered a target query) is charged to the exploration side.
    """
    lam = trace.target_cost
    explore_total = float(sum(ep.explore_cost for ep in trace.episodes))
    residue = trace.budget - trace.spent
    overhead = (f_star / lam) * (explore_total + residue)
    query = float(sum(f_star - ep.target_true for ep in trace.episodes))
    total = cumulative_regret(trace, f_star)
    recombined = overhead + query
    return {
        "total": total,
        "exploration_overhead": overhead,
        "query_regret": query,
        "explore_cost_total": explore_total,
        "residue": residue,
        "recombined": recombined,
        "gap": abs(total - recombined),
    }


@dataclass(frozen=True, eq=False)
class RegretCurve:
    """Per-episode checkpoints of some running quantity against spend."""

    kind: str
    costs: np.ndarray   # cumulative cost after each episode, increasing
    values: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if costs.shape != values.shape or costs.ndim != 1:
            raise ValueError("costs and values must be matching 1-d arrays")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "values", values)

    def value_at(self, cost: float) -> float:
        """Last recorded value at spend <= cost; NaN before the first point."""
        idx = _finished_by(self.costs, cost) - 1
        if idx < 0:
            return float("nan")
        return float(self.values[idx])


def simple_regret_curve(trace: Trace, f_star: float) -> RegretCurve:
    """f* minus the running best target value after each episode."""
    costs = np.cumsum([ep.cost for ep in trace.episodes])
    best = np.maximum.accumulate(trace.rewards())
    return RegretCurve("simple_regret", costs, f_star - best)


def cumulative_regret_curve(trace: Trace, f_star: float) -> RegretCurve:
    costs = np.cumsum([ep.cost for ep in trace.episodes])
    rewards = np.cumsum(trace.rewards())
    values = (costs / trace.target_cost) * f_star - rewards
    return RegretCurve("cumulative_regret", costs, values)
