"""Budgeted maximization of monotone submodular set functions.

greedy_knapsack implements the classic best-of-two scheme: run the
benefit-per-cost greedy, compare against the best affordable singleton,
and keep the better set. For monotone submodular f with f(empty) = 0 the
result is at least (1/2)*(1 - 1/e) of the knapsack optimum.

gamma_max_bound applies the same machinery to lower-fidelity information
gain under a joint multi-fidelity GP prior: it grows a greedy exploration
set until its scaled value stops paying for its cost at rate beta, and
returns an upper bound on the information any single exploration episode
of that rate can collect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .acquisition import CandidateSet
from .model import Action, CandidateGains, FidelityModel, History, info_gain_set

# best-of-two greedy approximation factor for the submodular knapsack
KS_GUARANTEE = 0.5 * (1.0 - float(np.exp(-1.0)))

# enumeration guard for the exact solver
BRUTE_FORCE_MAX = 20


@dataclass(frozen=True)
class GroundSet:
    """Items 0..n-1 with positive costs and a set-utility function.

    utility maps a frozenset of item indices to a real; it is evaluated
    through an internal memo, so callers can hand in expensive functions.
    """

    costs: np.ndarray
    utility: Callable[[frozenset], float]

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=np.float64).reshape(-1)
        if costs.size == 0:
            raise ValueError("ground set must not be empty")
        if not np.all(costs > 0):
            raise ValueError("costs must be strictly positive")
        costs.flags.writeable = False
        object.__setattr__(self, "costs", costs)

    @property
    def n(self) -> int:
        return self.costs.shape[0]


class _Memo:
    def __init__(self, fn):
        self.fn = fn
        self.cache = {}

    def __call__(self, items: frozenset) -> float:
        v = self.cache.get(items)
        if v is None:
            v = float(self.fn(items))
            self.cache[items] = v
        return v


def greedy_knapsack(ground: GroundSet, budget: float) -> tuple[tuple[int, ...], float]:
    """Best of (benefit-per-cost greedy) and (best affordable singleton).

    Returns (sorted item tuple, value). Ties inside the greedy break to
    the lowest item index; between the two tracks the greedy set wins ties.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    f = _Memo(ground.utility)
    costs = ground.costs

    best_single = None
    best_single_val = -np.inf
    for v in range(ground.n):
        if costs[v] <= budget:
            val = f(frozenset((v,)))
            if val > best_single_val:
                best_single_val = val
                best_single = v

    chosen: set[int] = set()
    spent = 0.0
    cur = f(frozenset())
    while True:
        best_ratio = -np.inf
        pick = None
        pick_val = None
        for v in range(ground.n):
            if v in chosen or spent + costs[v] > budget:
                continue
            val = f(frozenset(chosen | {v}))
            ratio = (val - cur) / costs[v]
            if ratio > best_ratio:
                best_ratio = ratio
                pick = v
                pick_val = val
        if pick is None:
            break
        chosen.add(pick)
        spent += costs[pick]
        cur = pick_val

    if best_single is not None and best_single_val > cur:
        return (best_single,), best_single_val
    return tuple(sorted(chosen)), cur


def brute_force_knapsack(ground: GroundSet, budget: float) -> tuple[tuple[int, ...], float]:
    """Exact knapsack optimum by subset enumeration (n <= 20).

    Ties break to the lexicographically smallest index set (lowest mask).
    """
    n = ground.n
    if n > BRUTE_FORCE_MAX:
        raise ValueError("brute force limited to %d items, got %d" % (BRUTE_FORCE_MAX, n))
    if budget < 0:
        raise ValueError("budget must be >= 0")
    f = _Memo(ground.utility)
    costs = ground.costs
    best_mask = 0
    best_val = f(frozenset())
    for mask in range(1, 1 << n):
        items = [v for v in range(n) if mask >> v & 1]
        if sum(costs[v] for v in items) > budget:
            continue
        val = f(frozenset(items))
        if val > best_val:
            best_val = val
            best_mask = mask
    return tuple(v for v in range(n) if best_mask >> v & 1), best_val


def check_ratio_monotone(ground: GroundSet, b1: float, b2: float) -> bool:
    """Check g(b1 + c_max)/b1 >= g(b2)/b2 for the exact knapsack value g.

    Requires 0 < b1 <= b2; c_max is the largest item cost. A small
    relative tolerance absorbs enumeration roundoff.
    """
    if not 0 < b1 <= b2:
        raise ValueError("need 0 < b1 <= b2")
    c_max = float(ground.costs.max())
    _, g1 = brute_force_knapsack(ground, b1 + c_max)
    _, g2 = brute_force_knapsack(ground, b2)
    lhs = g1 / b1
    rhs = g2 / b2
    return lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


def gamma_max_bound(
    model: FidelityModel,
    candidates: CandidateSet,
    budget: float,
    beta: float,
) -> float:
    """Upper bound on the information one exploration episode can collect.

    Grows a greedy lower-fidelity set S2 under the joint prior (no prior
    observations) by information gain per cost; after each addition the
    bound is max(I(best single), I(S2)) / (0.5*(1 - 1/e)). Once S2 costs
    more than the largest single-action cost, the loop stops as soon as
    bound / (cost(S2) - c_max) < beta. Larger beta stops earlier and
    yields a smaller (tighter) bound. S2 is a set: each (point, fidelity)
    pair enters at most once, and the loop ends early if every pair is
    already selected. Ties break to the lowest fidelity, then the lowest
    candidate index, as in explore_lf. As there, the gains come from one
    CandidateGains: each pick adds one row per candidate projection, and
    a rebuilt factor makes them recompute from scratch.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if model.m < 2:
        return 0.0
    low = list(range(1, model.m))
    c_max = float(max(model.costs[lev - 1] for lev in low))
    empty = History.empty(model)
    cands = CandidateGains(empty.cov, candidates.points)

    gains0 = cands.gains()
    i_single = max(float(gains0[lev].max()) for lev in low)

    selected: list[Action] = []
    taken = {lev: np.zeros(candidates.n, dtype=bool) for lev in low}
    cost2 = 0.0
    gamma = i_single / KS_GUARANTEE
    while cost2 <= budget:
        gains = cands.gains()
        best_ratio = -np.inf
        pick = None
        for lev in low:
            arr = np.where(taken[lev], -np.inf, gains[lev] / model.costs[lev - 1])
            i = int(np.argmax(arr))
            if arr[i] > best_ratio:
                best_ratio = float(arr[i])
                pick = (lev, i)
        if pick is None:
            break  # every candidate-fidelity pair already in the set
        lev, i = pick
        taken[lev][i] = True
        action = Action(x=candidates.points[i], fidelity=lev)
        selected.append(action)
        cost2 += float(model.costs[lev - 1])
        cands.append(action)
        i_set = info_gain_set(empty, selected)
        gamma = max(i_single, i_set) / KS_GUARANTEE
        if cost2 <= c_max:
            continue
        if gamma / (cost2 - c_max) < beta:
            break
    return gamma
