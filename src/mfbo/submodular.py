"""An upper bound on the information one exploration episode can collect.

gamma_max_bound grows a greedy lower-fidelity set under the joint
multi-fidelity GP prior until its scaled value stops paying for its cost
at rate beta. The scaling is the best-of-two knapsack guarantee
KS_GUARANTEE = (1/2)(1 - 1/e): for a monotone submodular utility, the
better of the benefit-per-cost greedy set and the best single item is
worth at least that share of the knapsack optimum. Information about f
from low-fidelity queries is not submodular, so the bound's dominance is
checked, not proven: criterion 4 of mfbo.verify compares it with the
exhaustive optimum on small instances.
"""

from __future__ import annotations

import numpy as np

from .gp import one_blas_thread
from .model import Action, CandidateGains, CovState, FidelityModel

# best-of-two greedy approximation factor for the submodular knapsack
KS_GUARANTEE = 0.5 * (1.0 - float(np.exp(-1.0)))


@one_blas_thread()
def gamma_max_bound(
    model: FidelityModel,
    candidates: np.ndarray,
    budget: float,
    beta: float,
) -> float:
    """Upper bound on the information one exploration episode can collect.

    Grows a greedy lower-fidelity set S2 under the joint prior (no prior
    observations) by information gain per cost; after each addition the
    bound is max(I(best single), I(S2)) / (0.5*(1 - 1/e)), where I(S2) is
    the running sum of the picks' conditional gains, by the chain rule the
    joint gain of S2 (Explore-LF reports its certificate the same way).
    Once S2 costs more than the largest single-action cost, the loop stops
    as soon as bound / (cost(S2) - c_max) < beta. Larger beta stops
    earlier and yields a smaller (tighter) bound; beta must be >= 0.

    S2 is a set: each (point, fidelity) pair enters at most once, and the
    loop ends early if every pair is already selected. Explore-LF may pick
    the same pair twice in one episode, so on repeated picks the bound's
    dominance is measured (tests/test_submodular.py), not proven. Each
    step is CandidateGains.pick over the low fidelities, the greedy step
    Explore-LF runs: ties break to the lowest fidelity, then the lowest
    candidate index.
    """
    if not 0 < budget < np.inf:
        raise ValueError("budget must be positive and finite")
    if not beta >= 0:
        raise ValueError("beta must be >= 0")
    if model.m < 2:
        return 0.0
    low = list(range(1, model.m))
    c_max = float(max(model.costs[lev - 1] for lev in low))
    # the last pick may overshoot the budget by up to c_max
    cands = CandidateGains(CovState.empty(model), candidates, budget + c_max)
    i_single = max(float(g.max()) for lev, g in cands.gains().items() if lev < model.m)

    taken = {lev: np.zeros(cands.Xc.shape[0], dtype=bool) for lev in low}
    cost2 = 0.0
    i_set = 0.0
    gamma = i_single / KS_GUARANTEE
    while cost2 <= budget:
        best = cands.pick(low, taken)
        if best is None:
            break  # every candidate-fidelity pair already in the set
        lev, i, gain = best
        taken[lev][i] = True
        cost2 += float(model.costs[lev - 1])
        i_set += gain
        cands.append(Action(x=cands.Xc[i], fidelity=lev))
        gamma = max(i_single, i_set) / KS_GUARANTEE
        if cost2 <= c_max:
            continue
        if gamma / (cost2 - c_max) < beta:
            break
    return gamma
