import itertools

import numpy as np
import pytest

from conftest import info_gain_single
from mfbo.acquisition import CandidateSet
from mfbo.gp import GpPrior, SquaredExpKernel
from mfbo.model import Action, CandidateGains, CovState, FidelityModel, info_gain_set
from mfbo.submodular import (
    KS_GUARANTEE,
    GroundSet,
    brute_force_knapsack,
    check_ratio_monotone,
    gamma_max_bound,
    greedy_knapsack,
)


def coverage_instance(rng, n, universe):
    """Random weighted-coverage utility: monotone submodular, f(empty)=0."""
    weights = rng.uniform(0.1, 1.0, size=universe)
    sets = [set(rng.choice(universe, size=rng.integers(1, universe // 2 + 2),
                           replace=False).tolist()) for _ in range(n)]

    def f(items):
        covered = set().union(*(sets[v] for v in items)) if items else set()
        return float(sum(weights[u] for u in covered))

    costs = rng.uniform(0.5, 2.0, size=n)
    return GroundSet(costs=costs, utility=f)


def gamma_oracle(model, candidates, budget, beta):
    """Step-by-step gamma_max_bound using only info_gain_single.

    Returns the picked (fidelity, candidate index) pairs and the bound.
    """
    low = range(1, model.m)
    costs = model.costs
    c_max = float(max(costs[lev - 1] for lev in low))
    empty = CovState.empty(model)
    pairs = [(lev, i) for lev in low for i in range(candidates.n)]

    def gain(h, pair):
        lev, i = pair
        return info_gain_single(h, Action(x=candidates.points[i], fidelity=lev))

    i_single = max(gain(empty, p) for p in pairs)
    gamma = i_single / KS_GUARANTEE
    h = empty
    picked = []
    cost2 = 0.0
    while cost2 <= budget:
        scored = [(gain(h, p) / costs[p[0] - 1], p) for p in pairs if p not in picked]
        if not scored:
            break
        scored.sort(key=lambda s: (-s[0], s[1]))
        lev, i = scored[0][1]
        picked.append((lev, i))
        cost2 += float(costs[lev - 1])
        h = h.append(Action(x=candidates.points[i], fidelity=lev))
        actions = [Action(x=candidates.points[j], fidelity=f) for f, j in picked]
        gamma = max(i_single, info_gain_set(empty, actions)) / KS_GUARANTEE
        if cost2 > c_max and gamma / (cost2 - c_max) < beta:
            break
    return picked, gamma


class TestGroundSet:
    def test_costs_positive(self):
        with pytest.raises(ValueError):
            GroundSet(costs=np.array([1.0, 0.0]), utility=lambda s: float(len(s)))

    def test_nonempty(self):
        with pytest.raises(ValueError):
            GroundSet(costs=np.array([]), utility=lambda s: 0.0)


class TestGreedyKnapsack:
    def test_budget_below_min_cost(self):
        g = GroundSet(costs=np.array([2.0, 3.0]), utility=lambda s: float(len(s)))
        items, value = greedy_knapsack(g, 1.0)
        assert items == () and value == 0.0

    def test_modular_equal_costs_picks_top_k(self):
        weights = np.array([0.3, 0.9, 0.1, 0.7, 0.5])
        g = GroundSet(costs=np.ones(5),
                      utility=lambda s: float(sum(weights[v] for v in s)))
        items, value = greedy_knapsack(g, 3.0)
        assert set(items) == {1, 3, 4}
        assert value == pytest.approx(0.9 + 0.7 + 0.5)

    def test_guarantee_on_random_coverage(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            g = coverage_instance(rng, n=8, universe=10)
            budget = float(rng.uniform(1.0, 6.0))
            _, greedy_val = greedy_knapsack(g, budget)
            _, opt = brute_force_knapsack(g, budget)
            assert greedy_val >= KS_GUARANTEE * opt - 1e-12

    def test_negative_budget_rejected(self):
        g = GroundSet(costs=np.ones(2), utility=lambda s: float(len(s)))
        with pytest.raises(ValueError):
            greedy_knapsack(g, -1.0)

    def test_singleton_track_can_win(self):
        # one huge item the ratio greedy skips at first: value 10 at cost 3
        # vs three cost-1 items worth 1.2 each; greedy-by-ratio fills up on
        # the cheap ones, the singleton track must rescue the answer
        vals = {0: 10.0, 1: 1.2, 2: 1.2, 3: 1.2}

        def f(items):
            return float(sum(vals[v] for v in items))

        g = GroundSet(costs=np.array([3.0, 1.0, 1.0, 1.0]), utility=f)
        items, value = greedy_knapsack(g, 3.0)
        assert items == (0,) and value == pytest.approx(10.0)


class TestBruteForce:
    def test_unbounded_budget_returns_full_set(self):
        g = GroundSet(costs=np.ones(4), utility=lambda s: float(len(s)))
        items, value = brute_force_knapsack(g, np.inf)
        assert items == (0, 1, 2, 3) and value == 4.0

    def test_single_item_iff_affordable(self):
        g = GroundSet(costs=np.array([2.0]), utility=lambda s: float(len(s)))
        assert brute_force_knapsack(g, 2.0)[0] == (0,)
        assert brute_force_knapsack(g, 1.9)[0] == ()

    def test_dominates_greedy(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            g = coverage_instance(rng, n=7, universe=9)
            budget = float(rng.uniform(0.5, 8.0))
            _, gv = greedy_knapsack(g, budget)
            _, bv = brute_force_knapsack(g, budget)
            assert bv >= gv - 1e-12

    def test_size_guard(self):
        g = GroundSet(costs=np.ones(21), utility=lambda s: float(len(s)))
        with pytest.raises(ValueError):
            brute_force_knapsack(g, 5.0)

    def test_exact_against_itertools(self):
        rng = np.random.default_rng(5)
        g = coverage_instance(rng, n=6, universe=8)
        budget = 4.0
        best = 0.0
        for r in range(7):
            for combo in itertools.combinations(range(6), r):
                if sum(g.costs[v] for v in combo) <= budget:
                    best = max(best, g.utility(frozenset(combo)))
        _, bv = brute_force_knapsack(g, budget)
        assert bv == pytest.approx(best, abs=1e-12)


class TestRatioMonotone:
    def test_equal_budgets(self):
        g = GroundSet(costs=np.ones(4), utility=lambda s: float(len(s)))
        assert check_ratio_monotone(g, 2.0, 2.0)

    def test_modular_unit_costs_direct(self):
        weights = np.array([3.0, 2.0, 1.0])
        g = GroundSet(costs=np.ones(3),
                      utility=lambda s: float(sum(weights[v] for v in s)))
        # g(1 + 1)/1 = 5 >= g(3)/3 = 2
        assert check_ratio_monotone(g, 1.0, 3.0)

    def test_random_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            g = coverage_instance(rng, n=int(rng.integers(3, 8)), universe=8)
            b1 = float(rng.uniform(0.5, 5.0))
            b2 = b1 + float(rng.uniform(0.0, 5.0))
            assert check_ratio_monotone(g, b1, b2)

    def test_budget_order_enforced(self):
        g = GroundSet(costs=np.ones(2), utility=lambda s: float(len(s)))
        with pytest.raises(ValueError):
            check_ratio_monotone(g, 3.0, 2.0)


class TestGammaMaxBound:
    def test_single_candidate_value(self, two_fid_model):
        cand = CandidateSet(points=np.array([[0.2]]))
        bound = gamma_max_bound(two_fid_model, cand, budget=50.0, beta=1e-6)
        empty = CovState.empty(two_fid_model)
        gain = info_gain_single(empty, Action(x=np.array([0.2]), fidelity=1))
        assert bound == pytest.approx(gain / KS_GUARANTEE, abs=1e-12)

    def test_nonincreasing_in_beta(self, two_fid_model):
        cand = CandidateSet(points=np.linspace(-1, 1, 12)[:, None])
        betas = [0.01, 0.05, 0.2, 0.8, 3.0]
        bounds = [gamma_max_bound(two_fid_model, cand, 40.0, b) for b in betas]
        for lo, hi in zip(bounds[1:], bounds):
            assert lo <= hi + 1e-12

    def test_huge_beta_stops_at_first_chance(self, two_fid_model):
        # with beta = inf the loop breaks at the first step past c_max;
        # costs [1,3] make that the second addition
        cand = CandidateSet(points=np.linspace(-1, 1, 6)[:, None])
        bound = gamma_max_bound(two_fid_model, cand, 40.0, beta=np.inf)

        h = CovState.empty(two_fid_model)
        gains = np.array([info_gain_single(h, Action(x=p, fidelity=1))
                          for p in cand.points])
        i0 = int(np.argmax(gains))
        first = Action(x=cand.points[i0], fidelity=1)
        h1 = h.append(first)
        cond = np.array([info_gain_single(h1, Action(x=p, fidelity=1))
                         for p in cand.points])
        cond[i0] = -np.inf  # set semantics: the taken pair is out
        second = Action(x=cand.points[int(np.argmax(cond))], fidelity=1)
        expect = max(float(gains.max()),
                     info_gain_set(h, (first, second))) / KS_GUARANTEE
        assert bound == pytest.approx(expect, abs=1e-10)

    # every pair taken (16 picks); ratio below beta (14); budget spent (10)
    @pytest.mark.parametrize("budget, beta", [(30.0, 0.01), (40.0, 1.5), (12.0, 0.05)])
    def test_matches_oracle_pick_for_pick(self, three_fid_model, rng, monkeypatch, budget, beta):
        cand = CandidateSet(points=rng.uniform(-1, 1, size=(8, 2)))
        picks = []  # gamma_max_bound appends every pick to its CandidateGains
        append = CandidateGains.append

        def recording(self, action):
            picks.append(action)
            return append(self, action)

        monkeypatch.setattr(CandidateGains, "append", recording)
        bound = gamma_max_bound(three_fid_model, cand, budget, beta)
        want_picks, want_bound = gamma_oracle(three_fid_model, cand, budget, beta)
        got_picks = [
            (a.fidelity, int(np.flatnonzero((cand.points == a.x).all(axis=1))[0]))
            for a in picks
        ]
        assert got_picks == want_picks
        assert bound == pytest.approx(want_bound, rel=0, abs=1e-12)

    def test_single_fidelity_model_is_zero(self):
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 0.1)
        model = FidelityModel(target_prior=t, error_priors=(), costs=np.array([1.0]))
        cand = CandidateSet(points=np.array([[0.0]]))
        assert gamma_max_bound(model, cand, 10.0, 0.5) == 0.0

    def test_budget_positive(self, two_fid_model):
        cand = CandidateSet(points=np.array([[0.0]]))
        with pytest.raises(ValueError):
            gamma_max_bound(two_fid_model, cand, 0.0, 0.5)
