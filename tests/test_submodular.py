import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import info_gain_single
from mfbo import submodular
from mfbo.acquisition import make_candidates
from mfbo.benchmarks import make_problem
from mfbo.gp import GpPrior, SquaredExpKernel
from mfbo.model import Action, CandidateGains, CovState, FidelityModel, info_gain_set
from mfbo.policy import PolicyConfig, mf_mi_greedy
from mfbo.submodular import KS_GUARANTEE, gamma_max_bound
from mfbo.verify import EXHAUSTIVE_MAX, exhaustive_opt


def gamma_oracle(model, candidates, budget, beta):
    """Step-by-step gamma_max_bound using only info_gain_single.

    Returns the picked (fidelity, candidate index) pairs and the bound.
    """
    low = range(1, model.m)
    costs = model.costs
    c_max = float(max(costs[lev - 1] for lev in low))
    empty = CovState.empty(model)
    pairs = [(lev, i) for lev in low for i in range(len(candidates))]

    def gain(h, pair):
        lev, i = pair
        return info_gain_single(h, Action(x=candidates[i], fidelity=lev))

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
        h = h.append(Action(x=candidates[i], fidelity=lev))
        actions = [Action(x=candidates[j], fidelity=f) for f, j in picked]
        gamma = max(i_single, info_gain_set(empty, actions)) / KS_GUARANTEE
        if cost2 > c_max and gamma / (cost2 - c_max) < beta:
            break
    return picked, gamma


class TestGammaMaxBound:
    def test_single_candidate_value(self, two_fid_model):
        cand = np.array([[0.2]])
        bound = gamma_max_bound(two_fid_model, cand, budget=50.0, beta=1e-6)
        empty = CovState.empty(two_fid_model)
        gain = info_gain_single(empty, Action(x=np.array([0.2]), fidelity=1))
        assert bound == pytest.approx(gain / KS_GUARANTEE, abs=1e-12)

    def test_nonincreasing_in_beta(self, two_fid_model):
        cand = np.linspace(-1, 1, 12)[:, None]
        betas = [0.01, 0.05, 0.2, 0.8, 3.0]
        bounds = [gamma_max_bound(two_fid_model, cand, 40.0, b) for b in betas]
        for lo, hi in zip(bounds[1:], bounds):
            assert lo <= hi + 1e-12

    def test_huge_beta_stops_at_first_chance(self, two_fid_model):
        # with beta = inf the loop breaks at the first step past c_max;
        # costs [1,3] make that the second addition
        cand = np.linspace(-1, 1, 6)[:, None]
        bound = gamma_max_bound(two_fid_model, cand, 40.0, beta=np.inf)

        h = CovState.empty(two_fid_model)
        gains = np.array([info_gain_single(h, Action(x=p, fidelity=1))
                          for p in cand])
        i0 = int(np.argmax(gains))
        first = Action(x=cand[i0], fidelity=1)
        h1 = h.append(first)
        cond = np.array([info_gain_single(h1, Action(x=p, fidelity=1))
                         for p in cand])
        cond[i0] = -np.inf  # set semantics: the taken pair is out
        second = Action(x=cand[int(np.argmax(cond))], fidelity=1)
        expect = max(float(gains.max()),
                     info_gain_set(h, (first, second))) / KS_GUARANTEE
        assert bound == pytest.approx(expect, abs=1e-10)

    # every pair taken (16 picks); ratio below beta (14); budget spent (10)
    @pytest.mark.parametrize("budget, beta", [(30.0, 0.01), (40.0, 1.5), (12.0, 0.05)])
    def test_matches_oracle_pick_for_pick(self, three_fid_model, rng, monkeypatch, budget, beta):
        cand = rng.uniform(-1, 1, size=(8, 2))
        picks = []  # gamma_max_bound appends every pick to its CandidateGains
        append = CandidateGains.append

        def recording(self, action):
            picks.append(action)
            return append(self, action)

        monkeypatch.setattr(CandidateGains, "append", recording)
        bound = gamma_max_bound(three_fid_model, cand, budget, beta)
        want_picks, want_bound = gamma_oracle(three_fid_model, cand, budget, beta)
        got_picks = [
            (a.fidelity, int(np.flatnonzero((cand == a.x).all(axis=1))[0]))
            for a in picks
        ]
        assert got_picks == want_picks
        assert bound == pytest.approx(want_bound, rel=0, abs=1e-12)

    def test_the_last_pick_past_the_budget_has_a_row(self, two_fid_model, monkeypatch):
        # at cost 0.1 ten picks add up to 0.9999999999999999, within a
        # budget of 1.0, and the loop then takes an eleventh; the first
        # pick sizes the blocks from the 1.0 left of budget + c_max = 1.1,
        # where 1.0 // 0.1 is 9, so the budget alone would give 10 rows
        made = []

        class Recorded(CandidateGains):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(submodular, "CandidateGains", Recorded)
        model = replace(two_fid_model, costs=np.array([0.1, 1.0]))
        cand = np.linspace(-1, 1, 16)[:, None]
        gamma_max_bound(model, cand, 1.0, beta=0.0)
        (gains,) = made
        assert gains.capacity == gains.state.n == 11

    def test_single_fidelity_model_is_zero(self):
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 0.1)
        model = FidelityModel(target_prior=t, error_priors=(), costs=np.array([1.0]))
        cand = np.array([[0.0]])
        assert gamma_max_bound(model, cand, 10.0, 0.5) == 0.0

    def test_budget_positive(self, two_fid_model):
        cand = np.array([[0.0]])
        with pytest.raises(ValueError):
            gamma_max_bound(two_fid_model, cand, 0.0, 0.5)

    def test_candidates_must_be_model_dim_wide(self, two_fid_model):
        cand = np.zeros((3, 2))  # a 1-d model
        with pytest.raises(ValueError, match=r"candidates must be an \(n, 1\) matrix"):
            gamma_max_bound(two_fid_model, cand, 10.0, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_candidates_must_be_finite(self, two_fid_model, bad):
        # the bound used to skip a NaN candidate and count an inf one
        with pytest.raises(ValueError, match=r"candidates must be an \(n, 1\) matrix of finite"):
            gamma_max_bound(two_fid_model, np.array([[0.2], [bad]]), 20.0, 0.1)

    @pytest.mark.parametrize("budget", [np.nan, np.inf])
    def test_budget_finite(self, two_fid_model, budget):
        cand = np.array([[0.0]])
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            gamma_max_bound(two_fid_model, cand, budget, 0.5)

    @pytest.mark.parametrize("beta", [np.nan, -0.1, -np.inf])
    def test_beta_nonnegative(self, two_fid_model, beta):
        # a NaN or negative beta never ends the loop on the ratio rule
        cand = np.array([[0.0]])
        with pytest.raises(ValueError, match="beta"):
            gamma_max_bound(two_fid_model, cand, 10.0, beta)

    def test_dominates_episodes_that_repeat_pairs(self):
        # the bound ranges over sets, but Explore-LF may take one (point,
        # fidelity) pair twice in an episode, as this currin2 run does
        problem = make_problem("currin2", noise=0.05, seed=0)
        cfg = PolicyConfig(hyperfit_every=0, candidate_seed=1000)
        budget = 100.0 * problem.model.target_cost
        trace = mf_mi_greedy(problem, budget, cfg, seed=0)
        repeats = 0
        for ep in trace.episodes:
            pairs = [(o.action.fidelity, o.action.x.tobytes()) for o in ep.low_observations]
            repeats += len(pairs) - len(set(pairs))
        assert repeats > 0
        cand = make_candidates(problem.bounds, cfg.n_candidates, cfg.candidate_seed)
        beta = min(ep.explore_beta for ep in trace.episodes if ep.explore_beta is not None)
        bound = gamma_max_bound(problem.model, cand, budget, beta)
        assert all(bound >= ep.explore_info_gain for ep in trace.episodes)


class TestExhaustiveOpt:
    def _instance(self, three_fid_model, rng, n_points):
        state = CovState.empty(three_fid_model).append(
            Action(x=rng.uniform(-1, 1, size=2), fidelity=3))
        points = rng.uniform(-1, 1, size=(n_points, 2))
        actions = [Action(x=x, fidelity=lev) for lev in (1, 2) for x in points]
        return state, actions

    def test_matches_itertools(self, three_fid_model, rng):
        state, actions = self._instance(three_fid_model, rng, 3)
        costs = three_fid_model.costs
        rates = [info_gain_set(state, (a,)) / costs[a.fidelity - 1] for a in actions]
        for budget, beta in [(4.0, 0.3 * max(rates)), (np.inf, 0.0), (2.5, 0.9 * max(rates))]:
            want = 0.0
            for r in range(1, len(actions) + 1):
                for subset in itertools.combinations(actions, r):
                    cost = sum(costs[a.fidelity - 1] for a in subset)
                    gain = info_gain_set(state, subset)
                    if cost <= budget and gain / cost >= beta:
                        want = max(want, gain)
            assert want > 0.0
            got = exhaustive_opt(state, actions, budget, beta)
            assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_zero_when_no_set_clears_beta(self, three_fid_model, rng):
        state, actions = self._instance(three_fid_model, rng, 3)
        costs = three_fid_model.costs
        # beta above every set's gain per cost, then a budget below every cost
        top = max(info_gain_set(state, s) / sum(costs[a.fidelity - 1] for a in s)
                  for r in range(1, len(actions) + 1)
                  for s in itertools.combinations(actions, r))
        assert exhaustive_opt(state, actions, np.inf, 1.01 * top) == 0.0
        assert exhaustive_opt(state, actions, 0.5 * min(costs), 0.0) == 0.0

    def test_size_guard(self, three_fid_model, rng):
        state, actions = self._instance(three_fid_model, rng, EXHAUSTIVE_MAX // 2 + 1)
        with pytest.raises(ValueError, match="exhaustive"):
            exhaustive_opt(state, actions, 10.0, 0.0)
