import numpy as np
import pytest

from conftest import info_gain_single
from mfbo.acquisition import make_candidates
from mfbo.explore import (
    BUDGET_EXHAUSTED,
    LOW_CUMULATIVE_RATIO,
    TARGET_BETTER,
    ExploreResult,
    alpha_budget,
    explore_lf,
)
from mfbo.gp import GpPrior, SquaredExpKernel
from mfbo.model import Action, CandidateGains, CovState, FidelityModel, info_gain_set
from mfbo.policy import PolicyConfig

EXPONENT = PolicyConfig.alpha_exponent
POINTS3 = np.array([[-0.6], [0.0], [0.7]])


def explore(budget, state, points=POINTS3):
    """explore_lf over points, ranked by a fresh CandidateGains at state."""
    return explore_lf(budget, EXPONENT, CandidateGains(state, points, budget))


def random_state(rng, model, n):
    state = CovState.empty(model)
    for _ in range(n):
        a = Action(x=rng.uniform(-1, 1, size=1), fidelity=int(rng.integers(1, 3)))
        state = state.append(a)
    return state


def greedy_oracle(budget, model, state, points=POINTS3):
    """Step-by-step reimplementation using only info_gain_single."""
    beta = 1.0 / alpha_budget(budget, EXPONENT)
    lam = model.costs
    lam_m = float(lam[-1])
    if budget < lam_m:
        return [], BUDGET_EXHAUSTED
    h = state
    picked = []
    spent = 0.0
    cum = 0.0
    while True:
        reserve = budget - spent - lam_m
        scored = []
        for lev in range(1, model.m + 1):
            if lam[lev - 1] > reserve:
                continue
            for i, x in enumerate(points):
                a = Action(x=x, fidelity=lev)
                g = info_gain_single(h, a)
                scored.append((g / lam[lev - 1], lev, i, g, a))
        if not scored:
            return picked, BUDGET_EXHAUSTED
        scored.sort(key=lambda s: (-s[0], s[1], s[2]))
        ratio, lev, _, g, a = scored[0]
        if lev == model.m:
            return picked, TARGET_BETTER
        if (cum + g) / (spent + lam[lev - 1]) < beta:
            return picked, LOW_CUMULATIVE_RATIO
        picked.append(a)
        spent += lam[lev - 1]
        cum += g
        h = h.append(a)


class TestStoppingConditions:
    def test_budget_below_target_cost(self, two_fid_model):
        res = explore(2.5, CovState.empty(two_fid_model))
        assert res.selected == () and res.stop_reason == BUDGET_EXHAUSTED
        assert res.cost == 0.0 and res.cumulative_info_gain == 0.0

    def test_no_room_for_any_lower_query(self, two_fid_model):
        # B - lambda_m = 0.5 < cheapest lower cost 1
        res = explore(3.5, CovState.empty(two_fid_model))
        assert res.selected == () and res.stop_reason == BUDGET_EXHAUSTED

    def test_target_better_immediately(self):
        # a huge-amplitude error process makes the proxy nearly useless,
        # so the per-cost argmax lands on the target right away
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.4])), 0.05)
        e = GpPrior(SquaredExpKernel(signal_variance=10.0, lengthscales=np.array([0.6])), 0.05)
        model = FidelityModel(target_prior=t, error_priors=(e,), costs=np.array([2.9, 3.0]))
        res = explore(10.0, CovState.empty(model))
        assert res.selected == () and res.stop_reason == TARGET_BETTER

    def test_low_ratio_exit(self, two_fid_model):
        # B=8: beta = 1/2, and the fifth cheap query would drag the
        # cumulative gain per cost under it
        res = explore(8.0, CovState.empty(two_fid_model), np.array([[-1.0], [0.0], [1.0]]))
        assert res.stop_reason == LOW_CUMULATIVE_RATIO
        assert len(res.selected) == 4
        assert res.cumulative_info_gain / res.cost >= res.beta - 1e-10


class TestFirstDecision:
    """On a fresh model, whether Explore-LF explores at all is a closed form:
    it does iff the low fidelity's gain per cost 0.5 log(1 + s_f/(s_eps + s_n))/c_1
    reaches both the target's 0.5 log(1 + s_f/s_n)/c_2 and beta."""

    @pytest.mark.parametrize("s_eps", [0.150, 0.154, 0.155, 0.160])
    def test_explores_iff_the_low_rate_reaches_the_targets(self, s_eps):
        s_n, (c1, c2), budget = 0.0025, (1.0, 3.0), 45.0
        model = FidelityModel(
            target_prior=GpPrior(SquaredExpKernel(1.0, np.array([0.2, 0.2])), s_n),
            error_priors=(GpPrior(SquaredExpKernel(s_eps, np.array([0.5, 0.5])), s_n),),
            costs=np.array([c1, c2]))
        low = 0.5 * np.log1p(1.0 / (s_eps + s_n)) / c1
        target = 0.5 * np.log1p(1.0 / s_n) / c2
        explores = low >= target and low >= budget ** -EXPONENT
        # the rates meet at s_eps = 1/((1 + 1/s_n)^(1/3) - 1) - s_n = 0.154382
        assert explores == (s_eps < 0.154382)
        candidates = make_candidates([[0.0, 1.0]] * 2, 1000, 0)
        res = explore_lf(budget, EXPONENT, CandidateGains(CovState.empty(model), candidates, budget))
        if explores:
            # once started, the episode runs to the reserve of one target query
            assert (res.stop_reason, len(res.selected)) == (BUDGET_EXHAUSTED, (budget - c2) // c1)
        else:
            assert (res.stop_reason, len(res.selected)) == (TARGET_BETTER, 0)


class TestGreedySequence:
    def test_matches_per_step_oracle(self, two_fid_model, rng):
        for budget in (5.0, 9.0, 14.0, 30.0, 100.0):
            h = random_state(rng, two_fid_model, int(rng.integers(0, 3)))
            res = explore(budget, h)
            want, want_reason = greedy_oracle(budget, two_fid_model, h)
            assert res.stop_reason == want_reason
            assert len(res.selected) == len(want)
            for got, exp in zip(res.selected, want):
                assert got.fidelity == exp.fidelity
                assert np.allclose(got.x, exp.x)

    def test_three_fidelity_oracle(self, three_fid_model, rng):
        pts = rng.uniform(-1, 1, size=(3, 2))
        h = CovState.empty(three_fid_model)
        for budget in (8.0, 20.0, 60.0):
            res = explore(budget, h, pts)
            want, want_reason = greedy_oracle(budget, three_fid_model, h, pts)
            assert res.stop_reason == want_reason
            assert [a.fidelity for a in res.selected] == [a.fidelity for a in want]
            for got, exp in zip(res.selected, want):
                assert np.allclose(got.x, exp.x)

    def test_gain_chain_sum_matches_joint(self, two_fid_model):
        res = explore(40.0, CovState.empty(two_fid_model))
        assert len(res.selected) >= 2
        h = CovState.empty(two_fid_model)
        chain = 0.0
        for a in res.selected:
            chain += info_gain_single(h, a)
            h = h.append(a)
        assert res.cumulative_info_gain == pytest.approx(chain, abs=1e-10)


class TestCertificate:
    def test_ratio_and_reserve_hold(self, two_fid_model, rng):
        nonempty = 0
        for i in range(25):
            budget = float(rng.uniform(4.0, 40.0))
            h = random_state(rng, two_fid_model, int(rng.integers(0, 4)))
            res = explore(budget, h)
            assert res.beta == pytest.approx(1.0 / alpha_budget(budget, EXPONENT))
            for a in res.selected:
                assert a.fidelity < two_fid_model.m
            if res.selected:
                nonempty += 1
                assert res.cost + two_fid_model.target_cost <= budget + 1e-12
                gain = info_gain_set(h, res.selected)
                assert gain / res.cost >= res.beta - 1e-10
        assert nonempty >= 5

    def test_cost_is_sum_of_costs(self, two_fid_model):
        res = explore(25.0, CovState.empty(two_fid_model))
        expect = sum(two_fid_model.costs[a.fidelity - 1] for a in res.selected)
        assert res.cost == pytest.approx(expect)


class TestCallerGains:
    def test_picks_are_appended_to_the_callers_object(self, two_fid_model):
        cands = CandidateGains(CovState.empty(two_fid_model), POINTS3, 40.0)
        res = explore_lf(40.0, EXPONENT, cands)
        assert len(res.selected) >= 2
        assert np.array_equal(cands.state.X, [a.x for a in res.selected])
        assert list(cands.state.fids) == [a.fidelity for a in res.selected]

    def test_rejects_an_object_at_another_state(self, two_fid_model):
        # explore_lf reads only cands and appends its picks there; values
        # recorded for another state do not match its points and are refused
        state = CovState.empty(two_fid_model).append(Action(x=np.array([0.2]), fidelity=1))
        cands = CandidateGains(state, POINTS3, 40.0)
        res = explore_lf(40.0, EXPONENT, cands)
        assert len(res.selected) >= 1
        assert cands.state.n == 1 + len(res.selected)
        with pytest.raises(ValueError, match="1 values for %d observed points" % cands.state.n):
            cands.posterior(np.zeros(1))
        cands.posterior(np.zeros(cands.state.n))


class TestConfig:
    def test_alpha_exponent_range(self):
        for bad in (0.0, 0.5, 0.6, -0.1):
            with pytest.raises(ValueError):
                PolicyConfig(alpha_exponent=bad)

    def test_alpha_budget(self):
        assert alpha_budget(27.0, 1.0 / 3.0) == pytest.approx(3.0)
        assert alpha_budget(16.0, 0.25) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            alpha_budget(0.0, 1.0 / 3.0)
