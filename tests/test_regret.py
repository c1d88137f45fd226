import math

import numpy as np
import pytest

from mfbo.benchmarks import make_problem
from mfbo.model import Action, Observation
from mfbo.policy import Episode, PolicyConfig, Trace, mf_mi_greedy
from mfbo.regret import (
    RegretCurve,
    cumulative_regret,
    cumulative_regret_curve,
    decompose_regret,
    simple_regret_curve,
)
from mfbo.verify import make_toy_problem

MODEL = make_problem("currin2", noise=0.0).model


def episode_regret(episode: Episode, f_star: float, target_cost: float) -> float:
    """Budget-rated regret of one episode: (cost/c_m) f* minus its reward."""
    return (episode.cost / target_cost) * f_star - episode.target_true


def make_episode(index, target_true, explore_cost=0.0, target_cost=2.0,
                 gain=0.0):
    x = np.array([0.5, 0.5])
    low = ()
    if explore_cost:
        low = (Observation(Action(x=x, fidelity=1), 0.0),)
    return Episode(
        index=index,
        low_observations=low,
        target_observation=Observation(Action(x=x, fidelity=MODEL.m), target_true),
        target_true=target_true,
        cost=explore_cost + target_cost,
        explore_cost=explore_cost,
        explore_info_gain=gain,
        explore_beta=None,
        explore_stop_reason=None,
        model=MODEL,
    )


def make_trace(episodes, budget, target_cost=2.0, policy="mf_mi_greedy"):
    spent = sum(e.cost for e in episodes)
    return Trace(
        problem_name="toy",
        policy=policy,
        seed=0,
        budget=budget,
        spent=spent,
        target_cost=target_cost,
        episodes=tuple(episodes),
        recommendation=None,
        recommendation_value=float("nan"),
    )


class TestEpisodeRegret:
    def test_pure_target_query_at_argmax(self):
        ep = make_episode(1, target_true=3.0, target_cost=2.0)
        assert episode_regret(ep, f_star=3.0, target_cost=2.0) == 0.0

    def test_pure_target_query_one_below(self):
        ep = make_episode(1, target_true=2.0)
        assert episode_regret(ep, f_star=3.0, target_cost=2.0) == pytest.approx(1.0)

    def test_exploration_charged_at_target_rate(self):
        # one low action cost 1 plus the target at cost 2, f* = 2 achieved:
        # (3/2)*2 - 2 = 1
        ep = make_episode(1, target_true=2.0, explore_cost=1.0, target_cost=2.0)
        assert episode_regret(ep, f_star=2.0, target_cost=2.0) == pytest.approx(1.0)


class TestCumulativeRegret:
    def test_perfect_play_zero(self):
        eps = [make_episode(i, target_true=1.5) for i in range(1, 4)]
        trace = make_trace(eps, budget=6.0)
        assert cumulative_regret(trace, f_star=1.5) == pytest.approx(0.0)

    def test_single_episode_example(self):
        ep = make_episode(1, target_true=2.0, explore_cost=1.0)
        trace = make_trace([ep], budget=3.0)
        assert cumulative_regret(trace, f_star=2.0) == pytest.approx(1.0)

    def test_empty_trace_charges_full_budget(self):
        trace = make_trace([], budget=5.0, target_cost=1.0)
        assert cumulative_regret(trace, f_star=1.0) == pytest.approx(5.0)

    def test_agrees_with_episode_sum_plus_residue(self):
        rng = np.random.default_rng(3)
        eps = [make_episode(i, target_true=float(rng.normal()),
                            explore_cost=float(rng.integers(0, 3)))
               for i in range(1, 6)]
        budget = sum(e.cost for e in eps) + 1.3
        trace = make_trace(eps, budget=budget)
        f_star = 2.0
        via_sum = sum(episode_regret(e, f_star, 2.0) for e in eps)
        via_sum += (budget - trace.spent) / 2.0 * f_star
        assert cumulative_regret(trace, f_star) == pytest.approx(via_sum, abs=1e-9)

    def test_at_checkpoint_counts_finished_episodes(self):
        eps = [make_episode(1, 1.0), make_episode(2, 2.0, explore_cost=1.0)]
        trace = make_trace(eps, budget=6.0)
        # after cost 2: only episode 1 done; f*=2 -> (2/2)*2 - 1 = 1
        assert cumulative_regret(trace, 2.0, 2.0) == pytest.approx(1.0)
        # cost 4 lands mid-episode-2: still only episode 1 rewarded
        assert cumulative_regret(trace, 2.0, 4.0) == pytest.approx(3.0)
        assert cumulative_regret(trace, 2.0, 5.0) == pytest.approx(2.0)

    def test_default_spend_is_the_budget_bit_for_bit(self):
        toy = make_toy_problem()
        tr = mf_mi_greedy(toy, 21.0, PolicyConfig(n_candidates=16, hyperfit_every=0), seed=2718)
        f = toy.f_star
        assert tr.n_episodes >= 2 and tr.spent < tr.budget
        assert cumulative_regret(tr, f) == cumulative_regret(tr, f, tr.budget)
        # every episode counts, summed as one np.sum
        assert cumulative_regret(tr, f) == (
            (tr.budget / tr.target_cost) * f - float(np.sum(tr.rewards())))


class TestDecomposition:
    def test_identity_on_synthetic_traces(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            eps = [make_episode(i, float(rng.normal()),
                                explore_cost=float(rng.integers(0, 4)))
                   for i in range(1, int(rng.integers(1, 7)))]
            budget = sum(e.cost for e in eps) + float(rng.uniform(0, 1.9))
            trace = make_trace(eps, budget=budget)
            d = decompose_regret(trace, f_star=1.7)
            assert d["gap"] <= 1e-9
            assert d["total"] == pytest.approx(
                d["exploration_overhead"] + d["query_regret"], abs=1e-9)
            assert d["residue"] == pytest.approx(budget - trace.spent)

    def test_no_exploration_means_query_regret_only(self):
        eps = [make_episode(i, 1.0) for i in range(1, 4)]
        trace = make_trace(eps, budget=6.0)
        d = decompose_regret(trace, f_star=2.0)
        assert d["exploration_overhead"] == 0.0
        assert d["total"] == pytest.approx(d["query_regret"])


class TestCurves:
    def test_simple_regret_running_max(self):
        values = [0.5, 1.4, 0.9, 1.4, 2.0]
        eps = [make_episode(i + 1, v) for i, v in enumerate(values)]
        trace = make_trace(eps, budget=10.0)
        curve = simple_regret_curve(trace, f_star=2.0)
        assert curve.kind == "simple_regret"
        assert np.allclose(curve.costs, [2, 4, 6, 8, 10])
        assert np.allclose(curve.values, [1.5, 0.6, 0.6, 0.6, 0.0])
        assert np.all(np.diff(curve.values) <= 1e-12)

    def test_first_query_at_argmax_stays_flat_zero(self):
        eps = [make_episode(1, 2.0), make_episode(2, 1.0), make_episode(3, 0.0)]
        curve = simple_regret_curve(make_trace(eps, 6.0), f_star=2.0)
        assert np.allclose(curve.values, 0.0)

    def test_value_at_lookup(self):
        curve = RegretCurve("simple_regret", np.array([2.0, 4.0]), np.array([1.0, 0.5]))
        assert math.isnan(curve.value_at(1.0))
        assert curve.value_at(2.0) == 1.0
        assert curve.value_at(3.9) == 1.0
        assert curve.value_at(4.0) == 0.5
        assert curve.value_at(100.0) == 0.5

    def test_curve_shape_validation(self):
        with pytest.raises(ValueError):
            RegretCurve("simple_regret", np.array([1.0]), np.array([1.0, 2.0]))

    def test_cumulative_curve_matches_pointwise(self):
        eps = [make_episode(1, 1.0), make_episode(2, 0.5, explore_cost=2.0)]
        trace = make_trace(eps, budget=6.0)
        curve = cumulative_regret_curve(trace, f_star=1.0)
        # after ep1: (2/2)*1 - 1 = 0; after ep2: (6/2)*1 - 1.5 = 1.5
        assert np.allclose(curve.costs, [2.0, 6.0])
        assert np.allclose(curve.values, [0.0, 1.5])
