import dataclasses

import numpy as np
import pytest

from conftest import predict_latent_diag
from mfbo import model as model_module
from mfbo import policy
from mfbo.benchmarks import BenchmarkProblem, make_problem, single_fidelity_problem
from mfbo.explore import alpha_budget
from mfbo.gp import GpPrior, SquaredExpKernel, chol_factor
from mfbo.model import (
    FIRST_POINT,
    JOINT_FAILED,
    NEW_MODEL,
    CandidateGains,
    CovState,
    FidelityModel,
    History,
    info_gain_set,
)
from mfbo.policy import (
    POLICIES,
    POLICY_NAMES,
    PolicyConfig,
    explore_then_exploit,
    mf_mi_greedy,
    serialize_trace,
    sf_only,
    trace_records,
)
from mfbo.regret import simple_regret_curve
from mfbo.verify import make_toy_problem

# produced once from the audited policy run below (toy problem, budget 21,
# seed 2718, 16 candidates, refits off); every exploration pick, stop
# reason, noise draw and cost was re-derived step by step from the
# posterior contract functions before freezing
GOLDEN = """\
1,1,1,1,-0.842015856386,0.748918739723
1,2,1,2,0.116649178862,0.936418739723
1,3,1,3,0.766914310249,0.498918739723
1,4,1,4,0.799557299955,0.248918739723
1,5,1,5,0.594586212968,0.0614187397227
1,6,1,6,0.492829933507,0.998918739723
1,7,1,7,0.903706015658,0.373918739723
1,8,1,8,-0.237339003212,0.623918739723
1,9,1,9,0.751582839404,0.186418739723
1,10,1,10,-0.413107627437,0.873918739723
1,11,2,13,0.954259616708,0.373918739723
2,1,2,16,0.658405710951,0.436418739723
3,1,2,19,0.135687914418,0.998918739723"""


@pytest.fixture(scope="module")
def toy():
    return make_toy_problem()


@pytest.fixture(scope="module")
def quick_cfg():
    return PolicyConfig(n_candidates=16, hyperfit_every=0)


def quadratic_problem():
    bounds = np.array([[-1.0, 1.0]])

    def f(X):
        return 1.0 - (X[:, 0] - 0.3) ** 2

    prior = GpPrior(
        kernel=SquaredExpKernel(signal_variance=0.5, lengthscales=np.array([0.5])),
        noise_variance=1e-6,
    )
    model = FidelityModel(target_prior=prior, error_priors=(), costs=np.array([1.0]))
    return BenchmarkProblem(
        name="quad1d",
        bounds=bounds,
        fidelity_fns=(f,),
        noise_sd=np.array([0.0]),
        f_star=1.0,
        x_star=np.array([0.3]),
        model=model,
    )


class TestGoldenTrace:
    def test_mf_mi_greedy_reproduces_golden(self, toy, quick_cfg):
        trace = mf_mi_greedy(toy, 21.0, quick_cfg, seed=2718)
        assert serialize_trace(trace) == GOLDEN
        assert [e.explore_stop_reason for e in trace.episodes] == [
            "target_better", "target_better", "low_cumulative_ratio"]
        assert [e.cost for e in trace.episodes] == [13.0, 3.0, 3.0]
        assert trace.spent == 19.0 and trace.budget == 21.0
        assert trace.recommendation[0] == pytest.approx(0.373918739723, abs=1e-11)
        assert trace.recommendation_value == pytest.approx(0.830827103349, abs=1e-9)

    def test_golden_betas_follow_remaining_budget(self, toy, quick_cfg):
        trace = mf_mi_greedy(toy, 21.0, quick_cfg, seed=2718)
        remaining = 21.0
        for ep in trace.episodes:
            beta = 1.0 / alpha_budget(remaining, quick_cfg.alpha_exponent)
            assert ep.explore_beta == pytest.approx(beta)
            remaining -= ep.cost

    def test_golden_certificate(self, toy, quick_cfg):
        trace = mf_mi_greedy(toy, 21.0, quick_cfg, seed=2718)
        ep = trace.episodes[0]
        assert ep.explore_info_gain / ep.explore_cost >= ep.explore_beta - 1e-10


class TestStoredCertificate:
    """Explore-LF stores the running sum of its picks' gains; by the chain
    rule it is their joint gain about f given the history before the
    episode, which info_gain_set computes from joint entropies."""

    @pytest.mark.parametrize("run", ["golden", "currin2"])
    def test_equals_joint_gain_of_the_picks(self, toy, quick_cfg, run):
        if run == "golden":
            trace = mf_mi_greedy(toy, 21.0, quick_cfg, seed=2718)
        else:
            problem = make_problem("currin2", seed=0)
            trace = mf_mi_greedy(problem, 100 * problem.model.target_cost,
                                 PolicyConfig(n_candidates=200), seed=1)
        before, exploring = [], 0
        for ep in trace.episodes:
            if ep.low_observations:
                exploring += 1
                history = History.from_observations(ep.model, before)
                want = info_gain_set(history, [o.action for o in ep.low_observations])
                assert abs(ep.explore_info_gain - want) <= 1e-10, (ep.index, want)
            before += ep.low_observations + (ep.target_observation,)
        assert exploring >= 1


class TestEpisodeStructure:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_well_formed(self, toy, quick_cfg, policy):
        trace = POLICIES[policy](toy, 15.0, quick_cfg, seed=5)
        assert trace.n_episodes >= 1
        m = toy.m
        for ep in trace.episodes:
            for lo in ep.low_observations:
                assert lo.action.fidelity < m
            assert ep.target_observation.action.fidelity == m
            low_cost = sum(toy.costs[lo.action.fidelity - 1]
                           for lo in ep.low_observations)
            assert ep.cost == pytest.approx(low_cost + toy.costs[-1])
            assert ep.explore_cost == pytest.approx(low_cost)
        assert trace.spent == pytest.approx(sum(e.cost for e in trace.episodes))
        assert trace.spent <= trace.budget + 1e-12

    def test_episode_indices_sequential(self, toy, quick_cfg):
        trace = mf_mi_greedy(toy, 15.0, quick_cfg, seed=5)
        assert [e.index for e in trace.episodes] == list(range(1, trace.n_episodes + 1))

    def test_budget_exactly_one_target(self, toy, quick_cfg):
        for policy in POLICIES.values():
            trace = policy(toy, 3.0, quick_cfg, seed=1)
            assert trace.n_episodes == 1
            assert trace.episodes[0].low_observations == ()
            assert trace.spent == 3.0

    def test_explore_then_exploit_explores_once(self, toy, quick_cfg):
        trace = explore_then_exploit(toy, 21.0, quick_cfg, seed=2718)
        assert len(trace.episodes[0].low_observations) > 0
        for ep in trace.episodes[1:]:
            assert ep.low_observations == ()
            assert ep.explore_stop_reason is None

    def test_sf_only_never_explores(self, toy, quick_cfg):
        trace = sf_only(toy, 21.0, quick_cfg, seed=2718)
        assert trace.n_episodes == 7  # floor(21 / 3)
        for ep in trace.episodes:
            assert ep.low_observations == ()
            assert ep.explore_beta is None


class TestDegenerateReduction:
    def test_single_fidelity_mf_equals_sf(self, toy, quick_cfg):
        sf_problem = single_fidelity_problem(toy)
        a = mf_mi_greedy(sf_problem, 18.0, quick_cfg, seed=99)
        b = sf_only(sf_problem, 18.0, quick_cfg, seed=99)
        assert trace_records(a) == trace_records(b)
        assert a.n_episodes == 6

    def test_ete_single_fidelity_equals_sf(self, toy, quick_cfg):
        sf_problem = single_fidelity_problem(toy)
        a = explore_then_exploit(sf_problem, 18.0, quick_cfg, seed=99)
        b = sf_only(sf_problem, 18.0, quick_cfg, seed=99)
        assert trace_records(a) == trace_records(b)


class TestSubroutines:
    def test_gp_mi_runs(self, toy):
        cfg = PolicyConfig(subroutine="gp_mi", n_candidates=16, hyperfit_every=0)
        trace = mf_mi_greedy(toy, 12.0, cfg, seed=7)
        assert trace.n_episodes >= 1 and not trace.failed

    def test_quadratic_ucb_finds_max(self):
        problem = quadratic_problem()
        cfg = PolicyConfig(n_candidates=200, hyperfit_every=0)
        trace = sf_only(problem, 20.0, cfg, seed=0)
        assert trace.n_episodes == 20
        curve = simple_regret_curve(trace, f_star=1.0)
        assert curve.values[-1] < 0.01

    def test_quadratic_gp_mi_finds_max(self):
        problem = quadratic_problem()
        cfg = PolicyConfig(subroutine="gp_mi", n_candidates=200, hyperfit_every=0)
        trace = sf_only(problem, 20.0, cfg, seed=0)
        assert simple_regret_curve(trace, f_star=1.0).values[-1] < 0.01


class TestDeterminism:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_same_seed_same_trace(self, toy, quick_cfg, policy):
        a = POLICIES[policy](toy, 12.0, quick_cfg, seed=31)
        b = POLICIES[policy](toy, 12.0, quick_cfg, seed=31)
        assert serialize_trace(a) == serialize_trace(b)

    def test_different_seed_differs(self, toy, quick_cfg):
        a = sf_only(toy, 12.0, quick_cfg, seed=31)
        b = sf_only(toy, 12.0, quick_cfg, seed=32)
        assert serialize_trace(a) != serialize_trace(b)


class TestRecords:
    def test_cost_accumulates_across_episodes(self, toy, quick_cfg):
        trace = mf_mi_greedy(toy, 21.0, quick_cfg, seed=2718)
        rows = trace_records(trace)
        cost = 0.0
        for row in rows:
            episode, step, fid, cost_so_far, y = row[:5]
            cost += float(toy.costs[fid - 1])
            assert cost_so_far == pytest.approx(cost)
            assert len(row) == 5 + toy.dim
        assert cost == pytest.approx(trace.spent)

    def test_steps_one_based_target_last(self, toy, quick_cfg):
        trace = mf_mi_greedy(toy, 21.0, quick_cfg, seed=2718)
        for ep in trace.episodes:
            rows = [r for r in trace_records(trace) if r[0] == ep.index]
            assert rows[0][1] == 1
            assert [r[1] for r in rows] == list(range(1, len(rows) + 1))
            assert rows[-1][2] == toy.m

    def test_rewards_are_noiseless_values(self, toy, quick_cfg):
        trace = mf_mi_greedy(toy, 12.0, quick_cfg, seed=3)
        for ep in trace.episodes:
            x = ep.target_observation.action.x
            assert ep.target_true == pytest.approx(toy.value(x, toy.m), abs=1e-12)
            # the learner's y is noisy, the reward is not
            assert ep.target_true != ep.target_observation.y


class TestValidation:
    def test_budget_below_target_cost(self, toy, quick_cfg):
        for policy in POLICIES.values():
            with pytest.raises(ValueError):
                policy(toy, 0.0, quick_cfg, seed=0)

    def test_unknown_subroutine(self):
        with pytest.raises(ValueError, match="subroutine"):
            PolicyConfig(subroutine="cma_es")

    def test_negative_hyperfit(self):
        with pytest.raises(ValueError):
            PolicyConfig(hyperfit_every=-1)

    def test_bad_delta_surfaces_at_run(self, toy):
        with pytest.raises(ValueError, match="delta"):
            sf_only(toy, 6.0, PolicyConfig(delta=2.0, n_candidates=8), seed=0)

    def test_bad_alpha_exponent_surfaces_at_run(self, toy):
        with pytest.raises(ValueError, match="alpha_exponent"):
            mf_mi_greedy(toy, 6.0, PolicyConfig(alpha_exponent=0.9, n_candidates=8), seed=0)


class TestHyperfit:
    def test_refit_changes_model_snapshot(self, toy):
        cfg = PolicyConfig(n_candidates=16, hyperfit_every=2)
        trace = mf_mi_greedy(toy, 21.0, cfg, seed=2718)
        models = [ep.model for ep in trace.episodes]
        assert trace.n_episodes >= 3
        # episode 1 and 2 share the initial model; a refit happens before
        # episode 3 (it may or may not pick a new grid point, but the
        # machinery must keep the trace well-formed)
        assert models[0] is models[1]
        assert trace.spent <= trace.budget


def noiseless_target_toy():
    """The toy problem with a noiseless target 1000x as costly as the low
    fidelity: exploration still buys low-fidelity points, and GP-UCB over a
    few candidates repeats target points, whose zero Cholesky pivot makes
    extending the joint factor fail."""
    toy = make_toy_problem()
    tp = toy.model.target_prior
    costs = np.array([1.0, 1000.0])
    model = dataclasses.replace(
        toy.model, target_prior=GpPrior(tp.kernel, noise_variance=0.0, mean=tp.mean), costs=costs)
    return dataclasses.replace(
        toy, noise_sd=np.array([toy.noise_sd[0], 0.0]), model=model)


class TestRunLongPosterior:
    """The run's one CandidateGains against a fresh solve per posterior."""

    def test_matches_oracle_after_every_observation(self, monkeypatch):
        made = []

        class Checked(CandidateGains):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

            def posterior(self, history):
                mean, var = super().posterior(history)
                mean_o, var_o = predict_latent_diag(history, self.Xc)
                assert np.array_equal(mean, mean_o)
                assert np.max(np.abs(var - var_o)) <= 1e-10
                return mean, var

        monkeypatch.setattr(policy, "CandidateGains", Checked)
        problem = noiseless_target_toy()
        cfg = PolicyConfig(n_candidates=8, hyperfit_every=2)
        trace = mf_mi_greedy(problem, 8000.0, cfg, seed=0)
        (gains,) = made
        assert gains.recomputes[JOINT_FAILED] >= 1 and gains.recomputes[NEW_MODEL] >= 1
        assert any(ep.low_observations for ep in trace.episodes)

        # the run's observations again, one at a time, with the same refits
        history = History.empty(problem.model)
        replay = Checked(history.cov, gains.Xc)
        for ep in trace.episodes:
            if ep.model is not history.model:
                history = History.from_observations(ep.model, history.observations)
                replay.reset(history.cov)
            for obs in ep.low_observations + (ep.target_observation,):
                replay.append(obs.action)
                history = history.adopt((obs,), replay.state)
                replay.posterior(history)
        assert replay.recomputes[JOINT_FAILED] >= 1

    def test_failure_inside_exploration_leaves_a_usable_recommendation(self, toy, monkeypatch):
        # the fifth append fails inside the first Explore-LF call, after
        # four picks the history never received
        real = CovState.append
        calls = []

        def failing_fifth(self, action):
            calls.append(1)
            if len(calls) == 5:
                chol_factor(-np.eye(3))  # raises the real NumericalError
            return real(self, action)

        monkeypatch.setattr(CovState, "append", failing_fifth)
        trace = mf_mi_greedy(toy, 21.0, PolicyConfig(n_candidates=16, hyperfit_every=0), seed=2718)
        assert trace.failed and trace.n_episodes == 0
        assert trace.error.startswith("NumericalError: Cholesky failed")
        assert trace.recommendation_value == toy.model.target_prior.mean


class TestRecomputeCount:
    @pytest.mark.parametrize("run", [sf_only, mf_mi_greedy])
    def test_projections_computed_once_plus_once_per_cause(self, monkeypatch, run):
        # every solve against all nc candidates must belong to one of the
        # counted from-scratch computes; a per-episode solve put back fails
        nc = 200
        made, computes, stray = [], [], []
        inside = [0]

        class Counted(CandidateGains):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

            def _recompute(self):
                computes.append(self.state.n)
                inside[0] += 1
                try:
                    super()._recompute()
                finally:
                    inside[0] -= 1

        real_solve = model_module.solve_triangular

        def solve(a, b, *args, **kwargs):
            if np.ndim(b) == 2 and np.shape(b)[1] == nc and not inside[0]:
                stray.append(np.shape(b))
            return real_solve(a, b, *args, **kwargs)

        monkeypatch.setattr(policy, "CandidateGains", Counted)
        monkeypatch.setattr(model_module, "solve_triangular", solve)
        problem = make_problem("currin2", seed=0)
        cfg = PolicyConfig(n_candidates=nc, hyperfit_every=0)
        trace = run(problem, 100 * problem.model.target_cost, cfg, seed=1)
        assert not trace.failed and trace.n_episodes >= 2
        (gains,) = made
        counted = gains.recomputes
        low = {o.action.fidelity for ep in trace.episodes for o in ep.low_observations}
        assert counted[NEW_MODEL] == 0
        assert counted[FIRST_POINT] == len(low)
        assert len(computes) == 1 + sum(counted.values())
        assert not stray
