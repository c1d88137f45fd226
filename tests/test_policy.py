import dataclasses
import itertools

import numpy as np
import pytest

from conftest import blas_threads, predict_latent_diag
from mfbo import gp
from mfbo import model as model_module
from mfbo import policy, submodular
from mfbo.acquisition import make_candidates
from mfbo.benchmarks import BenchmarkProblem, make_problem, single_fidelity_problem
from mfbo.explore import alpha_budget
from mfbo.gp import GpPrior, SquaredExpKernel, chol_factor
from mfbo.harness import ExperimentConfig, run_experiment
from mfbo.model import (
    FIRST_POINT,
    JOINT_FAILED,
    NEW_MODEL,
    CandidateGains,
    CovState,
    FidelityModel,
    info_gain_set,
)
from mfbo.policy import (
    POLICY_NAMES,
    PolicyConfig,
    explore_then_exploit,
    mf_mi_greedy,
    run_policies,
    serialize_trace,
    sf_only,
    trace_records,
)
from mfbo.regret import simple_regret_curve
from mfbo.util import mix64
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
        target_fn=f,
        disturbances=(),
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

    def test_default_beta_is_the_inverse_cube_root_of_the_remaining_budget(self, toy):
        # the README's spec, with the default exponent rather than the config's
        trace = mf_mi_greedy(toy, 21.0, PolicyConfig(n_candidates=16, hyperfit_every=0),
                             seed=2718)
        remaining, exploring = 21.0, 0
        for ep in trace.episodes:
            if ep.explore_beta is not None:
                exploring += 1
                assert ep.explore_beta == pytest.approx(remaining ** (-1.0 / 3.0), rel=1e-12)
            remaining -= ep.cost
        assert exploring == trace.n_episodes == 3

    def test_golden_certificate(self, toy, quick_cfg):
        trace = mf_mi_greedy(toy, 21.0, quick_cfg, seed=2718)
        ep = trace.episodes[0]
        assert ep.explore_info_gain / ep.explore_cost >= ep.explore_beta - 1e-10


class TestStoredCertificate:
    """Explore-LF stores the running sum of its picks' gains; by the chain
    rule it is their joint gain about f given the observations before the
    episode, which info_gain_set computes from joint entropies."""

    @pytest.mark.parametrize("run", ["golden", "currin2"])
    def test_equals_joint_gain_of_the_picks(self, toy, quick_cfg, run):
        if run == "golden":
            trace = mf_mi_greedy(toy, 21.0, quick_cfg, seed=2718)
        else:
            problem = make_problem("currin2", seed=0)
            trace = mf_mi_greedy(problem, 100 * problem.model.target_cost,
                                 PolicyConfig(n_candidates=200), seed=1)
        before, exploring = [], 0  # the actions of earlier episodes
        for ep in trace.episodes:
            if ep.low_observations:
                exploring += 1
                X = np.reshape([a.x for a in before], (len(before), ep.model.dim))
                state = CovState.build(ep.model, X, [a.fidelity for a in before])
                want = info_gain_set(state, [o.action for o in ep.low_observations])
                assert abs(ep.explore_info_gain - want) <= 1e-10, (ep.index, want)
            before += [o.action for o in ep.low_observations + (ep.target_observation,)]
        assert exploring >= 1


class TestEpisodeStructure:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_well_formed(self, toy, quick_cfg, name):
        trace = getattr(policy, name)(toy, 15.0, quick_cfg, seed=5)
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
        for run in (mf_mi_greedy, explore_then_exploit, sf_only):
            trace = run(toy, 3.0, quick_cfg, seed=1)
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
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_same_seed_same_trace(self, toy, quick_cfg, name):
        a = getattr(policy, name)(toy, 12.0, quick_cfg, seed=31)
        b = getattr(policy, name)(toy, 12.0, quick_cfg, seed=31)
        assert serialize_trace(a) == serialize_trace(b)

    def test_different_seed_differs(self, toy, quick_cfg):
        a = sf_only(toy, 12.0, quick_cfg, seed=31)
        b = sf_only(toy, 12.0, quick_cfg, seed=32)
        assert serialize_trace(a) != serialize_trace(b)

    def test_value_types_compare_and_hash_by_identity(self, toy, quick_cfg):
        # equal values held in separate arrays: == and hash go by identity
        traces = [sf_only(toy, 12.0, quick_cfg, seed=31) for _ in range(2)]
        curves = [simple_regret_curve(traces[0], toy.f_star) for _ in range(2)]
        for a, b in (curves, traces):
            assert a == a and a != b
            assert a in [b, a] and a not in [b]
            assert len({a, b}) == 2 and hash(a) == hash(a)


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
        for run in (mf_mi_greedy, explore_then_exploit, sf_only):
            with pytest.raises(ValueError):
                run(toy, 0.0, quick_cfg, seed=0)

    @pytest.mark.parametrize("budget", [np.nan, np.inf])
    def test_budget_must_be_finite(self, toy, quick_cfg, budget):
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            run_policies(toy, budget, quick_cfg, 0, POLICY_NAMES)

    @pytest.mark.parametrize("names", [("sf_only", "sf_only"), ("random",)])
    def test_policy_names_must_be_distinct_and_known(self, toy, quick_cfg, names):
        with pytest.raises(ValueError, match="distinct policy names"):
            run_policies(toy, 6.0, quick_cfg, 0, names)

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


# the folded posterior mean against predict_latent_diag's on the runs with
# a noiseless target below: measured at most 1.7e-14 (|mean| about 1), so
# the bound leaves about 100x
MEAN_TOL = 2e-12


class TestRunLongPosterior:
    """The run's one CandidateGains against a fresh solve per posterior."""

    def test_matches_oracle_after_every_observation(self, monkeypatch):
        made = []

        class Checked(CandidateGains):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

            def posterior(self, y):
                mean, var = super().posterior(y)
                mean_o, var_o = predict_latent_diag(self.state, y, self.Xc)
                assert np.max(np.abs(mean - mean_o), initial=0.0) <= MEAN_TOL
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
        replay, y = Checked(CovState.empty(problem.model), gains.Xc, trace.budget), []
        for ep in trace.episodes:
            if ep.model is not replay.state.model:
                replay.reset(CovState.build(ep.model, replay.state.X, replay.state.fids))
            for obs in ep.low_observations + (ep.target_observation,):
                replay.append(obs.action)
                y.append(obs.y)
                replay.posterior(y)
        assert replay.recomputes[JOINT_FAILED] >= 1

    def test_failure_inside_exploration_leaves_a_usable_recommendation(self, toy, monkeypatch):
        # the fifth append fails inside the first Explore-LF call, after
        # four picks that were never observed
        monkeypatch.setattr(CovState, "append", failing_append(5))
        trace = mf_mi_greedy(toy, 21.0, PolicyConfig(n_candidates=16, hyperfit_every=0), seed=2718)
        assert trace.failed and trace.n_episodes == 0
        assert trace.error.startswith("NumericalError: Cholesky failed")
        assert trace.recommendation_value == toy.model.target_prior.mean

    def test_failure_in_a_later_exploration_recommends_from_earlier_episodes(
            self, monkeypatch):
        # the second pick of a later episode's Explore-LF fails; the run
        # recommends the argmax of a fresh posterior at the observations of
        # the episodes it completed
        problem = noiseless_target_toy()
        cfg = PolicyConfig(n_candidates=8, hyperfit_every=0, candidate_seed=11)
        full = mf_mi_greedy(problem, 8000.0, cfg, seed=0)
        k = next(i for i, ep in enumerate(full.episodes) if i and len(ep.low_observations) >= 2)
        done = [o for ep in full.episodes[:k]
                for o in ep.low_observations + (ep.target_observation,)]

        monkeypatch.setattr(CovState, "append", failing_append(len(done) + 2))
        trace = mf_mi_greedy(problem, 8000.0, cfg, seed=0)
        monkeypatch.undo()
        assert trace.failed and trace.n_episodes == k >= 1
        assert trace_records(trace) == trace_records(full)[: len(done)]

        state = CovState.empty(problem.model)
        for o in done:
            state = state.append(o.action)
        Xc = make_candidates(problem.bounds, cfg.n_candidates, cfg.candidate_seed)
        mean, _ = predict_latent_diag(state, [o.y for o in done], Xc)
        best = int(np.argmax(mean))
        assert np.array_equal(trace.recommendation, Xc[best])
        assert abs(trace.recommendation_value - mean[best]) <= MEAN_TOL

    @pytest.mark.parametrize("run, failing, bought", [
        (sf_only, -1, 0), (explore_then_exploit, -1, 0), (mf_mi_greedy, 0, 10)],
        ids=["sf_only", "explore_then_exploit", "mf_mi_greedy"])
    def test_failure_after_a_target_append_recommends_from_earlier_episodes(
            self, toy, run, failing, bought, monkeypatch):
        # the failing episode's target append advances the state, then
        # fails; the run rolls back to where that episode started, whether
        # it explores nothing (the last episode of sf_only and
        # explore_then_exploit) or bought points (mf_mi_greedy's first)
        cfg = PolicyConfig(n_candidates=16, hyperfit_every=0)
        full = run(toy, 30.0, cfg, seed=2718)
        k = range(full.n_episodes)[failing]
        done = [o for ep in full.episodes[:k]
                for o in ep.low_observations + (ep.target_observation,)]
        assert len(full.episodes[k].low_observations) == bought
        assert k == 0 or k == full.n_episodes - 1 >= 2

        real = CandidateGains.append
        calls = []

        def append(self, action):
            real(self, action)
            calls.append(action)
            if len(calls) == len(done) + bought + 1:
                chol_factor(-np.eye(3))

        monkeypatch.setattr(CandidateGains, "append", append)
        trace = run(toy, 30.0, cfg, seed=2718)
        monkeypatch.undo()
        assert trace.failed and trace.n_episodes == k
        assert trace_records(trace) == trace_records(full)[: len(done)]

        state = CovState.empty(toy.model)
        for o in done:
            state = state.append(o.action)
        Xc = make_candidates(toy.bounds, cfg.n_candidates, mix64(2718, "candidates"))
        mean, _ = predict_latent_diag(state, [o.y for o in done], Xc)
        best = int(np.argmax(mean))
        assert np.array_equal(trace.recommendation, Xc[best])
        assert abs(trace.recommendation_value - mean[best]) <= MEAN_TOL


def failing_append(n):
    """CovState.append whose n-th call raises the real NumericalError."""
    real = CovState.append
    calls = []

    def append(self, action):
        calls.append(action)
        if len(calls) == n:
            chol_factor(-np.eye(3))
        return real(self, action)

    return append


def nan_evaluate(fidelity, k):
    """BenchmarkProblem.evaluate whose k-th value at fidelity is NaN."""
    real = BenchmarkProblem.evaluate
    calls = []

    def evaluate(self, action, rng):
        value = real(self, action, rng)
        if action.fidelity == fidelity:
            calls.append(action)
            if len(calls) == k:
                return float("nan")
        return value

    return evaluate


class TestNonFiniteValue:
    """A non-finite observed value ends the run as a failed trace that keeps
    the episodes finished before it and recommends from them alone."""

    @pytest.mark.parametrize("hyperfit_every", [0, 2])
    def test_sf_only_nan_target_value(self, toy, monkeypatch, hyperfit_every):
        # the third target value is NaN; with refits on, the third episode
        # first refits on the two finished ones
        cfg = PolicyConfig(n_candidates=16, hyperfit_every=hyperfit_every)
        full = sf_only(toy, 21.0, cfg, seed=2718)
        models = []
        real = policy.fit_hyperparameters

        def refit(state, y, grid):
            models.append(real(state, y, grid))
            return models[-1]

        monkeypatch.setattr(policy, "fit_hyperparameters", refit)
        monkeypatch.setattr(BenchmarkProblem, "evaluate", nan_evaluate(2, 3))
        trace = sf_only(toy, 21.0, cfg, seed=2718)
        monkeypatch.undo()
        assert trace.failed and trace.error == "ValueError: observed values must be finite"
        assert trace.n_episodes == 2 and len(models) == (1 if hyperfit_every else 0)
        assert trace_records(trace) == trace_records(full)[:2]

        # a fresh posterior at the finished episodes' values, under the
        # model in force when the run stopped
        done = [ep.target_observation for ep in trace.episodes]
        state = CovState.empty(models[-1] if models else toy.model)
        for o in done:
            state = state.append(o.action)
        Xc = make_candidates(toy.bounds, cfg.n_candidates, mix64(2718, "candidates"))
        mean, _ = predict_latent_diag(state, [o.y for o in done], Xc)
        best = int(np.argmax(mean))
        assert np.array_equal(trace.recommendation, Xc[best])
        assert abs(trace.recommendation_value - mean[best]) <= MEAN_TOL

    def test_mf_mi_greedy_nan_target_value_after_exploring(self, toy, monkeypatch):
        # the first target value is NaN, after Explore-LF bought 10 points:
        # the run recommends from the finished episodes alone, which are none
        cfg = PolicyConfig(n_candidates=16, hyperfit_every=0)
        full = mf_mi_greedy(toy, 21.0, cfg, seed=2718)
        assert len(full.episodes[0].low_observations) == 10
        monkeypatch.setattr(BenchmarkProblem, "evaluate", nan_evaluate(2, 1))
        trace = mf_mi_greedy(toy, 21.0, cfg, seed=2718)
        monkeypatch.undo()
        assert trace.failed and trace.error == "ValueError: observed values must be finite"
        assert trace.n_episodes == 0 and trace.spent == 0.0

        Xc = make_candidates(toy.bounds, cfg.n_candidates, mix64(2718, "candidates"))
        mean, _ = predict_latent_diag(CovState.empty(toy.model), [], Xc)
        best = int(np.argmax(mean))
        assert np.array_equal(trace.recommendation, Xc[best])
        assert trace.recommendation_value == mean[best] == toy.model.target_prior.mean

    @pytest.mark.parametrize("hyperfit_every", [0, 2])
    def test_mf_mi_greedy_nan_low_fidelity_value(self, toy, monkeypatch, hyperfit_every):
        # the third pick of the first Explore-LF call is NaN: no episode
        # finishes, and the picks made are rolled back
        monkeypatch.setattr(BenchmarkProblem, "evaluate", nan_evaluate(1, 3))
        cfg = PolicyConfig(n_candidates=16, hyperfit_every=hyperfit_every)
        trace = mf_mi_greedy(toy, 21.0, cfg, seed=2718)
        assert trace.failed and trace.error == "ValueError: observed values must be finite"
        assert trace.n_episodes == 0 and trace.spent == 0.0
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


class TestRowBlocks:
    """A run sizes its projections' blocks from its budget, and no append
    replaces one."""

    def test_a_run_buying_at_the_cheapest_cost_fills_its_blocks(self, monkeypatch):
        # ten queries at cost 0.1 add up to 0.9999999999999999 and fit in
        # a budget of 1.0, where 1.0 // 0.1 is 9: the capacity's + 1
        made = []

        class Recorded(CandidateGains):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(policy, "CandidateGains", Recorded)
        sf = single_fidelity_problem(make_toy_problem())
        problem = dataclasses.replace(
            sf, model=dataclasses.replace(sf.model, costs=np.array([0.1])))
        trace = sf_only(problem, 1.0, PolicyConfig(n_candidates=8, hyperfit_every=0), seed=0)
        assert not trace.failed and trace.n_episodes == 10
        (gains,) = made
        assert gains.capacity == gains.state.n == 10

    def test_an_append_keeps_every_block(self, toy, quick_cfg, monkeypatch):
        # between computes afresh, each projection writes into the block
        # it was made with
        kept = []
        real = CandidateGains.append

        def blocks(cands):
            return [cands._wf.buf] + [r.buf for pair in cands._low.values() for r in pair]

        def append(self, action):
            before = blocks(self)
            real(self, action)
            if self.state.rebuilt is None:
                after = blocks(self)
                assert len(after) == len(before)
                assert all(a is b for a, b in zip(after, before))
                kept.append(len(after))

        monkeypatch.setattr(CandidateGains, "append", append)
        trace = mf_mi_greedy(toy, 60.0, quick_cfg, seed=2718)
        assert not trace.failed and 3 in kept


class TestOneBlasThread:
    """Runs and the submodular bound hold every loaded OpenBLAS at one
    thread, and hand the caller's counts back."""

    def test_run_computes_at_one_thread(self, toy, quick_cfg, blas_at_two, monkeypatch):
        seen = []
        real = BenchmarkProblem.evaluate

        def evaluate(self, action, rng):
            seen.append(blas_threads(blas_at_two))
            return real(self, action, rng)

        monkeypatch.setattr(BenchmarkProblem, "evaluate", evaluate)
        trace = mf_mi_greedy(toy, 21.0, quick_cfg, seed=2718)
        assert not trace.failed and len(seen) == len(trace_records(trace))
        assert seen == [[1] * len(blas_at_two)] * len(seen)
        assert blas_threads(blas_at_two) == [2] * len(blas_at_two)

    def test_run_that_raises_restores_the_counts(self, toy, quick_cfg, blas_at_two, monkeypatch):
        def evaluate(self, action, rng):
            raise RuntimeError("evaluation broke")

        monkeypatch.setattr(BenchmarkProblem, "evaluate", evaluate)
        with pytest.raises(RuntimeError, match="evaluation broke"):
            mf_mi_greedy(toy, 21.0, quick_cfg, seed=2718)
        assert blas_threads(blas_at_two) == [2] * len(blas_at_two)

    def test_gamma_max_bound_computes_at_one_thread(self, toy, blas_at_two, monkeypatch):
        seen = []

        class Probed(CandidateGains):
            def pick(self, *args, **kwargs):
                seen.append(blas_threads(blas_at_two))
                return super().pick(*args, **kwargs)

        monkeypatch.setattr(submodular, "CandidateGains", Probed)
        cand = make_candidates(toy.bounds, 16, seed=77)
        submodular.gamma_max_bound(toy.model, cand, 20.0 * toy.model.target_cost, beta=0.01)
        assert seen and seen == [[1] * len(blas_at_two)] * len(seen)
        assert blas_threads(blas_at_two) == [2] * len(blas_at_two)

    def test_outputs_do_not_depend_on_the_pin(self, tmp_path, blas_at_two, monkeypatch):
        # unpinned (the helper finds no library) at 2 threads, then pinned:
        # a BLAS kernel that splits its sums by thread would change bits;
        # each run must write more trace rows than its floor
        runs = {
            "currin2": (dict(budget_mult=100.0, policies=("mf_mi_greedy",), hyperfit_every=10),
                        100),
            # refits every 5 episodes, each followed by a posterior folded
            # afresh over 5000 candidates
            "borehole8": (dict(budget_mult=20.0, policies=("mf_mi_greedy", "sf_only"),
                               subroutine="gp_mi", hyperfit_every=5), 40),
        }
        for problem, (kw, min_rows) in runs.items():
            outs = []
            for pinned in (False, True):
                with monkeypatch.context() as mp:
                    if not pinned:
                        mp.setattr(gp, "_blas_controls", lambda: ())
                    out = tmp_path / problem / str(pinned)
                    cfg = ExperimentConfig(problem=problem, n_seeds=1, out_dir=str(out), **kw)
                    assert run_experiment(cfg).n_failed == 0
                outs.append(out)
            assert len((outs[0] / "traces.csv").read_text().splitlines()) > min_rows, problem
            for name in ("traces.csv", "curves.csv", "summary.csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                    problem, name)


def model_key(model) -> list:
    """Every parameter of a FidelityModel, as comparable values."""
    priors = (model.target_prior,) + model.error_priors
    return [(p.kernel.signal_variance, p.kernel.lengthscales.tobytes(), p.noise_variance, p.mean)
            for p in priors] + [model.costs.tobytes()]


def assert_same_run(a, b) -> None:
    """Two traces of one policy record the same run, bit for bit."""
    assert a.policy == b.policy
    assert serialize_trace(a) == serialize_trace(b)
    assert trace_records(a) == trace_records(b)
    assert a.recommendation.tobytes() == b.recommendation.tobytes()
    assert a.recommendation_value == b.recommendation_value
    assert (a.spent, a.failed, a.error) == (b.spent, b.failed, b.error)
    assert a.n_episodes == b.n_episodes
    for ea, eb in zip(a.episodes, b.episodes):
        assert (ea.explore_cost, ea.explore_info_gain, ea.explore_beta, ea.explore_stop_reason) == (
            eb.explore_cost, eb.explore_info_gain, eb.explore_beta, eb.explore_stop_reason)
        assert model_key(ea.model) == model_key(eb.model)


def shared_case(name):
    """(problem, budget, cfg, seed, the episodes in which mf_mi_greedy
    explores and buys something) of a test case."""
    toy = make_toy_problem()
    if name.startswith("toy-refits"):
        cfg = PolicyConfig(n_candidates=16, alpha_exponent=0.45, hyperfit_every=3)
        return toy, 60.0, cfg, 0, [1, 10]
    if name.startswith("toy"):
        seed, explored = {"toy-1": (1, [1, 2]), "toy-30": (30, [1, 3]), "toy-35": (35, [1, 4])}[name]
        cfg = PolicyConfig(n_candidates=16, alpha_exponent=0.45, hyperfit_every=0)
        return toy, 45.0, cfg, seed, explored
    problem = make_problem("currin2", seed=0)
    cfg = PolicyConfig(n_candidates=200, hyperfit_every=4)
    return problem, 30 * problem.model.target_cost, cfg, 5, [1]


def every_ordering():
    """Every ordered non-empty subset of POLICY_NAMES."""
    return [names for k in range(1, len(POLICY_NAMES) + 1)
            for names in itertools.permutations(POLICY_NAMES, k)]


class TestSharedRuns:
    """run_policies copies a trace instead of running its policy where the
    run would repeat one already made; each policy's trace must still be
    the one its run alone gives."""

    @pytest.mark.parametrize("case", ["toy-1", "toy-30", "toy-35", "toy-refits", "currin2"])
    def test_each_trace_equals_its_solo_trace(self, case):
        problem, budget, cfg, seed, explored = shared_case(case)
        solo = {n: getattr(policy, n)(problem, budget, cfg, seed) for n in POLICY_NAMES}
        mf = solo["mf_mi_greedy"]
        assert [ep.index for ep in mf.episodes if ep.low_observations] == explored
        if case == "toy-refits":  # the fork at episode 10 comes after refits
            assert mf.episodes[9].model is not mf.episodes[0].model
        for names in every_ordering():
            shared = run_policies(problem, budget, cfg, seed, names)
            assert list(shared) == list(names)
            for name in names:
                assert_same_run(shared[name], solo[name])

    def test_a_failed_run_is_not_copied(self, toy, quick_cfg, monkeypatch):
        # a low-fidelity point appended to a 4-point state fails, so mf and
        # ete fail at the fifth pick of their first Explore-LF call, and
        # sf, which never explores, runs to its end
        sf = sf_only(toy, 21.0, quick_cfg, seed=2718)
        real = CovState.append

        def append(self, action):
            if self.n == 4 and action.fidelity < self.model.m:
                chol_factor(-np.eye(3))
            return real(self, action)

        monkeypatch.setattr(CovState, "append", append)
        solo = {n: getattr(policy, n)(toy, 21.0, quick_cfg, seed=2718) for n in POLICY_NAMES}
        shared = run_policies(toy, 21.0, quick_cfg, 2718, POLICY_NAMES)
        monkeypatch.undo()
        for name in ("mf_mi_greedy", "explore_then_exploit"):
            assert solo[name].failed and solo[name].n_episodes == 0
        assert not sf.failed and sf.n_episodes == 7
        assert_same_run(solo["sf_only"], sf)
        for name in POLICY_NAMES:
            assert_same_run(shared[name], solo[name])

    @pytest.mark.parametrize("one_fidelity", [False, True], ids=["toy-0", "one-fidelity"])
    def test_a_copy_records_no_exploration_past_its_episodes(self, monkeypatch, one_fidelity):
        # mf buys only in episode 1 of toy-0, and never with one fidelity,
        # so the policies that explore less copy its trace, and each
        # episode they do not explore must read beta and stop reason None
        toy = make_toy_problem()
        problem = single_fidelity_problem(toy) if one_fidelity else toy
        cfg = PolicyConfig(n_candidates=16, alpha_exponent=0.45, hyperfit_every=0)
        solo = {n: getattr(policy, n)(problem, 45.0, cfg, 0) for n in POLICY_NAMES}
        mf = solo["mf_mi_greedy"]
        assert [ep.index for ep in mf.episodes if ep.low_observations] == ([] if one_fidelity else [1])
        assert mf.n_episodes > 1 and None not in [ep.explore_stop_reason for ep in mf.episodes]
        runs = []
        real = policy._run

        def run(*args):
            runs.append(args[5])
            return real(*args)

        monkeypatch.setattr(policy, "_run", run)
        shared = run_policies(problem, 45.0, cfg, 0, POLICY_NAMES)
        assert runs == (["mf_mi_greedy"] if one_fidelity else ["mf_mi_greedy", "sf_only"])
        for name in POLICY_NAMES:
            assert_same_run(shared[name], solo[name])

    @pytest.mark.parametrize("problem, names, budget_mult, cfg, solo_sum", [
        # ete's runs equal mf's on currin2, so the call pays for mf and sf
        ("currin2", POLICY_NAMES, 100.0, dict(n_candidates=200),
         ("mf_mi_greedy", "sf_only")),
        # Explore-LF buys nothing on borehole8, so sf's run is mf's
        ("borehole8", ("mf_mi_greedy", "sf_only"), 30.0,
         dict(n_candidates=1000, subroutine="gp_mi"), ("mf_mi_greedy",)),
    ], ids=["currin2", "borehole8"])
    def test_work_counts(self, monkeypatch, problem, names, budget_mult, cfg, solo_sum):
        calls = []
        real = CandidateGains.append

        def append(self, action):
            calls.append(action)
            real(self, action)

        monkeypatch.setattr(CandidateGains, "append", append)
        prob = make_problem(problem, seed=0)
        budget, pc = budget_mult * prob.model.target_cost, PolicyConfig(**cfg)
        solo = 0
        for name in solo_sum:
            getattr(policy, name)(prob, budget, pc, seed=3)
            solo, calls[:] = solo + len(calls), []
        traces = run_policies(prob, budget, pc, 3, names)
        assert not any(tr.failed for tr in traces.values())
        assert len(calls) == solo
