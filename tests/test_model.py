import numpy as np
import pytest
from scipy.linalg import solve_triangular

from conftest import info_gain_single, predict_latent_diag
from mfbo.benchmarks import make_problem
from mfbo.gp import GpPrior, SquaredExpKernel, chol_factor, posterior
from mfbo.model import (
    ERROR_FAILED,
    FIRST_POINT,
    JOINT_FAILED,
    Action,
    CandidateGains,
    CovState,
    FidelityModel,
    History,
    HyperGrid,
    Observation,
    _joint_cross,
    _joint_sym,
    default_hyper_grid,
    fit_hyperparameters,
    info_gain_set,
    log_marginal_likelihood,
)


# --------------------------------------------------------------------------
# pointwise oracles for the dense joint covariance builders

def _se(kernel: SquaredExpKernel, x, x2) -> float:
    z = (x - x2) / kernel.lengthscales
    return kernel.signal_variance * float(np.exp(-0.5 * np.dot(z, z)))


def joint_cov(model: FidelityModel, a: Action, b: Action, same_obs: bool = False) -> float:
    """Covariance between two observations under the additive model.

    same_obs=True means a and b are literally the same noisy draw (shared
    noise); it requires identical point and fidelity.
    """
    model._check_fidelity(a.fidelity)
    model._check_fidelity(b.fidelity)
    v = _se(model.target_prior.kernel, a.x, b.x)
    if a.fidelity == b.fidelity and a.fidelity < model.m:
        v += _se(model.error_kernel(a.fidelity), a.x, b.x)
    if same_obs:
        if a.fidelity != b.fidelity or not np.array_equal(a.x, b.x):
            raise ValueError("same_obs requires identical actions")
        v += model.noise_variance(a.fidelity)
    return v


def predict_observable(history: History, action: Action) -> tuple[float, float]:
    """Posterior mean and variance of a fresh observation at the action."""
    model = history.model
    model._check_fidelity(action.fidelity)
    prior_var = model.prior_variance(action.fidelity)
    x1 = action.x[None, :]
    mean_prior = float(model.target_prior.mean_at(x1)[0])
    if len(history) == 0:
        return mean_prior, prior_var
    f1 = np.array([action.fidelity], dtype=np.int64)
    cross = _joint_cross(model, history.cov.X, history.cov.fids, x1, f1)[:, 0]
    mean = mean_prior + cross @ history.alpha
    w = solve_triangular(history.cov.L, cross, lower=True, check_finite=False)
    var = prior_var - w @ w
    # independent noise can never be conditioned away
    return float(mean), float(max(var, model.noise_variance(action.fidelity)))


def dense_latent_posterior(history: History, Xq) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of f at each row of Xq, by conditioning the dense
    joint Gaussian of (f(xq), y_hist) built entry by entry from joint_cov."""
    model = history.model
    acts = [o.action for o in history.observations]
    K = np.array([[joint_cov(model, a, b, same_obs=(i == j)) for j, b in enumerate(acts)]
                  for i, a in enumerate(acts)])
    mu = model.target_prior.mean
    resid = np.array([o.y for o in history.observations]) - mu
    kf = model.target_prior.kernel
    means, variances = [], []
    for xq in Xq:
        k = np.array([_se(kf, xq, a.x) for a in acts])
        means.append(mu + k @ np.linalg.solve(K, resid))
        variances.append(_se(kf, xq, xq) - k @ np.linalg.solve(K, k))
    return np.array(means), np.array(variances)


def latent_posterior(history: History, Xq) -> tuple[np.ndarray, np.ndarray]:
    """CandidateGains.posterior at Xq, from a fresh object at history's state."""
    return CandidateGains(history.cov, Xq).posterior(history)


def obs(x, fid, y=0.0):
    return Observation(Action(x=np.atleast_1d(np.asarray(x, dtype=float)), fidelity=fid), y)


def random_history(rng, model, n, spread=1.0):
    h = History.empty(model)
    for _ in range(n):
        a = Action(x=rng.uniform(-spread, spread, size=model.dim),
                   fidelity=int(rng.integers(1, model.m + 1)))
        h = h.update(Observation(a, float(rng.standard_normal())))
    return h


class TestActionObservation:
    def test_fidelity_validation(self):
        with pytest.raises(ValueError):
            Action(x=np.array([0.0]), fidelity=0)

    def test_x_is_readonly(self):
        a = Action(x=np.array([0.5]), fidelity=1)
        with pytest.raises(ValueError):
            a.x[0] = 1.0


class TestJointCov:
    def test_target_pair_has_no_error_term(self, two_fid_model):
        a = Action(x=np.array([0.3]), fidelity=2)
        assert joint_cov(two_fid_model, a, a) == pytest.approx(1.0, abs=1e-12)

    def test_same_low_fidelity_adds_error_kernel(self, two_fid_model):
        a = Action(x=np.array([0.3]), fidelity=1)
        assert joint_cov(two_fid_model, a, a) == pytest.approx(1.0 + 0.25, abs=1e-12)

    def test_cross_fidelity_is_target_kernel_only(self, three_fid_model):
        a = Action(x=np.array([0.1, 0.2]), fidelity=1)
        b = Action(x=np.array([0.4, -0.3]), fidelity=2)
        kf = three_fid_model.target_prior.kernel
        expect = float(kf.cross(a.x[None, :], b.x[None, :])[0, 0])
        assert joint_cov(three_fid_model, a, b) == pytest.approx(expect, abs=1e-12)

    def test_same_obs_adds_noise(self, two_fid_model):
        a = Action(x=np.array([0.3]), fidelity=1)
        with_noise = joint_cov(two_fid_model, a, a, same_obs=True)
        without = joint_cov(two_fid_model, a, a)
        assert with_noise - without == pytest.approx(0.02, abs=1e-12)


class TestModelValidation:
    def test_error_priors_must_be_zero_mean(self):
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 0.1)
        bad = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])),
                      0.1, mean=1.0)
        with pytest.raises(ValueError):
            FidelityModel(target_prior=t, error_priors=(bad,), costs=np.array([1.0, 2.0]))

    def test_costs_positive(self):
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 0.1)
        with pytest.raises(ValueError):
            FidelityModel(target_prior=t, error_priors=(), costs=np.array([0.0]))

    def test_cost_count_matches_m(self, two_fid_model):
        t = two_fid_model.target_prior
        with pytest.raises(ValueError):
            FidelityModel(target_prior=t, error_priors=(), costs=np.array([1.0, 2.0]))


class TestPredictLatent:
    """The latent posterior at candidates, CandidateGains.posterior."""

    def test_empty_history_is_prior(self, two_fid_model, rng):
        h = History.empty(two_fid_model)
        Xq = rng.uniform(-1, 1, size=(4, 1))
        mean, var = latent_posterior(h, Xq)
        assert np.array_equal(mean, np.zeros(4))
        assert np.array_equal(var, np.full(4, two_fid_model.target_prior.kernel.signal_variance))

    def test_target_observation_matches_plain_gp(self, two_fid_model, rng):
        h = History.empty(two_fid_model).update(obs(0.4, 2, 1.1))
        Xq = rng.uniform(-1, 1, size=(5, 1))
        mean, var = latent_posterior(h, Xq)
        mean0, cov0 = posterior(two_fid_model.target_prior, np.array([[0.4]]),
                                np.array([1.1]), Xq)
        assert np.max(np.abs(mean - mean0)) < 1e-10
        assert np.max(np.abs(var - np.diag(cov0))) < 1e-10

    def test_low_fidelity_half_variance_oracle(self):
        # k_f(x,x)=1, k_eps(x,x)=1, sigma^2=0: one low obs leaves var 1/2
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 0.0)
        e = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 0.0)
        model = FidelityModel(target_prior=t, error_priors=(e,), costs=np.array([1.0, 2.0]))
        h = History.empty(model).update(obs(0.0, 1, 0.7))
        _, var = latent_posterior(h, np.array([[0.0]]))
        assert var[0] == pytest.approx(0.5, abs=1e-10)

    def test_diag_matches_full(self, three_fid_model, rng):
        # the run's posterior and the test oracle against the full joint
        # Gaussian over every fidelity's observations
        h = random_history(rng, three_fid_model, 6)
        for lev in (1, 2, 3):
            h = h.update(Observation(Action(x=rng.uniform(-1, 1, size=2), fidelity=lev),
                                     float(rng.standard_normal())))
        Xq = rng.uniform(-1, 1, size=(7, 2))
        mean0, var0 = dense_latent_posterior(h, Xq)
        for mean, var in (latent_posterior(h, Xq), predict_latent_diag(h, Xq)):
            assert np.max(np.abs(mean - mean0)) < 1e-10
            assert np.max(np.abs(var - var0)) < 1e-10

    def test_every_fidelity_informs_the_target(self, three_fid_model):
        h0 = History.empty(three_fid_model)
        x = np.array([[0.2, -0.1]])
        _, v0 = latent_posterior(h0, x)
        for lev in (1, 2, 3):
            _, v1 = latent_posterior(h0.update(obs(x[0], lev, 0.5)), x)
            assert v1[0] < v0[0]


class TestPredictObservable:
    def test_empty_history_target(self, two_fid_model):
        a = Action(x=np.array([0.1]), fidelity=2)
        mean, var = predict_observable(History.empty(two_fid_model), a)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(1.0 + 0.05, abs=1e-12)

    def test_empty_history_low(self, two_fid_model):
        a = Action(x=np.array([0.1]), fidelity=1)
        _, var = predict_observable(History.empty(two_fid_model), a)
        assert var == pytest.approx(1.0 + 0.25 + 0.02, abs=1e-12)

    def test_variance_floor_is_noise(self, two_fid_model, rng):
        h = random_history(rng, two_fid_model, 10, spread=0.3)
        a = Action(x=np.array([0.0]), fidelity=2)
        _, var = predict_observable(h, a)
        assert var >= 0.05 - 1e-12

    def test_zero_noise_interpolation(self):
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.5])), 0.0)
        model = FidelityModel(target_prior=t, error_priors=(), costs=np.array([1.0]))
        h = History.empty(model).update(obs(0.3, 1, 0.9))
        mean, _ = predict_observable(h, Action(x=np.array([0.3]), fidelity=1))
        assert mean == pytest.approx(0.9, abs=1e-8)

    def test_observable_decomposes_into_latent_plus_error(self, two_fid_model, rng):
        # joint-oracle check: condition the dense joint Gaussian of
        # (y_new, y_hist) directly and compare mean/var
        h = random_history(rng, two_fid_model, 6)
        model = two_fid_model
        a = Action(x=np.array([0.25]), fidelity=1)
        mean, var = predict_observable(h, a)

        acts = [o.action for o in h.observations] + [a]
        n = len(acts)
        K = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                K[i, j] = joint_cov(model, acts[i], acts[j], same_obs=(i == j))
        y = np.array([o.y for o in h.observations])
        prior_mean = np.array([model.target_prior.mean_at(x.x[None, :])[0] for x in acts])
        Khh = K[:-1, :-1]
        kh = K[:-1, -1]
        mean0 = prior_mean[-1] + kh @ np.linalg.solve(Khh, y - prior_mean[:-1])
        var0 = K[-1, -1] - kh @ np.linalg.solve(Khh, kh)
        assert mean == pytest.approx(mean0, abs=1e-8)
        assert var == pytest.approx(var0, abs=1e-8)


class TestInfoGain:
    def test_target_scalar_formula(self, rng):
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 1.0)
        model = FidelityModel(target_prior=t, error_priors=(), costs=np.array([1.0]))
        a = Action(x=np.array([0.0]), fidelity=1)
        g = info_gain_single(History.empty(model), a)
        assert g == pytest.approx(0.5 * np.log(2.0), abs=1e-12)

    def test_perfect_proxy_equals_target_gain(self):
        # k_eps = 0 limit via a tiny amplitude
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 1.0)
        e = GpPrior(SquaredExpKernel(signal_variance=1e-14, lengthscales=np.array([1.0])), 1.0)
        model = FidelityModel(target_prior=t, error_priors=(e,), costs=np.array([1.0, 2.0]))
        h = History.empty(model)
        g_low = info_gain_single(h, Action(x=np.array([0.0]), fidelity=1))
        g_tgt = info_gain_single(h, Action(x=np.array([0.0]), fidelity=2))
        assert g_low == pytest.approx(g_tgt, abs=1e-7)

    def test_known_value_gains_nothing(self):
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 0.0)
        model = FidelityModel(target_prior=t, error_priors=(), costs=np.array([1.0]))
        h = History.empty(model).update(obs(0.0, 1, 0.4))
        g = info_gain_single(h, Action(x=np.array([0.0]), fidelity=1))
        assert g == 0.0

    def test_set_of_one_equals_single(self, three_fid_model, rng):
        h = random_history(rng, three_fid_model, 4)
        for fid in (1, 2, 3):
            a = Action(x=rng.uniform(-1, 1, size=2), fidelity=fid)
            assert info_gain_set(h, (a,)) == pytest.approx(
                info_gain_single(h, a), abs=1e-10)

    def test_far_apart_points_add(self, two_fid_model):
        h = History.empty(two_fid_model)
        a = Action(x=np.array([-40.0]), fidelity=1)
        b = Action(x=np.array([40.0]), fidelity=2)
        joint = info_gain_set(h, (a, b))
        singles = info_gain_single(h, a) + info_gain_single(h, b)
        assert joint == pytest.approx(singles, abs=1e-6)

    def test_chain_rule(self, rng):
        for _ in range(30):
            m = int(rng.integers(1, 4))
            t = GpPrior(SquaredExpKernel(signal_variance=float(rng.uniform(0.5, 2)),
                                         lengthscales=rng.uniform(0.4, 1.5, size=1)),
                        float(rng.uniform(0.01, 0.3)))
            errs = tuple(
                GpPrior(SquaredExpKernel(signal_variance=float(rng.uniform(0.1, 1)),
                                         lengthscales=rng.uniform(0.4, 1.5, size=1)),
                        float(rng.uniform(0.01, 0.3)))
                for _ in range(m - 1))
            model = FidelityModel(target_prior=t, error_priors=errs,
                                  costs=np.arange(1.0, m + 1.0))
            h = random_history(rng, model, int(rng.integers(0, 4)))
            a = Action(x=rng.uniform(-1, 1, size=1), fidelity=int(rng.integers(1, m + 1)))
            b = Action(x=rng.uniform(-1, 1, size=1), fidelity=int(rng.integers(1, m + 1)))
            joint = info_gain_set(h, (a, b))
            split = info_gain_single(h, a) + info_gain_single(h.update(Observation(a, 0.0)), b)
            assert joint == pytest.approx(split, abs=1e-8)

    def test_gains_nonnegative(self, two_fid_model, rng):
        for _ in range(25):
            h = random_history(rng, two_fid_model, int(rng.integers(0, 6)))
            probe = Action(x=rng.uniform(-1, 1, size=1), fidelity=int(rng.integers(1, 3)))
            assert info_gain_single(h, probe) >= -1e-10

    def test_target_probe_diminishing_returns(self, two_fid_model, rng):
        # given f the target observation is independent of everything else,
        # so conditioning on more data can only shrink its gain
        for _ in range(30):
            h_small = random_history(rng, two_fid_model, int(rng.integers(0, 4)))
            h_big = h_small
            for _ in range(int(rng.integers(1, 4))):
                a = Action(x=rng.uniform(-1, 1, size=1), fidelity=int(rng.integers(1, 3)))
                h_big = h_big.update(Observation(a, float(rng.standard_normal())))
            probe = Action(x=rng.uniform(-1, 1, size=1), fidelity=2)
            assert info_gain_single(h_big, probe) <= info_gain_single(h_small, probe) + 1e-8

    def test_low_fidelity_probe_gain_can_increase(self, two_fid_model):
        # diminishing returns does NOT hold blanket for low-fidelity probes:
        # extra data can pin down the error process near the probe, turning a
        # fresh low query into a cleaner measurement of f
        def hist(pairs):
            h = History.empty(two_fid_model)
            for x, fid in pairs:
                h = h.update(obs(x, fid))
            return h

        probe = Action(x=np.array([0.0]), fidelity=1)
        g_small = info_gain_single(hist([(-1.0, 1)]), probe)
        g_big = info_gain_single(hist([(-1.0, 1), (-0.5, 1), (-1.0, 2)]), probe)
        assert g_small == pytest.approx(0.7980513968499996, abs=1e-9)
        assert g_big == pytest.approx(0.9478287114479189, abs=1e-9)
        assert g_big > g_small + 0.1

    def test_set_monotone_in_actions(self, two_fid_model, rng):
        h = random_history(rng, two_fid_model, 3)
        actions = [Action(x=rng.uniform(-1, 1, size=1), fidelity=1) for _ in range(4)]
        for k in range(1, 4):
            small = info_gain_set(h, actions[:k])
            big = info_gain_set(h, actions[: k + 1])
            assert big >= small - 1e-8

    @pytest.mark.parametrize("n_hist", [5, 30])
    def test_batch_matches_singles(self, three_fid_model, rng, n_hist):
        h = random_history(rng, three_fid_model, n_hist)
        Xc = rng.uniform(-1, 1, size=(9, 2))
        gains = CandidateGains(h.cov, Xc).gains()
        for fid in (1, 2, 3):
            for i in range(9):
                expect = info_gain_single(h, Action(x=Xc[i], fidelity=fid))
                assert gains[fid][i] == pytest.approx(expect, abs=1e-9)


class TestCandidateGains:
    """Incremental gains against a fresh CandidateGains after every append."""

    def _run(self, model, Xc, choose, steps) -> set:
        """Append steps picks; return the (cause, fidelity) of each append
        that computed a factor from scratch."""
        gains = CandidateGains(CovState.empty(model), Xc)
        seen = []
        for t in range(steps):
            action = choose(t, gains.gains())
            gains.append(action)
            if gains.state.rebuilt is not None:
                seen.append((gains.state.rebuilt, action.fidelity))
            got = gains.gains()
            want = CandidateGains(gains.state, Xc).gains()
            assert sorted(got) == sorted(want)
            for lev in want:
                assert np.allclose(got[lev], want[lev], rtol=0, atol=1e-10), (t, lev)
        # gains() follows every append, so each cause costs one recompute
        assert gains.recomputes == {cause: sum(c == cause for c, _ in seen)
                                    for cause in gains.recomputes}
        return set(seen)

    def test_300_greedy_steps(self, three_fid_model, rng):
        # three_fid_model's noisy fidelities 1 and 2 take the greedy picks
        # in turn; a noiseless fidelity 3 and target are queried only at
        # repeated points outside the candidate box, so that extending the
        # joint factor and then fidelity 3's error factor fails partway
        unit = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.5, 0.8]))
        tp = three_fid_model.target_prior
        model = FidelityModel(
            target_prior=GpPrior(tp.kernel, noise_variance=0.0, mean=tp.mean),
            error_priors=three_fid_model.error_priors + (GpPrior(unit, noise_variance=0.0),),
            costs=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        xa, xb = np.array([1.5, -1.5]), np.array([-1.5, 1.5])
        Xc = np.vstack([rng.uniform(-1, 1, size=(40, 2)), xa + 0.03, xb + 0.03])
        forced = {150: (xa, 4), 151: (xa, 4), 152: (xb, 3), 153: (xb, 3)}

        def greedy(t, gains):  # argmax gain at fidelities 1 and 2 in turn
            if t in forced:
                return Action(x=forced[t][0], fidelity=forced[t][1])
            lev = t % 2 + 1
            return Action(x=Xc[int(np.argmax(gains[lev]))], fidelity=lev)

        seen = self._run(model, Xc, greedy, 300)
        assert seen == {(FIRST_POINT, 1), (FIRST_POINT, 2), (JOINT_FAILED, 4),
                        (FIRST_POINT, 3), (ERROR_FAILED, 3)}

    def test_failed_extensions(self, three_fid_model, rng):
        # noiseless target and fidelity 1, unit prior variances: a repeated
        # point makes the Cholesky pivot exactly 0, so extending the joint
        # factor fails; once the joint factor carries jitter and the error
        # factor does not, a repeated fidelity-1 point fails only the latter
        unit = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.5, 0.8]))
        model = FidelityModel(
            target_prior=GpPrior(unit, noise_variance=0.0),
            error_priors=(GpPrior(unit.scaled(1.4, 1.0), noise_variance=0.0),
                          three_fid_model.error_priors[1]),
            costs=three_fid_model.costs,
        )
        xa, xb = np.array([1.5, -1.5]), np.array([-1.5, 1.5])
        # candidates near the repeated points feel the jitter a rebuild adds
        Xc = np.vstack([rng.uniform(-1, 1, size=(40, 2)), xa + 0.03, xb + 0.03])
        forced = [(xa, 3), (xa, 3), (xb, 1), (xb, 1)]

        def choose(t, gains):
            if t < len(forced):
                return Action(x=forced[t][0], fidelity=forced[t][1])
            # fidelity 2 is noisy: a noiseless pick inside Xc would leave
            # candidates whose v1 and v0 are both rounding-level
            return Action(x=Xc[int(np.argmax(gains[2]))], fidelity=2)

        seen = self._run(model, Xc, choose, 12)
        assert seen == {(JOINT_FAILED, 3), (FIRST_POINT, 1), (ERROR_FAILED, 1),
                        (FIRST_POINT, 2)}

class TestLongRunDrift:
    """Factors are extended row by row for a whole run and never rebuilt
    on a step count; this bounds the rounding that accumulates meanwhile."""

    def test_800_greedy_observations_on_hartmann6(self):
        # about the size of a hartmann6 run at 100x budget; the picks
        # follow Explore-LF's rule, gain per cost over every fidelity
        problem = make_problem("hartmann6", seed=0)
        model = problem.model
        rng = np.random.default_rng(7)
        Xc = rng.uniform(problem.bounds[:, 0], problem.bounds[:, 1], size=(200, model.dim))
        gains = CandidateGains(CovState.empty(model), Xc)
        history = History.empty(model)
        for t in range(1, 801):
            g = gains.gains()
            lev = max(g, key=lambda l: g[l].max() / model.costs[l - 1])
            a = Action(x=Xc[int(np.argmax(g[lev]))], fidelity=lev)
            gains.append(a)
            history = history.adopt((Observation(a, problem.evaluate(a, rng)),), gains.state)
            if t not in (200, 400, 800):
                continue
            # measured: 2e-15 (L), 2e-14 (gains), 2e-16 (variance), 7e-15
            # (against a rebuilt history), so each tolerance leaves 100x
            state = gains.state
            L, _ = chol_factor(_joint_sym(model, state.X, state.fids))
            assert np.max(np.abs(state.L - L)) < 1e-12
            got, want = gains.gains(), CandidateGains(state, Xc).gains()
            for lev in want:
                assert np.max(np.abs(got[lev] - want[lev])) < 1e-10
            mean, var = gains.posterior(history)
            mean_o, var_o = predict_latent_diag(history, Xc)
            assert np.array_equal(mean, mean_o)
            assert np.max(np.abs(var - var_o)) < 1e-10
            fresh = History.from_observations(model, history.observations)
            mean_f, var_f = predict_latent_diag(fresh, Xc)
            assert np.max(np.abs(mean - mean_f)) < 1e-10
            assert np.max(np.abs(var - var_f)) < 1e-10
        assert gains.recomputes[JOINT_FAILED] == gains.recomputes[ERROR_FAILED] == 0


class TestHistory:
    def test_lengths(self, two_fid_model):
        h = History.empty(two_fid_model)
        assert len(h) == 0
        h = h.update(obs(0.1, 1, 0.2))
        assert len(h) == 1

    def test_incremental_matches_rebuild(self, three_fid_model, rng):
        h = random_history(rng, three_fid_model, 30)  # extended row by row
        rebuilt = History.from_observations(three_fid_model, h.observations)
        def logdet(cov):
            return 2.0 * float(np.sum(np.log(np.diag(cov.L))))

        assert logdet(h.cov) == pytest.approx(logdet(rebuilt.cov), abs=1e-10)
        Xq = rng.uniform(-1, 1, size=(4, 2))
        m1, v1 = predict_latent_diag(h, Xq)
        m2, v2 = predict_latent_diag(rebuilt, Xq)
        assert np.allclose(m1, m2, atol=1e-8)
        assert np.allclose(v1, v2, atol=1e-8)

    def test_adopt_takes_the_extended_state(self, two_fid_model, rng):
        h = random_history(rng, two_fid_model, 4)
        new = [obs(0.3, 1, 0.5), obs(-0.2, 2, 1.5)]
        gains = CandidateGains(h.cov, rng.uniform(-1, 1, size=(5, 1)))
        for o in new:
            gains.append(o.action)
        adopted = h.adopt(new, gains.state)
        updated = h.update(new[0]).update(new[1])
        assert adopted.cov is gains.state
        assert adopted.observations == updated.observations
        assert np.array_equal(adopted.alpha, updated.alpha)
        with pytest.raises(ValueError, match="6 points for 5 observations"):
            h.adopt(new[:1], gains.state)
        with pytest.raises(ValueError, match="covariance state"):
            gains.posterior(updated)

    def test_order_invariance(self, two_fid_model, rng):
        observations = [
            Observation(Action(x=rng.uniform(-1, 1, size=1),
                               fidelity=int(rng.integers(1, 3))),
                        float(rng.standard_normal()))
            for _ in range(6)
        ]
        h1 = History.from_observations(two_fid_model, observations)
        perm = [observations[i] for i in rng.permutation(6)]
        h2 = History.from_observations(two_fid_model, perm)
        Xq = rng.uniform(-1, 1, size=(5, 1))
        m1, v1 = predict_latent_diag(h1, Xq)
        m2, v2 = predict_latent_diag(h2, Xq)
        assert np.allclose(m1, m2, atol=1e-8)
        assert np.allclose(v1, v2, atol=1e-8)


class TestHyperFit:
    def test_grid_of_one_returns_it(self, two_fid_model, rng):
        h = random_history(rng, two_fid_model, 3)
        grid = HyperGrid(models=(two_fid_model,))
        assert fit_hyperparameters(h, grid) is two_fid_model

    def test_argmax_property(self, two_fid_model, rng):
        h = random_history(rng, two_fid_model, 5)
        grid = default_hyper_grid(two_fid_model)
        best = fit_hyperparameters(h, grid)
        best_lml = log_marginal_likelihood(best, h.observations)
        for m in grid.models:
            assert best_lml >= log_marginal_likelihood(m, h.observations) - 1e-9

    def test_recovers_generating_gridpoint(self):
        # self-consistency: near-noiseless data drawn from one grid model
        # should fit back to that model
        rng = np.random.default_rng(0)
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.4])), 1e-6)
        e = GpPrior(SquaredExpKernel(signal_variance=0.25, lengthscales=np.array([0.6])), 1e-6)
        base = FidelityModel(target_prior=t, error_priors=(e,), costs=np.array([1.0, 3.0]))
        grid = default_hyper_grid(base)
        gen = grid.models[7]
        kern = gen.target_prior.kernel
        X = rng.uniform(-1, 1, size=(50, 1))
        K = kern.cross(X, X) + 1e-6 * np.eye(50)
        y = np.linalg.cholesky(K) @ rng.standard_normal(50)
        observations = [Observation(Action(x=X[i], fidelity=2), float(y[i]))
                        for i in range(50)]
        h = History.from_observations(gen, observations)
        best = fit_hyperparameters(h, grid)
        assert best is gen

    def test_default_grid_size(self, two_fid_model):
        grid = default_hyper_grid(two_fid_model)
        assert len(grid.models) == 25
