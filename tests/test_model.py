from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from conftest import gains_formula, info_gain_single, predict_latent_diag
from mfbo import covops
from mfbo.benchmarks import make_problem
from mfbo.gp import GpPrior, NumericalError, SquaredExpKernel, chol_factor
from mfbo.model import (
    ERROR_FAILED,
    FIRST_POINT,
    JOINT_FAILED,
    NEW_MODEL,
    Action,
    CandidateGains,
    CovState,
    FidelityModel,
    _ErrFactor,
    _Rows,
    _extend_chol,
    _joint_sym,
    default_hyper_grid,
    fit_hyperparameters,
    info_gain_set,
    log_marginal_likelihood,
)
from mfbo.verify import dense_latent_posterior, joint_entry

# the folded posterior mean against predict_latent_diag's: measured at most
# 6e-15 in TestPosteriorFold and 5e-15 at 800 observations in
# TestLongRunDrift (|mean| about 2 to 3), so the bound leaves 100x
MEAN_TOL = 6e-13


# --------------------------------------------------------------------------
# pointwise oracle for the dense joint covariance builders

def joint_cov(model: FidelityModel, a: Action, b: Action, same_obs: bool = False) -> float:
    """Covariance between two observations under the additive model: the
    dense oracle's entry (verify.joint_entry), plus the noise when
    same_obs=True, which means a and b are literally the same noisy draw
    and requires identical point and fidelity.
    """
    model._check_fidelity(a.fidelity)
    model._check_fidelity(b.fidelity)
    v = joint_entry(model, a.x, a.fidelity, b.x, b.fidelity)
    if same_obs:
        if a.fidelity != b.fidelity or not np.array_equal(a.x, b.x):
            raise ValueError("same_obs requires identical actions")
        v += model.noise_variance(a.fidelity)
    return v


def predict_observable(state: CovState, y, action: Action) -> tuple[float, float]:
    """Posterior mean and variance of a fresh observation at the action,
    given the values y observed at state's points."""
    model = state.model
    model._check_fidelity(action.fidelity)
    prior_var = model.prior_variance(action.fidelity)
    x1 = action.x[None, :]
    mean_prior = model.target_prior.mean
    if state.n == 0:
        return mean_prior, prior_var
    fn = np.append(state.fids, action.fidelity)
    cross = _joint_sym(model, np.vstack([state.X, x1]), fn)[:-1, -1]
    resid = np.asarray(y, dtype=np.float64) - mean_prior
    mean = mean_prior + cross @ cho_solve((state.L, True), resid)
    w = solve_triangular(state.L, cross, lower=True, check_finite=False)
    var = prior_var - w @ w
    # independent noise can never be conditioned away
    return float(mean), float(max(var, model.noise_variance(action.fidelity)))


def actions_of(state: CovState) -> list[Action]:
    return [Action(x=x, fidelity=f) for x, f in zip(state.X, state.fids)]


def dense_latent_diag(state: CovState, y, Xq) -> tuple[np.ndarray, np.ndarray]:
    """The dense oracle's mean and variance of f at each row of Xq."""
    mean, cov = dense_latent_posterior(state.model, state.X, state.fids, y, Xq)
    return mean, np.diag(cov)


def latent_posterior(state: CovState, y, Xq) -> tuple[np.ndarray, np.ndarray]:
    """CandidateGains.posterior at Xq, from a fresh object at state."""
    return CandidateGains(state, Xq).posterior(y)


def act(x, fid):
    return Action(x=np.atleast_1d(np.asarray(x, dtype=float)), fidelity=fid)


def target_only(lengthscale, noise_variance) -> FidelityModel:
    """An m = 1 model: a unit-variance 1-d target and its noise."""
    kern = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([lengthscale]))
    prior = GpPrior(kern, noise_variance=noise_variance)
    return FidelityModel(target_prior=prior, error_priors=(), costs=np.array([1.0]))


def spend(model, appends) -> float:
    """A CandidateGains budget that pays for appends actions at any of
    model's fidelities."""
    return appends * float(max(model.costs))


def observed_at(model, X) -> CovState:
    """The state of target-fidelity observations at the rows of X."""
    state = CovState.empty(model)
    for x in X:
        state = state.append(Action(x=x, fidelity=model.m))
    return state


def random_observations(rng, model, n, spread=1.0) -> tuple[CovState, np.ndarray]:
    """n random actions appended one at a time, and a value for each."""
    state, y = CovState.empty(model), []
    for _ in range(n):
        a = Action(x=rng.uniform(-spread, spread, size=model.dim),
                   fidelity=int(rng.integers(1, model.m + 1)))
        y.append(float(rng.standard_normal()))
        state = state.append(a)
    return state, np.array(y)


class TestActionObservation:
    def test_fidelity_validation(self):
        with pytest.raises(ValueError):
            Action(x=np.array([0.0]), fidelity=0)

    @pytest.mark.parametrize("x", [np.arange(6.0).reshape(2, 3) / 10, np.zeros((1, 2)), 0.5],
                             ids=["2x3", "1x2", "scalar"])
    def test_x_must_be_one_point(self, x):
        # a (2, 3) block used to become one 6-d point
        with pytest.raises(ValueError, match=r"x must be a 1-d point, got shape \("):
            Action(x=x, fidelity=1)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["noise_variance", "mean"])
    def test_prior_fields_must_be_finite(self, field, bad):
        kern = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0]))
        with pytest.raises(ValueError, match=field):
            GpPrior(kern, **{field: bad})

    def test_costs_positive(self):
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 0.1)
        with pytest.raises(ValueError):
            FidelityModel(target_prior=t, error_priors=(), costs=np.array([0.0]))

    def test_cost_count_matches_m(self, two_fid_model):
        t = two_fid_model.target_prior
        with pytest.raises(ValueError):
            FidelityModel(target_prior=t, error_priors=(), costs=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("part", [
        lambda model: model,
        lambda model: model.target_prior,
        lambda model: model.target_prior.kernel,
        lambda model: model.error_priors[0].kernel,
    ], ids=["model", "prior", "kernel", "error-kernel"])
    def test_values_compare_and_hash_by_identity(self, part):
        # two builds hold equal parameters in separate arrays
        a, b = (part(make_problem("currin2").model) for _ in range(2))
        assert a == a and a != b
        assert a in [b, a] and a not in [b]
        assert len({a, b}) == 2 and hash(a) == hash(a)


class TestPredictLatent:
    """The latent posterior at candidates, CandidateGains.posterior."""

    def test_empty_history_is_prior(self, two_fid_model, rng):
        Xq = rng.uniform(-1, 1, size=(4, 1))
        mean, var = latent_posterior(CovState.empty(two_fid_model), [], Xq)
        assert np.array_equal(mean, np.zeros(4))
        assert np.array_equal(var, np.full(4, two_fid_model.target_prior.kernel.signal_variance))

    def test_target_observation_matches_plain_gp(self, two_fid_model, rng):
        state = CovState.empty(two_fid_model).append(act(0.4, 2))
        Xq = rng.uniform(-1, 1, size=(5, 1))
        mean, var = latent_posterior(state, [1.1], Xq)
        mean0, var0 = dense_latent_diag(state, [1.1], Xq)
        assert np.max(np.abs(mean - mean0)) < 1e-10
        assert np.max(np.abs(var - var0)) < 1e-10

    def test_single_point_hand_oracle(self):
        # k(x,x)=1, noise 0.25: mean = y/1.25, var = 1 - 1/1.25
        X = np.array([[0.3]])
        state = observed_at(target_only(1.0, 0.25), X)
        for y0 in (2.0, -1.0, 0.0):
            mean, var = latent_posterior(state, [y0], X)
            assert mean[0] == pytest.approx(0.8 * y0, abs=1e-12)
            assert var[0] == pytest.approx(0.2, abs=1e-12)

    def test_duplicated_query_points_give_identical_rows(self, rng):
        # duplicated candidates are separate columns of the block solves,
        # so they agree to rounding, not bit for bit
        state = observed_at(target_only(0.5, 0.1), rng.uniform(-1, 1, size=(3, 1)))
        y = rng.standard_normal(3)
        mean, var = latent_posterior(state, y, np.array([[0.2], [0.2], [0.7]]))
        assert abs(mean[0] - mean[1]) < 1e-12
        assert abs(var[0] - var[1]) < 1e-12

    def test_variance_monotone_under_more_data(self, rng):
        X = rng.uniform(-1, 1, size=(8, 1))
        y = rng.standard_normal(8)
        model = target_only(0.6, 0.05)
        Xc = rng.uniform(-1, 1, size=(6, 1))
        gains = CandidateGains(CovState.empty(model), Xc, spend(model, 8))
        for k in range(8):
            _, var_small = gains.posterior(y[:k])
            gains.append(Action(x=X[k], fidelity=1))
            _, var_big = gains.posterior(y[: k + 1])
            assert np.all(var_big <= var_small + 1e-9)

    def test_zero_noise_interpolates(self, rng):
        X = rng.uniform(-1, 1, size=(5, 1))
        y = rng.standard_normal(5)
        mean, var = latent_posterior(observed_at(target_only(0.8, 0.0), X), y, X)
        assert np.max(np.abs(mean - y)) < 1e-8
        assert np.all(var <= 1e-8)

    def test_low_fidelity_half_variance_oracle(self):
        # k_f(x,x)=1, k_eps(x,x)=1, sigma^2=0: one low obs leaves var 1/2
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 0.0)
        e = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 0.0)
        model = FidelityModel(target_prior=t, error_priors=(e,), costs=np.array([1.0, 2.0]))
        state = CovState.empty(model).append(act(0.0, 1))
        _, var = latent_posterior(state, [0.7], np.array([[0.0]]))
        assert var[0] == pytest.approx(0.5, abs=1e-10)

    def test_diag_matches_full(self, three_fid_model, rng):
        # the run's posterior and the test oracle against the full joint
        # Gaussian over every fidelity's observations
        state, y = random_observations(rng, three_fid_model, 6)
        for lev in (1, 2, 3):
            state = state.append(Action(x=rng.uniform(-1, 1, size=2), fidelity=lev))
            y = np.append(y, rng.standard_normal())
        Xq = rng.uniform(-1, 1, size=(7, 2))
        mean0, var0 = dense_latent_diag(state, y, Xq)
        for mean, var in (latent_posterior(state, y, Xq), predict_latent_diag(state, y, Xq)):
            assert np.max(np.abs(mean - mean0)) < 1e-10
            assert np.max(np.abs(var - var0)) < 1e-10

    def test_every_fidelity_informs_the_target(self, three_fid_model):
        empty = CovState.empty(three_fid_model)
        x = np.array([[0.2, -0.1]])
        _, v0 = latent_posterior(empty, [], x)
        for lev in (1, 2, 3):
            _, v1 = latent_posterior(empty.append(act(x[0], lev)), [0.5], x)
            assert v1[0] < v0[0]


class TestPredictObservable:
    def test_empty_history_target(self, two_fid_model):
        a = Action(x=np.array([0.1]), fidelity=2)
        mean, var = predict_observable(CovState.empty(two_fid_model), [], a)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(1.0 + 0.05, abs=1e-12)

    def test_empty_history_low(self, two_fid_model):
        a = Action(x=np.array([0.1]), fidelity=1)
        _, var = predict_observable(CovState.empty(two_fid_model), [], a)
        assert var == pytest.approx(1.0 + 0.25 + 0.02, abs=1e-12)

    def test_variance_floor_is_noise(self, two_fid_model, rng):
        state, y = random_observations(rng, two_fid_model, 10, spread=0.3)
        a = Action(x=np.array([0.0]), fidelity=2)
        _, var = predict_observable(state, y, a)
        assert var >= 0.05 - 1e-12

    def test_zero_noise_interpolation(self):
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.5])), 0.0)
        model = FidelityModel(target_prior=t, error_priors=(), costs=np.array([1.0]))
        state = CovState.empty(model).append(act(0.3, 1))
        mean, _ = predict_observable(state, [0.9], Action(x=np.array([0.3]), fidelity=1))
        assert mean == pytest.approx(0.9, abs=1e-8)

    def test_observable_decomposes_into_latent_plus_error(self, two_fid_model, rng):
        # joint-oracle check: condition the dense joint Gaussian of
        # (y_new, y_hist) directly and compare mean/var
        state, y = random_observations(rng, two_fid_model, 6)
        model = two_fid_model
        a = Action(x=np.array([0.25]), fidelity=1)
        mean, var = predict_observable(state, y, a)

        acts = actions_of(state) + [a]
        n = len(acts)
        K = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                K[i, j] = joint_cov(model, acts[i], acts[j], same_obs=(i == j))
        prior_mean = np.full(n, model.target_prior.mean)
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
        g = info_gain_single(CovState.empty(model), a)
        assert g == pytest.approx(0.5 * np.log(2.0), abs=1e-12)

    def test_perfect_proxy_equals_target_gain(self):
        # k_eps = 0 limit via a tiny amplitude
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 1.0)
        e = GpPrior(SquaredExpKernel(signal_variance=1e-14, lengthscales=np.array([1.0])), 1.0)
        model = FidelityModel(target_prior=t, error_priors=(e,), costs=np.array([1.0, 2.0]))
        empty = CovState.empty(model)
        g_low = info_gain_single(empty, Action(x=np.array([0.0]), fidelity=1))
        g_tgt = info_gain_single(empty, Action(x=np.array([0.0]), fidelity=2))
        assert g_low == pytest.approx(g_tgt, abs=1e-7)

    def test_known_value_gains_nothing(self):
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([1.0])), 0.0)
        model = FidelityModel(target_prior=t, error_priors=(), costs=np.array([1.0]))
        state = CovState.empty(model).append(act(0.0, 1))
        g = info_gain_single(state, Action(x=np.array([0.0]), fidelity=1))
        assert g == 0.0

    def test_set_of_one_equals_single(self, three_fid_model, rng):
        state, _ = random_observations(rng, three_fid_model, 4)
        for fid in (1, 2, 3):
            a = Action(x=rng.uniform(-1, 1, size=2), fidelity=fid)
            assert info_gain_set(state, (a,)) == pytest.approx(
                info_gain_single(state, a), abs=1e-10)

    def test_far_apart_points_add(self, two_fid_model):
        empty = CovState.empty(two_fid_model)
        a = Action(x=np.array([-40.0]), fidelity=1)
        b = Action(x=np.array([40.0]), fidelity=2)
        joint = info_gain_set(empty, (a, b))
        singles = info_gain_single(empty, a) + info_gain_single(empty, b)
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
            state, _ = random_observations(rng, model, int(rng.integers(0, 4)))
            a = Action(x=rng.uniform(-1, 1, size=1), fidelity=int(rng.integers(1, m + 1)))
            b = Action(x=rng.uniform(-1, 1, size=1), fidelity=int(rng.integers(1, m + 1)))
            joint = info_gain_set(state, (a, b))
            split = info_gain_single(state, a) + info_gain_single(state.append(a), b)
            assert joint == pytest.approx(split, abs=1e-8)

    def test_gains_nonnegative(self, two_fid_model, rng):
        for _ in range(25):
            state, _ = random_observations(rng, two_fid_model, int(rng.integers(0, 6)))
            probe = Action(x=rng.uniform(-1, 1, size=1), fidelity=int(rng.integers(1, 3)))
            assert info_gain_single(state, probe) >= -1e-10

    def test_target_probe_diminishing_returns(self, two_fid_model, rng):
        # given f the target observation is independent of everything else,
        # so conditioning on more data can only shrink its gain
        for _ in range(30):
            small, _ = random_observations(rng, two_fid_model, int(rng.integers(0, 4)))
            big = small
            for _ in range(int(rng.integers(1, 4))):
                a = Action(x=rng.uniform(-1, 1, size=1), fidelity=int(rng.integers(1, 3)))
                big = big.append(a)
            probe = Action(x=rng.uniform(-1, 1, size=1), fidelity=2)
            assert info_gain_single(big, probe) <= info_gain_single(small, probe) + 1e-8

    def test_low_fidelity_probe_gain_can_increase(self, two_fid_model):
        # diminishing returns does NOT hold blanket for low-fidelity probes:
        # extra data can pin down the error process near the probe, turning a
        # fresh low query into a cleaner measurement of f
        def at(pairs):
            state = CovState.empty(two_fid_model)
            for x, fid in pairs:
                state = state.append(act(x, fid))
            return state

        probe = Action(x=np.array([0.0]), fidelity=1)
        g_small = info_gain_single(at([(-1.0, 1)]), probe)
        g_big = info_gain_single(at([(-1.0, 1), (-0.5, 1), (-1.0, 2)]), probe)
        assert g_small == pytest.approx(0.7980513968499996, abs=1e-9)
        assert g_big == pytest.approx(0.9478287114479189, abs=1e-9)
        assert g_big > g_small + 0.1

    def test_set_monotone_in_actions(self, two_fid_model, rng):
        state, _ = random_observations(rng, two_fid_model, 3)
        actions = [Action(x=rng.uniform(-1, 1, size=1), fidelity=1) for _ in range(4)]
        for k in range(1, 4):
            small = info_gain_set(state, actions[:k])
            big = info_gain_set(state, actions[: k + 1])
            assert big >= small - 1e-8

    @pytest.mark.parametrize("n_obs", [5, 30])
    def test_batch_matches_singles(self, three_fid_model, rng, n_obs):
        state, _ = random_observations(rng, three_fid_model, n_obs)
        Xc = rng.uniform(-1, 1, size=(9, 2))
        gains = CandidateGains(state, Xc).gains()
        for fid in (1, 2, 3):
            for i in range(9):
                expect = info_gain_single(state, Action(x=Xc[i], fidelity=fid))
                assert gains[fid][i] == pytest.approx(expect, abs=1e-9)


def failing_model(three_fid_model) -> FidelityModel:
    """Noiseless target and fidelity 1, unit prior variances: a repeated
    point makes the Cholesky pivot exactly 0, so extending the joint factor
    fails; once the joint factor carries jitter and the error factor does
    not, a repeated fidelity-1 point fails only the latter."""
    unit = SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.5, 0.8]))
    return FidelityModel(
        target_prior=GpPrior(unit, noise_variance=0.0),
        error_priors=(GpPrior(unit.scaled(1.4, 1.0), noise_variance=0.0),
                      three_fid_model.error_priors[1]),
        costs=three_fid_model.costs,
    )


# the repeated points that make failing_model's extensions fail, in order
XA, XB = np.array([1.5, -1.5]), np.array([-1.5, 1.5])
FAILING = [(XA, 3), (XA, 3), (XB, 1), (XB, 1)]


def append_via_joint_cross(state: CovState, action: Action) -> CovState:
    """CovState.append with its joint column taken from _joint_sym over
    the points with the new one last, and the error factor's column
    computed apart: the oracle for the one shared error column the library
    computes."""
    model = state.model
    lev = action.fidelity
    x1 = action.x[None, :]
    Xn, fn = np.vstack([state.X, x1]), np.append(state.fids, lev)
    col = _joint_sym(model, Xn, fn)[:-1, -1]
    L = _extend_chol(state.L, col, model.prior_variance(lev) + state.jit)
    if L is None:
        return CovState.build(model, Xn, fn, JOINT_FAILED)
    err, rebuilt = dict(state.err), None
    if lev < model.m:
        ker = model.error_kernel(lev)
        old = err.get(lev, _ErrFactor(np.zeros(0, dtype=np.int64), np.zeros((0, 0)), 0.0))
        idx = np.append(old.idx, state.n)
        ecol = ker.cross(state.X[old.idx], x1)[:, 0]
        Le = _extend_chol(old.L, ecol, ker.signal_variance + model.noise_variance(lev) + old.jit)
        if Le is None:
            err[lev], rebuilt = CovState._build_err(model, Xn, idx, lev), ERROR_FAILED
        else:
            err[lev] = _ErrFactor(idx, Le, old.jit)
            rebuilt = None if lev in state.err else FIRST_POINT
    return CovState(model, Xn, fn, L, state.jit, err, rebuilt)


class TestCandidateGains:
    """Incremental gains against a fresh CandidateGains after every append."""

    def _run(self, model, Xc, choose, steps) -> set:
        """Append steps picks; return the (cause, fidelity) of each append
        that computed a factor from scratch."""
        gains = CandidateGains(CovState.empty(model), Xc, spend(model, steps))
        seen = []
        for t in range(steps):
            action = choose(t, gains.gains())
            gains.append(action)
            if gains.state.rebuilt is not None:
                seen.append((gains.state.rebuilt, action.fidelity))
            got = gains.gains()
            formula = gains_formula(gains)
            want = CandidateGains(gains.state, Xc).gains()
            assert sorted(got) == sorted(want) == sorted(formula)
            for lev in want:
                assert np.array_equal(got[lev], formula[lev]), (t, lev)
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
        model = failing_model(three_fid_model)
        # candidates near the repeated points feel the jitter a rebuild adds
        Xc = np.vstack([rng.uniform(-1, 1, size=(40, 2)), XA + 0.03, XB + 0.03])

        def choose(t, gains):
            if t < len(FAILING):
                return Action(x=FAILING[t][0], fidelity=FAILING[t][1])
            # fidelity 2 is noisy: a noiseless pick inside Xc would leave
            # candidates whose v1 and v0 are both rounding-level
            return Action(x=Xc[int(np.argmax(gains[2]))], fidelity=2)

        seen = self._run(model, Xc, choose, 12)
        assert seen == {(JOINT_FAILED, 3), (FIRST_POINT, 1), (ERROR_FAILED, 1),
                        (FIRST_POINT, 2)}

    def test_one_error_block_per_low_fidelity_and_recompute(self, three_fid_model, rng,
                                                             monkeypatch):
        # W_l and W_eps_l both read k_eps_l(X_l, Xc): one kernel call builds it
        model = three_fid_model
        state = CovState.empty(model)
        for t in range(9):
            state = state.append(Action(x=rng.uniform(-1, 1, size=2), fidelity=t % 3 + 1))
        gains = CandidateGains(state, rng.uniform(-1, 1, size=(30, 2)))
        calls = []
        real = covops.se_cross

        def se_cross(xa, xb, lengthscales, signal_variance):
            calls.append((xa, xb, lengthscales))
            return real(xa, xb, lengthscales, signal_variance)

        monkeypatch.setattr(covops, "se_cross", se_cross)
        gains.reset(state)
        assert sorted(state.err) == [1, 2]
        for lev, ef in state.err.items():
            ls, X_l = model.error_kernel(lev).lengthscales, state.X[ef.idx]
            blocks = sum(np.array_equal(l, ls)
                         and (xa is gains.Xc and np.array_equal(xb, X_l)
                              or xb is gains.Xc and np.array_equal(xa, X_l))
                         for xa, xb, l in calls)
            assert blocks == 1, lev

    def test_a_repeated_append_reuses_its_kernel_rows(self, three_fid_model, rng, monkeypatch):
        # an action appended again right after itself builds its rows
        # against the candidates once, with the bits of building them afresh;
        # a reset, here to a new model, drops them
        model = three_fid_model
        Xc = rng.uniform(-1, 1, size=(30, 2))
        state = CovState.empty(model)
        for t in range(6):
            state = state.append(Action(x=rng.uniform(-1, 1, size=2), fidelity=t % 3 + 1))
        gains, fresh = (CandidateGains(state, Xc, spend(model, 4)) for _ in range(2))
        rows = []
        real = covops.se_cross

        def se_cross(xa, xb, lengthscales, signal_variance):
            if len(xa) == 1 and xb is gains.Xc:
                rows.append(lengthscales)
            return real(xa, xb, lengthscales, signal_variance)

        monkeypatch.setattr(covops, "se_cross", se_cross)
        a = Action(x=rng.uniform(-1, 1, size=2), fidelity=1)
        for _ in range(3):
            gains.append(a)
            fresh._last = None
            fresh.append(a)
        assert gains.state.rebuilt is None
        assert len(rows) == 2  # k_f and k_eps_1, once
        for lev, g in fresh.gains().items():
            assert np.array_equal(gains.gains()[lev], g), lev
        gains.reset(CovState.build(model.scaled(2.0), gains.state.X, gains.state.fids))
        gains.append(a)
        assert len(rows) == 4 and np.array_equal(rows[-2], 2.0 * model.target_prior.kernel.lengthscales)

    def test_candidate_layout_does_not_change_results(self, three_fid_model, rng):
        # Halton candidate sets are Fortran-ordered; gains and posteriors
        # are the same bits from either layout
        Xc = rng.uniform(-1, 1, size=(60, 2))
        model = three_fid_model
        budget = spend(model, 24)
        by_order = {o: CandidateGains(CovState.empty(model), np.asarray(Xc, order=o), budget)
                    for o in "CF"}
        y = []
        for t in range(24):
            got = {o: c.gains() for o, c in by_order.items()}
            for lev in got["C"]:
                assert np.array_equal(got["C"][lev], got["F"][lev]), (t, lev)
            if t:
                (mc, vc), (mf, vf) = (c.posterior(y) for c in by_order.values())
                assert np.array_equal(mc, mf) and np.array_equal(vc, vf)
            lev = t % model.m + 1
            action = Action(x=Xc[int(np.argmax(got["C"][lev]))], fidelity=lev)
            for c in by_order.values():
                c.append(action)
            y.append(float(rng.standard_normal()))

    def test_a_known_candidate_gains_zero_as_in_the_formula(self, three_fid_model, rng):
        model = failing_model(three_fid_model)  # noiseless target
        Xc = np.vstack([rng.uniform(-1, 1, (10, 2)), XA])
        gains = CandidateGains(CovState.empty(model), Xc, spend(model, 1))
        gains.gains()
        gains.append(Action(x=XA, fidelity=3))
        got, want = gains.gains(), gains_formula(gains)
        for lev in want:
            assert got[lev][-1] == 0.0 and np.all(got[lev][:-1] > 0.0)
            assert np.array_equal(got[lev], want[lev])

    def test_gains_match_the_formula_on_a_hartmann6_chain(self):
        # each pick is the best gain at the next fidelity in turn, so every
        # projection grows (Explore-LF's gain per cost picks only fidelity 1)
        problem = make_problem("hartmann6", seed=0)
        model = problem.model
        rng = np.random.default_rng(11)
        Xc = rng.uniform(problem.bounds[:, 0], problem.bounds[:, 1], size=(300, model.dim))
        gains = CandidateGains(CovState.empty(model), Xc, spend(model, 150))
        for t in range(150):
            g = gains.gains()
            want = gains_formula(gains)
            for lev in want:
                assert np.array_equal(g[lev], want[lev]), (t, lev)
            lev = t % model.m + 1
            gains.append(Action(x=Xc[int(np.argmax(g[lev]))], fidelity=lev))
        assert gains.recomputes[FIRST_POINT] == model.m - 1

    def test_pick_is_the_best_gain_per_cost_in_gains(self, three_fid_model, rng, monkeypatch):
        # duplicate candidates tie, and the lowest index must win
        Xc = np.vstack([rng.uniform(-1, 1, size=(20, 2))] * 2)
        gains = CandidateGains(CovState.empty(three_fid_model), Xc, spend(three_fid_model, 12))
        costs = three_fid_model.costs
        scored = []
        real = CandidateGains._gain

        def recording(self, lev, degenerate):
            scored.append(lev)
            return real(self, lev, degenerate)

        monkeypatch.setattr(CandidateGains, "_gain", recording)
        for t, fids in enumerate([(1, 2, 3), (2,), (3, 1), (1, 3)] * 3):
            g = gains.gains()
            want, best = None, -np.inf
            for lev in fids:
                for i in range(Xc.shape[0]):
                    if g[lev][i] / costs[lev - 1] > best:
                        want, best = (lev, i, float(g[lev][i])), g[lev][i] / costs[lev - 1]
            del scored[:]
            assert gains.pick(fids) == want, t
            assert scored == list(fids), t
            gains.append(Action(x=Xc[want[1]], fidelity=want[0]))

    def test_pick_skips_taken_pairs(self, two_fid_model, rng):
        Xc = rng.uniform(-1, 1, size=(6, 1))
        gains = CandidateGains(CovState.empty(two_fid_model), Xc)
        g = gains.gains()[1]
        taken = {1: np.zeros(6, dtype=bool)}
        order = np.argsort(-g, kind="stable")
        for i in order:
            assert gains.pick((1,), taken) == (1, int(i), float(g[i]))
            taken[1][i] = True
        assert gains.pick((1,), taken) is None

    @pytest.mark.parametrize("shape", [(4, 3), (6, 1), (12,), (3, 2, 2)])
    def test_candidates_must_be_model_dim_wide(self, three_fid_model, shape):
        # each shape holds a multiple of the model's 2 dimensions
        with pytest.raises(ValueError, match=r"candidates must be an \(n, 2\) matrix"):
            CandidateGains(CovState.empty(three_fid_model), np.zeros(shape))

    def test_rejects_empty(self, three_fid_model):
        with pytest.raises(ValueError, match=r"candidates must be an \(n, 2\) matrix with n >= 1"):
            CandidateGains(CovState.empty(three_fid_model), np.empty((0, 2)))

    def test_rejects_wrong_rank(self, three_fid_model):
        with pytest.raises(ValueError, match=r"candidates must be an \(n, 2\) matrix"):
            CandidateGains(CovState.empty(three_fid_model), np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_candidates(self, three_fid_model, bad):
        # a NaN candidate used to build, with finite gains; an inf one warned
        Xc = np.zeros((3, 2))
        Xc[1, 0] = bad
        with pytest.raises(ValueError, match=r"candidates must be an \(n, 2\) matrix of finite"):
            CandidateGains(CovState.empty(three_fid_model), Xc)

    def test_posterior_needs_one_value_per_point(self, two_fid_model, rng):
        state, y = random_observations(rng, two_fid_model, 4)
        gains = CandidateGains(state, rng.uniform(-1, 1, size=(5, 1)))
        gains.posterior(y)
        for wrong in (y[:-1], np.append(y, 0.0)):
            with pytest.raises(ValueError, match="values for 4 observed points"):
                gains.posterior(wrong)

    def test_posterior_rejects_non_finite_values(self, two_fid_model, rng):
        state, y = random_observations(rng, two_fid_model, 4)
        gains = CandidateGains(state, rng.uniform(-1, 1, size=(5, 1)))
        for bad in (np.nan, np.inf, -np.inf):
            wrong = y.copy()
            wrong[2] = bad
            with pytest.raises(ValueError, match="observed values must be finite"):
                gains.posterior(wrong)


def assert_fold_matches(cands: CandidateGains, y) -> None:
    """cands.posterior(y) against a fresh solve at cands' state."""
    mean, var = cands.posterior(y)
    mean_o, var_o = predict_latent_diag(cands.state, y, cands.Xc)
    assert np.max(np.abs(mean - mean_o), initial=0.0) < MEAN_TOL
    assert np.max(np.abs(var - var_o), initial=0.0) < 1e-10


def smooth_values(actions) -> np.ndarray:
    """A deterministic value per action, so values at a repeated noiseless
    point agree as real data would."""
    return np.array([np.sin(3 * a.x[0]) + np.cos(2 * a.x[-1]) + 0.3 * a.fidelity
                     for a in actions])


def random_chain(rng, model, n) -> list:
    return [Action(x=rng.uniform(-1, 1, size=model.dim),
                   fidelity=int(rng.integers(1, model.m + 1))) for _ in range(n)]


class TestPosteriorFold:
    """CandidateGains.posterior folds the mean as values arrive; every call
    pattern must agree with a fresh solve."""

    def test_a_call_after_every_append_each_fifth_or_only_at_the_end(self, three_fid_model, rng):
        model = three_fid_model
        Xc = rng.uniform(-1, 1, size=(30, 2))
        actions = random_chain(rng, model, 40)
        y = smooth_values(actions)
        every, fifth, once = (CandidateGains(CovState.empty(model), Xc, spend(model, 40))
                              for _ in range(3))
        for t, action in enumerate(actions, 1):
            for cands in (every, fifth, once):
                cands.append(action)
            assert_fold_matches(every, y[:t])
            if t % 5 == 0:
                assert_fold_matches(fifth, y[:t])
        # every compute was at a low fidelity's first point; the last, at
        # action j, solved j + 1 rows of W_f and later appends added the
        # rest, so the single fold spans rows of both kinds
        assert once.recomputes == {FIRST_POINT: model.m - 1, JOINT_FAILED: 0,
                                   ERROR_FAILED: 0, NEW_MODEL: 0}
        j = max(next(t for t, a in enumerate(actions) if a.fidelity == lev)
                for lev in range(1, model.m))
        assert j < len(actions) - 1
        assert_fold_matches(once, y)

    def test_a_call_after_a_reset_to_a_refit_model(self, three_fid_model, rng):
        model = three_fid_model
        Xc = rng.uniform(-1, 1, size=(30, 2))
        actions = random_chain(rng, model, 30)
        y = smooth_values(actions)
        cands = CandidateGains(CovState.empty(model), Xc, spend(model, 30))
        for action in actions[:20]:
            cands.append(action)
        assert_fold_matches(cands, y[:20])
        refit = model.scaled(2.0, 0.5)
        cands.reset(CovState.build(refit, cands.state.X, cands.state.fids))
        assert_fold_matches(cands, y[:20])
        for action in actions[20:]:
            cands.append(action)
        assert_fold_matches(cands, y)

    def test_a_call_after_a_rebuilt_factor(self, three_fid_model, rng):
        model = failing_model(three_fid_model)
        Xc = np.vstack([rng.uniform(-1, 1, size=(20, 2)), XA + 0.03, XB + 0.03])
        actions = [Action(x=x, fidelity=f) for x, f in FAILING]
        actions += [Action(x=x, fidelity=2) for x in rng.uniform(-1, 1, size=(6, 2))]
        y = smooth_values(actions)
        cands = CandidateGains(CovState.empty(model), Xc, spend(model, len(actions)))
        for t, action in enumerate(actions, 1):
            cands.append(action)
            assert_fold_matches(cands, y[:t])
        assert cands.recomputes[JOINT_FAILED] == cands.recomputes[ERROR_FAILED] == 1

    def test_a_changed_earlier_value_is_folded_afresh(self, three_fid_model, rng):
        model = three_fid_model
        Xc = rng.uniform(-1, 1, size=(30, 2))
        actions = random_chain(rng, model, 25)
        y = smooth_values(actions)
        cands = CandidateGains(CovState.empty(model), Xc, spend(model, 25))
        for action in actions[:15]:
            cands.append(action)
        assert_fold_matches(cands, y[:15])
        changed = y[:15].copy()
        changed[4] += 1.0
        assert_fold_matches(cands, changed)
        assert_fold_matches(cands, y[:15])
        for action in actions[15:]:
            cands.append(action)
        changed = y.copy()
        changed[17] -= 1.0
        assert_fold_matches(cands, changed)
        assert_fold_matches(cands, y)


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
        gains = CandidateGains(CovState.empty(model), Xc, spend(model, 800))
        y = []
        for t in range(1, 801):
            g = gains.gains()
            lev = max(g, key=lambda l: g[l].max() / model.costs[l - 1])
            a = Action(x=Xc[int(np.argmax(g[lev]))], fidelity=lev)
            gains.append(a)
            y.append(problem.evaluate(a, rng))
            if t not in (200, 400, 800):
                continue
            # measured: 2e-15 (L), 2e-14 (gains), 2e-16 (variance), 5e-15
            # (folded mean against a fresh solve, |mean| about 2), 7e-15
            # (against a rebuilt state), so each tolerance leaves 100x
            state = gains.state
            L, _ = chol_factor(_joint_sym(model, state.X, state.fids))
            assert np.max(np.abs(state.L - L)) < 1e-12
            got, want = gains.gains(), CandidateGains(state, Xc).gains()
            for lev in want:
                assert np.max(np.abs(got[lev] - want[lev])) < 1e-10
            mean, var = gains.posterior(y)
            mean_o, var_o = predict_latent_diag(state, y, Xc)
            assert np.max(np.abs(mean - mean_o)) < MEAN_TOL
            assert np.max(np.abs(var - var_o)) < 1e-10
            fresh = CovState.build(model, state.X, state.fids)
            mean_f, var_f = predict_latent_diag(fresh, y, Xc)
            assert np.max(np.abs(mean - mean_f)) < 1e-10
            assert np.max(np.abs(var - var_f)) < 1e-10
        assert gains.recomputes[JOINT_FAILED] == gains.recomputes[ERROR_FAILED] == 0


class TestCovState:
    def test_append_matches_the_joint_cross_column(self, three_fid_model, rng):
        """Each append equals append_via_joint_cross bit for bit. Its joint
        cross column is the last column of _joint_sym over the points with
        the new one stacked last, K[:-1, -1]."""
        # failing_model's chain: the first point, a failed joint extension,
        # a fidelity's first point, a failed error extension, then points
        # at every fidelity
        model = failing_model(three_fid_model)
        chain = [Action(x=x, fidelity=f) for x, f in FAILING]
        chain += [Action(x=rng.uniform(-1, 1, size=2), fidelity=t % model.m + 1)
                  for t in range(18)]
        state = want = CovState.empty(model)
        seen = []
        for action in chain:
            state, want = state.append(action), append_via_joint_cross(want, action)
            seen.append((state.rebuilt, action.fidelity))
            assert state.rebuilt == want.rebuilt
            assert np.array_equal(state.X, want.X) and np.array_equal(state.fids, want.fids)
            assert np.array_equal(state.L, want.L) and state.jit == want.jit
            assert sorted(state.err) == sorted(want.err)
            for lev, ef in want.err.items():
                got = state.err[lev]
                assert np.array_equal(got.idx, ef.idx)
                assert np.array_equal(got.L, ef.L) and got.jit == ef.jit
        assert seen[:4] == [(None, 3), (JOINT_FAILED, 3), (FIRST_POINT, 1), (ERROR_FAILED, 1)]
        assert (FIRST_POINT, 2) in seen
        assert set(state.fids.tolist()) == {1, 2, 3}

    @pytest.mark.parametrize("name, X, fids, message", [
        ("currin2", np.zeros((3, 2)), [1], r"fids must hold one fidelity per point"),
        ("currin2", np.zeros((3, 2)), np.ones((3, 1)), r"fids must hold one fidelity"),
        ("currin2", np.zeros(2), [2], r"X must be an \(n, 2\) matrix"),
        ("hartmann6", np.zeros((6, 4)), [1, 2, 3, 4], r"X must be an \(n, 6\) matrix"),
    ])
    def test_build_rejects_misshapen_points(self, name, X, fids, message):
        with pytest.raises(ValueError, match=message):
            CovState.build(make_problem(name).model, X, fids)

    @pytest.mark.parametrize("rebuilt", [None, JOINT_FAILED])
    def test_build_with_no_points_is_empty(self, three_fid_model, rebuilt):
        empty = CovState.empty(three_fid_model)
        state = CovState.build(three_fid_model, np.zeros((0, 2)), [], rebuilt)
        assert state.X.shape == empty.X.shape == (0, 2)
        assert state.fids.shape == empty.fids.shape == (0,)
        assert state.L.shape == empty.L.shape == (0, 0)
        assert state.jit == empty.jit == 0.0 and state.err == empty.err == {}
        assert state.rebuilt is rebuilt
        a = act([0.2, -0.4], 1)
        assert np.array_equal(state.append(a).L, empty.append(a).L)

    @pytest.mark.parametrize("diag", [0.37, 2.0, 1e-300])
    def test_extend_an_empty_factor(self, diag):
        L = _extend_chol(np.zeros((0, 0)), np.zeros(0), diag)
        assert L.shape == (1, 1) and L[0, 0] == np.sqrt(diag)

    @pytest.mark.parametrize("diag", [0.0, -1.0, np.nan])
    def test_extend_an_empty_factor_refuses_a_non_positive_pivot(self, diag):
        assert _extend_chol(np.zeros((0, 0)), np.zeros(0), diag) is None

    def test_incremental_matches_rebuild(self, three_fid_model, rng):
        state, y = random_observations(rng, three_fid_model, 30)  # extended row by row
        rebuilt = CovState.build(three_fid_model, state.X, state.fids)
        def logdet(s):
            return 2.0 * float(np.sum(np.log(np.diag(s.L))))

        assert logdet(state) == pytest.approx(logdet(rebuilt), abs=1e-10)
        Xq = rng.uniform(-1, 1, size=(4, 2))
        m1, v1 = predict_latent_diag(state, y, Xq)
        m2, v2 = predict_latent_diag(rebuilt, y, Xq)
        assert np.allclose(m1, m2, atol=1e-8)
        assert np.allclose(v1, v2, atol=1e-8)

    def test_order_invariance(self, two_fid_model, rng):
        X = rng.uniform(-1, 1, size=(6, 1))
        fids = rng.integers(1, 3, size=6)
        y = rng.standard_normal(6)
        perm = rng.permutation(6)
        s1 = CovState.build(two_fid_model, X, fids)
        s2 = CovState.build(two_fid_model, X[perm], fids[perm])
        Xq = rng.uniform(-1, 1, size=(5, 1))
        m1, v1 = predict_latent_diag(s1, y, Xq)
        m2, v2 = predict_latent_diag(s2, y[perm], Xq)
        assert np.allclose(m1, m2, atol=1e-8)
        assert np.allclose(v1, v2, atol=1e-8)


class TestAppend:
    """Appends to a CandidateGains advance its state as CovState.append
    does, and its posterior then needs one value per observed point."""

    def test_equals_cov_state_append_and_needs_one_value_per_point(self, two_fid_model, rng):
        state, y = random_observations(rng, two_fid_model, 4)
        new = [Action(x=np.array([0.3]), fidelity=1), Action(x=np.array([-0.2]), fidelity=2)]
        y_new = np.append(y, [0.5, 1.5])
        Xc = rng.uniform(-1, 1, size=(5, 1))
        gains = CandidateGains(state, Xc, spend(two_fid_model, 2))
        for a in new:
            gains.append(a)
        updated = state.append(new[0]).append(new[1])
        assert np.array_equal(gains.state.X, updated.X)
        assert np.array_equal(gains.state.fids, updated.fids)
        assert np.array_equal(gains.state.L, updated.L)
        mean, var = gains.posterior(y_new)
        mean_u, var_u = predict_latent_diag(updated, y_new, Xc)
        assert np.allclose(mean, mean_u, atol=1e-10)
        assert np.allclose(var, var_u, atol=1e-10)
        with pytest.raises(ValueError, match="5 values for 6 observed points"):
            gains.posterior(y_new[:5])
        with pytest.raises(ValueError, match="4 values for 6 observed points"):
            gains.posterior(y)


class TestRowBlocks:
    """Each compute sizes the projections' blocks once, from the budget
    left: an append writes its row in place, and one past the capacity is
    refused."""

    def test_an_append_writes_the_formulas_bits_up_to_a_full_block(self, rng):
        n, nc, extra = 5, 40, 3
        A = rng.standard_normal((n + extra, n + extra))
        L = np.linalg.cholesky(A @ A.T + (n + extra) * np.eye(n + extra))
        rows = _Rows(L[:n, :n], np.asfortranarray(rng.standard_normal((n, nc))), n + extra)
        buf = rows.buf
        for k in range(n, n + extra):
            c, w, d = rng.standard_normal(nc), L[k, :k], L[k, k]
            want = (c - w @ rows.rows) / d
            want_sq = rows.sq + want * want
            rows.append(c, w, d)
            assert np.array_equal(rows.rows[-1], want) and np.array_equal(rows.sq, want_sq)
        assert rows.n == n + extra and rows.buf is buf and buf.shape == (n + extra, nc)

    def test_each_compute_sizes_the_blocks_from_the_budget_left(self, two_fid_model, rng):
        # costs 1 and 3: with no low-fidelity point only a target query
        # extends the blocks, and a first fidelity-1 point computes them afresh
        Xc = rng.uniform(-1, 1, size=(6, 1))
        gains = CandidateGains(CovState.empty(two_fid_model), Xc, 9.0)
        assert gains.capacity == 0 + 3 + 1
        gains.append(act(0.3, 1))
        assert gains.capacity == 1 + 8 + 1
        blocks = gains._wf.buf
        gains.append(act(-0.2, 2))
        assert gains.capacity == 10 and gains._wf.buf is blocks and gains.budget == 5.0

    def test_an_append_past_the_capacity_leaves_the_state(self, two_fid_model, rng):
        # 2.0 buys two points at the cheapest cost, and the capacity one more
        state, _ = random_observations(rng, two_fid_model, 4)
        Xc = rng.uniform(-1, 1, size=(6, 1))
        gains = CandidateGains(state, Xc, 2.0)
        assert gains.capacity == 7
        for x in (0.3, -0.2, 0.5):
            gains.append(act(x, 1))
        full, want = gains.state, gains.gains()
        with pytest.raises(RuntimeError, match="past the 7 points"):
            gains.append(act(0.1, 2))
        assert gains.state is full
        for lev, g in gains.gains().items():
            assert np.array_equal(g, want[lev])
        # without a budget, the blocks hold the state's points only
        with pytest.raises(RuntimeError, match="past the 4 points"):
            CandidateGains(state, Xc).append(act(0.1, 2))

    def test_an_overspent_budget_leaves_no_room(self, three_fid_model, rng):
        # 0.5 left pays for no point, but one more may be appended; a first
        # fidelity-2 point then overspends by more than the cheapest cost
        Xc = rng.uniform(-1, 1, size=(6, 2))
        state = CovState.empty(three_fid_model).append(Action(x=np.zeros(2), fidelity=1))
        gains = CandidateGains(state, Xc, 0.5)
        assert gains.capacity == 2
        gains.append(Action(x=np.ones(2), fidelity=2))
        assert gains.budget == -1.5 and gains.capacity == gains.state.n == 2
        with pytest.raises(RuntimeError, match="past the 2 points"):
            gains.append(Action(x=np.ones(2), fidelity=1))


class TestHyperFit:
    def test_grid_of_one_returns_it(self, two_fid_model, rng):
        state, y = random_observations(rng, two_fid_model, 3)
        assert fit_hyperparameters(state, y, (two_fid_model,)) is two_fid_model

    def test_empty_grid_keeps_the_model(self, two_fid_model, rng):
        state, y = random_observations(rng, two_fid_model, 3)
        with pytest.warns(UserWarning, match="failed at every grid point"):
            assert fit_hyperparameters(state, y, ()) is two_fid_model

    def test_argmax_property(self, two_fid_model, rng):
        state, y = random_observations(rng, two_fid_model, 5)
        grid = default_hyper_grid(two_fid_model)
        best = fit_hyperparameters(state, y, grid)
        best_lml = log_marginal_likelihood(best, state.X, state.fids, y)
        for m in grid:
            assert best_lml >= log_marginal_likelihood(m, state.X, state.fids, y) - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_recovers_generating_gridpoint(self, seed):
        # self-consistency: near-noiseless data drawn from one grid model
        # fit back to that model; 80 points over 20 of its lengthscales
        # pin it at every seed (50 over 5 picked a neighbour at some)
        rng = np.random.default_rng(seed)
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.4])), 1e-6)
        e = GpPrior(SquaredExpKernel(signal_variance=0.25, lengthscales=np.array([0.6])), 1e-6)
        base = FidelityModel(target_prior=t, error_priors=(e,), costs=np.array([1.0, 3.0]))
        grid = default_hyper_grid(base)
        gen = grid[7]
        kern = gen.target_prior.kernel
        assert kern.lengthscales.tolist() == [0.2]
        X = rng.uniform(-2, 2, size=(80, 1))
        K = kern.cross(X, X) + 1e-6 * np.eye(80)
        y = np.linalg.cholesky(K) @ rng.standard_normal(80)
        state = CovState.build(gen, X, np.full(80, 2))
        best = fit_hyperparameters(state, y, grid)
        assert best is gen

    def test_rejects_a_wrong_number_of_values(self, two_fid_model, rng):
        state, y = random_observations(rng, two_fid_model, 5)
        with pytest.raises(ValueError, match="1 values for 5 observed points"):
            log_marginal_likelihood(two_fid_model, state.X, state.fids, [0.3])
        with pytest.raises(ValueError, match="1 values for 5 observed points"):
            fit_hyperparameters(state, [0.3], default_hyper_grid(two_fid_model))

    @pytest.mark.parametrize("name, X, fids, message", [
        ("hartmann6", np.zeros((6, 4)), [1, 2, 3, 4], r"X must be an \(n, 6\) matrix"),
        ("currin2", np.zeros(6), [1, 2, 2], r"X must be an \(n, 2\) matrix"),
        ("currin2", np.zeros((3, 2)), np.ones((3, 1)), r"fids must hold one fidelity"),
        ("currin2", np.zeros((3, 2)), [1, 2, 2, 1], r"fids must hold one fidelity"),
    ])
    def test_likelihood_rejects_misshapen_points(self, name, X, fids, message):
        y = np.linspace(0.0, 1.0, np.size(fids))
        with pytest.raises(ValueError, match=message):
            log_marginal_likelihood(make_problem(name).model, X, fids, y)

    def test_rejects_non_finite_values(self, two_fid_model, rng):
        state, y = random_observations(rng, two_fid_model, 5)
        grid = default_hyper_grid(two_fid_model)
        for bad in (np.nan, np.inf):
            wrong = y.copy()
            wrong[-1] = bad
            with pytest.raises(ValueError, match="observed values must be finite"):
                log_marginal_likelihood(two_fid_model, state.X, state.fids, wrong)
            with pytest.raises(ValueError, match="observed values must be finite"):
                fit_hyperparameters(state, wrong, grid)

    def test_rejects_no_values_at_observed_points(self, two_fid_model, rng):
        state, _ = random_observations(rng, two_fid_model, 5)
        with pytest.raises(ValueError, match="0 values for 5 observed points"):
            fit_hyperparameters(state, [], default_hyper_grid(two_fid_model))

    def test_skips_a_grid_point_that_cannot_be_factorized(self):
        # a repeated noiseless point makes K singular; at signal variance
        # 1e20 the largest jitter is lost to rounding and Cholesky fails
        def target_only(sv):
            prior = GpPrior(SquaredExpKernel(sv, np.array([0.5])), noise_variance=0.0)
            return FidelityModel(target_prior=prior, error_priors=(), costs=np.array([1.0]))

        grid = tuple(target_only(sv) for sv in (1.0, 1e20, 0.5, 2.0))
        X, fids, y = np.array([[0.1], [0.1], [0.6]]), np.ones(3, dtype=np.int64), [0.2, 0.2, -0.4]
        state = CovState.build(grid[0], X, fids)
        with pytest.raises(NumericalError):
            log_marginal_likelihood(grid[1], X, fids, y)
        rest = [0, 2, 3]
        best = max(rest, key=lambda i: log_marginal_likelihood(grid[i], X, fids, y))
        assert best != 0
        assert fit_hyperparameters(state, y, grid) is grid[best]
        with pytest.warns(UserWarning, match="failed at every grid point"):
            assert fit_hyperparameters(state, y, grid[1:2]) is grid[0]

    @pytest.mark.parametrize("grid_kind", ["default", "reversed", "one_error_lengthscale"])
    def test_shared_blocks_give_the_memo_free_pick(self, three_fid_model, grid_kind):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(12, 2))
        fids = np.tile([1, 2, 3], 4)
        y = rng.standard_normal(12)
        state = CovState.build(three_fid_model, X, fids)
        if grid_kind == "one_error_lengthscale":
            errs = three_fid_model.error_priors
            grid = tuple(
                replace(three_fid_model, error_priors=(
                    errs[0],
                    replace(errs[1], kernel=errs[1].kernel.scaled(f, 1.0)),
                ))
                for f in (0.3, 0.6, 1.0, 1.7, 3.0)
            )
        else:
            grid = default_hyper_grid(three_fid_model)
            if grid_kind == "reversed":
                grid = grid[::-1]
        memo = {}
        for m in grid:
            assert np.array_equal(_joint_sym(m, X, fids, memo), _joint_sym(m, X, fids))
        memo = {}
        shared = [log_marginal_likelihood(m, X, fids, y, memo) for m in grid]
        alone = [log_marginal_likelihood(m, X, fids, y) for m in grid]
        assert shared == alone
        assert len(set(alone)) == len(grid)
        assert fit_hyperparameters(state, y, grid) is grid[int(np.argmax(alone))]

    def test_default_grid_size(self, two_fid_model):
        grid = default_hyper_grid(two_fid_model)
        assert len(grid) == 25

    def test_default_grid_scales_every_kernel_by_the_multiplier_products(self, three_fid_model):
        # lengthscale multiplier outer, signal-variance multiplier inner; noise,
        # means and costs stay the model's
        factors = [0.25, 0.5, 1.0, 2.0, 4.0]
        grid = default_hyper_grid(three_fid_model)
        assert len(grid) == len(factors) ** 2
        base = (three_fid_model.target_prior,) + three_fid_model.error_priors
        for k, model in enumerate(grid):
            a, b = factors[k // 5], factors[k % 5]
            priors = (model.target_prior,) + model.error_priors
            assert len(priors) == len(base)
            for p, p0 in zip(priors, base):
                assert p.kernel.lengthscales == pytest.approx(a * p0.kernel.lengthscales,
                                                              rel=1e-15)
                assert p.kernel.signal_variance == pytest.approx(b * p0.kernel.signal_variance,
                                                                 rel=1e-15)
                assert (p.noise_variance, p.mean) == (p0.noise_variance, p0.mean)
            assert np.array_equal(model.costs, three_fid_model.costs)

    def test_a_refit_that_keeps_the_prior_returns_the_model_itself(self):
        # near-noiseless data drawn from the model at 80 points spread over
        # 20 lengthscales picks the grid's middle entry (at every seed 0-9),
        # so the refit hands back the model and its factors stay
        rng = np.random.default_rng(0)
        t = GpPrior(SquaredExpKernel(signal_variance=1.0, lengthscales=np.array([0.4])), 1e-6)
        e = GpPrior(SquaredExpKernel(signal_variance=0.25, lengthscales=np.array([0.6])), 1e-6)
        model = FidelityModel(target_prior=t, error_priors=(e,), costs=np.array([1.0, 3.0]))
        X = rng.uniform(-4, 4, size=(80, 1))
        K = t.kernel.cross(X, X) + 1e-6 * np.eye(80)
        y = np.linalg.cholesky(K) @ rng.standard_normal(80)
        state = CovState.build(model, X, np.full(80, 2))
        assert fit_hyperparameters(state, y, default_hyper_grid(model)) is model
