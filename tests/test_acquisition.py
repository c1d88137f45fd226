import numpy as np
import pytest

from mfbo.acquisition import (
    CandidateSet,
    UcbSchedule,
    default_candidate_count,
    gp_mi_select,
    gp_ucb_select,
    make_candidates,
)


class TestCandidateSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CandidateSet(points=np.empty((0, 2)))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            CandidateSet(points=np.zeros(5))

    def test_make_candidates_within_bounds(self):
        bounds = np.array([[-2.0, 1.0], [0.0, 5.0]])
        cs = make_candidates(bounds, 200, seed=3)
        assert cs.n == 200 and cs.dim == 2
        assert np.all(cs.points >= bounds[:, 0]) and np.all(cs.points <= bounds[:, 1])

    def test_make_candidates_deterministic(self):
        bounds = np.array([[0.0, 1.0]])
        a = make_candidates(bounds, 50, seed=9)
        b = make_candidates(bounds, 50, seed=9)
        assert np.array_equal(a.points, b.points)
        c = make_candidates(bounds, 50, seed=10)
        assert not np.array_equal(a.points, c.points)

    def test_default_counts(self):
        assert default_candidate_count(1) == 1000
        assert default_candidate_count(2) == 1000
        assert default_candidate_count(3) == 5000
        assert make_candidates(np.array([[0.0, 1.0]] * 6), None, seed=0).n == 5000


class TestUcbSchedule:
    def test_delta_range(self):
        with pytest.raises(ValueError):
            UcbSchedule(delta=0.0)
        with pytest.raises(ValueError):
            UcbSchedule(delta=1.0)

    def test_beta_formula(self):
        sched = UcbSchedule(delta=0.1)
        n, t = 1000, 3
        expect = 2.0 * np.log(n * t**2 * np.pi**2 / (6.0 * 0.1))
        assert sched.beta(t, n) == pytest.approx(expect, rel=1e-15)

    def test_beta_grows_with_t(self):
        sched = UcbSchedule(delta=0.1)
        bs = [sched.beta(t, 100) for t in (1, 2, 5, 10)]
        assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            UcbSchedule(delta=0.1).beta(0, 10)


class TestGpUcbSelect:
    def test_zero_variance_is_pure_exploitation(self):
        mean = np.array([0.1, 0.9, 0.4])
        idx = gp_ucb_select(mean, np.zeros(3), UcbSchedule(delta=0.1), t=1)
        assert idx == 1

    def test_equal_means_prefer_wider(self):
        var = np.array([0.1, 0.1, 0.5, 0.1])
        idx = gp_ucb_select(np.zeros(4), var, UcbSchedule(delta=0.1), t=1)
        assert idx == 2

    def test_five_candidate_oracle(self):
        mean = np.array([0.2, -0.1, 0.55, 0.3, 0.0])
        var = np.array([0.04, 0.36, 0.0, 0.09, 0.25])
        sched = UcbSchedule(delta=0.1)
        beta = sched.beta(1, 5)
        scores = mean + np.sqrt(beta) * np.sqrt(var)
        assert gp_ucb_select(mean, var, sched, t=1) == int(np.argmax(scores))

    def test_tie_breaks_to_lowest_index(self):
        mean = np.array([1.0, 1.0, 1.0])
        assert gp_ucb_select(mean, np.zeros(3), UcbSchedule(delta=0.1), t=2) == 0

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        mean = rng.standard_normal(20)
        var = rng.uniform(0, 1, 20)
        i0 = gp_ucb_select(mean, var, UcbSchedule(delta=0.1), t=4)
        i1 = gp_ucb_select(mean + 13.7, var, UcbSchedule(delta=0.1), t=4)
        assert i0 == i1

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        mean = rng.standard_normal(30)
        var = rng.uniform(0, 1, 30)
        picks = {gp_ucb_select(mean, var, UcbSchedule(delta=0.1), t=2) for _ in range(5)}
        assert len(picks) == 1

    def test_selection_in_range(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 15))
            idx = gp_ucb_select(rng.standard_normal(n), rng.uniform(0, 1, n),
                                UcbSchedule(delta=0.1), t=1)
            assert 0 <= idx < n

    def test_empty_candidates_error(self):
        with pytest.raises(ValueError):
            gp_ucb_select(np.array([]), np.array([]), UcbSchedule(delta=0.1), t=1)


class TestGpMiSelect:
    def test_zero_gamma_reduces_to_ucb_like_score(self):
        mean = np.array([0.0, 0.2, -0.3])
        var = np.array([0.5, 0.1, 0.9])
        alpha = 2.0
        idx, gamma = gp_mi_select(mean, var, 0.0, alpha)
        scores = mean + np.sqrt(alpha) * np.sqrt(var)
        assert idx == int(np.argmax(scores))
        assert gamma == pytest.approx(var[idx])

    def test_zero_variance_keeps_gamma(self):
        mean = np.array([0.4, -0.2, 0.7])
        idx, gamma = gp_mi_select(mean, np.zeros(3), 0.35, 3.0)
        assert idx == 2
        assert gamma == pytest.approx(0.35)

    def test_four_candidate_oracle(self):
        mean = np.array([0.1, 0.6, -0.2, 0.45])
        var = np.array([0.8, 0.05, 1.2, 0.3])
        gamma, alpha = 0.4, 2.99
        bonus = np.sqrt(var + gamma) - np.sqrt(gamma)
        scores = mean + np.sqrt(alpha) * bonus
        idx, new_gamma = gp_mi_select(mean, var, gamma, alpha)
        assert idx == int(np.argmax(scores))
        assert new_gamma == pytest.approx(gamma + var[idx])

    def test_gamma_accumulates_and_damps_exploration(self):
        mean = np.zeros(2)
        var = np.array([1.0, 0.99])
        gamma = 0.0
        for _ in range(4):
            idx, gamma = gp_mi_select(mean, var, gamma, 4.0)
            assert idx == 0
        assert gamma == pytest.approx(4.0)
        # the same variance gap earns a smaller bonus once gamma has grown
        b0 = np.sqrt(1.0 + 0.0) - 0.0
        b4 = np.sqrt(1.0 + 4.0) - 2.0
        assert b4 < b0

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            gp_mi_select(np.zeros(2), np.ones(2), -0.1, 1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(21)
        mean = rng.standard_normal(12)
        var = rng.uniform(0, 2, 12)
        i0, _ = gp_mi_select(mean, var, 0.7, 2.0)
        i1, _ = gp_mi_select(mean - 4.2, var, 0.7, 2.0)
        assert i0 == i1
