"""End-to-end acceptance checks, runnable via `mfbo verify` or pytest.

Each criterion is a function returning (passed, detail). Where an
independent oracle exists it is the dumbest correct method available
(dense inverses, exhaustive enumeration, direct recomputation from trace
rows). Criteria 2, 3 and 5 instead check identities between library
functions: the chain rule ties CandidateGains.gains to info_gain_set, the
m=1 model's CandidateGains.posterior to the plain GP posterior, and each
exploration set to its certificate. The heavyweight currin2 experiment is
memoized per process so the criteria that share it (6 to 9) pay for it
once.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .acquisition import make_candidates
from .benchmarks import BenchmarkProblem, make_problem, single_fidelity_problem
from .explore import alpha_budget, explore_lf
from .gp import GpPrior, SquaredExpKernel, posterior
from .harness import ExperimentConfig, run_experiment, summarize, checkpoint_costs
from .model import (
    Action,
    CandidateGains,
    FidelityModel,
    History,
    Observation,
    info_gain_set,
)
from .policy import PolicyConfig, mf_mi_greedy, sf_only, trace_records
from .regret import cumulative_regret_at, decompose_regret
from .submodular import GroundSet, KS_GUARANTEE, brute_force_knapsack, check_ratio_monotone, gamma_max_bound, greedy_knapsack

_CACHE: dict = {}


# ---------------------------------------------------------------------------
# shared fixtures

def make_toy_problem() -> BenchmarkProblem:
    """Small 2-fidelity 1-d problem used by the exploration criteria.

    Target f(x) = sin(6x) + x/2 on [0,1]; the low fidelity adds a smooth
    cosine disturbance of amplitude 0.3. The optimum is the interior
    stationary point 6x = arccos(-1/12), computed in closed form.
    """
    bounds = np.array([[0.0, 1.0]])
    amp = 0.3

    def f(X):
        return np.sin(6.0 * X[:, 0]) + 0.5 * X[:, 0]

    def u1(X):
        return f(X) + amp * np.cos(4.0 * np.pi * X[:, 0])

    x_star = float(np.arccos(-1.0 / 12.0)) / 6.0
    f_star = float(np.sqrt(1.0 - 1.0 / 144.0) + 0.5 * x_star)
    noise_sd = np.array([0.05, 0.1])
    grid = np.linspace(0.0, 1.0, 512)[:, None]
    fs = f(grid)
    target_prior = GpPrior(
        SquaredExpKernel(signal_variance=float(np.var(fs)), lengthscales=np.array([0.2])),
        noise_variance=float(noise_sd[1] ** 2),
        mean=float(np.mean(fs)),
    )
    error_prior = GpPrior(
        SquaredExpKernel(signal_variance=amp * amp / 2.0, lengthscales=np.array([0.5])),
        noise_variance=float(noise_sd[0] ** 2),
    )
    model = FidelityModel(
        target_prior=target_prior, error_priors=(error_prior,), costs=np.array([1.0, 3.0])
    )
    return BenchmarkProblem(
        name="toy1d",
        bounds=bounds,
        fidelity_fns=(u1, f),
        noise_sd=noise_sd,
        f_star=f_star,
        x_star=np.array([x_star]),
        model=model,
    )


def currin_experiment():
    """The criterion-8 experiment (3 policies x 20 seeds), memoized."""
    if "currin" not in _CACHE:
        with tempfile.TemporaryDirectory(prefix="mfbo-verify-currin-") as out:
            cfg = ExperimentConfig(
                problem="currin2", budget_mult=100.0, n_seeds=20, master_seed=0, out_dir=out
            )
            start = time.perf_counter()
            result = run_experiment(cfg)
            _CACHE["currin"] = (result, time.perf_counter() - start)
    return _CACHE["currin"]


def m1_traces():
    """mf_mi_greedy and sf_only on the single-fidelity currin2 view."""
    if "m1" not in _CACHE:
        prob = single_fidelity_problem(make_problem("currin2", noise=0.05, seed=0))
        budget = 100.0 * prob.model.target_cost
        mf = mf_mi_greedy(prob, budget, PolicyConfig(), seed=424242)
        sf = sf_only(prob, budget, PolicyConfig(), seed=424242)
        _CACHE["m1"] = (prob, mf, sf)
    return _CACHE["m1"]


def _random_kernel(rng, d: int) -> SquaredExpKernel:
    return SquaredExpKernel(
        signal_variance=float(rng.uniform(0.3, 3.0)),
        lengthscales=rng.uniform(0.3, 2.0, size=d),
    )


def _random_model(rng, m: int, d: int) -> FidelityModel:
    target = GpPrior(
        _random_kernel(rng, d),
        noise_variance=float(rng.uniform(1e-4, 0.3)),
        mean=float(rng.uniform(-1.0, 1.0)),
    )
    errors = tuple(
        GpPrior(_random_kernel(rng, d), noise_variance=float(rng.uniform(1e-4, 0.3)))
        for _ in range(m - 1)
    )
    return FidelityModel(
        target_prior=target, error_priors=errors, costs=rng.uniform(0.5, 2.0, size=m)
    )


def _random_history(rng, model: FidelityModel, n: int) -> History:
    hist = History.empty(model)
    for _ in range(n):
        a = Action(x=rng.uniform(-1.0, 1.0, size=model.dim), fidelity=int(rng.integers(1, model.m + 1)))
        hist = hist.update(Observation(a, float(rng.standard_normal())))
    return hist


# ---------------------------------------------------------------------------
# criteria

def criterion_gp_oracle():
    """Posterior mean/cov vs a dense explicit-inverse oracle, 100 instances."""
    rng = np.random.default_rng(20240601)
    start = time.perf_counter()
    worst = 0.0

    def dense(kern, Xa, Xb):
        diff = Xa[:, None, :] - Xb[None, :, :]
        return kern.signal_variance * np.exp(
            -0.5 * np.sum((diff / kern.lengthscales) ** 2, axis=2)
        )

    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 9))
        nq = int(rng.integers(1, 7))
        prior = GpPrior(
            _random_kernel(rng, d),
            noise_variance=float(rng.uniform(1e-4, 0.5)),
            mean=float(rng.uniform(-1.0, 1.0)),
        )
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        y = rng.standard_normal(n) * 1.5
        Xq = rng.uniform(-1.0, 1.0, size=(nq, d))

        mean, cov = posterior(prior, X, y, Xq)

        K = dense(prior.kernel, X, X) + prior.noise_variance * np.eye(n)
        Kinv = np.linalg.inv(K)
        Ks = dense(prior.kernel, Xq, X)
        mean0 = prior.mean_at(Xq) + Ks @ Kinv @ (y - prior.mean_at(X))
        cov0 = dense(prior.kernel, Xq, Xq) - Ks @ Kinv @ Ks.T

        worst = max(worst, float(np.max(np.abs(mean - mean0))), float(np.max(np.abs(cov - cov0))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    return ok, "max abs err %.3g (tol 1e-8), %.2fs (limit 5s)" % (worst, elapsed)


def _single_gain(hist: History, a: Action) -> float:
    """The gain Explore-LF ranks a by: CandidateGains at one point."""
    return float(CandidateGains(hist.cov, a.x[None, :]).gains()[a.fidelity][0])


def criterion_chain_rule():
    """I(y_ab; f) = I(y_a; f) + I(y_b; f | y_a) on 100 2-action instances.

    The single-action terms come from CandidateGains, the joint term from
    info_gain_set's joint entropies, so the check ties the function
    Explore-LF ranks by to the certificate it reports.
    """
    rng = np.random.default_rng(20240602)
    start = time.perf_counter()
    worst = 0.0
    min_gain = np.inf
    for _ in range(100):
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        model = _random_model(rng, m, d)
        hist = _random_history(rng, model, int(rng.integers(0, 5)))
        a = Action(x=rng.uniform(-1.0, 1.0, size=d), fidelity=int(rng.integers(1, m + 1)))
        b = Action(x=rng.uniform(-1.0, 1.0, size=d), fidelity=int(rng.integers(1, m + 1)))

        joint = info_gain_set(hist, (a, b))
        g_a = _single_gain(hist, a)
        hist_a = hist.update(Observation(a, 0.0))  # gains ignore the value
        g_b = _single_gain(hist_a, b)

        worst = max(worst, abs(joint - (g_a + g_b)))
        min_gain = min(min_gain, joint, g_a, g_b)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and min_gain >= -1e-10 and elapsed < 10.0
    return ok, "max chain gap %.3g (tol 1e-8), min gain %.3g, %.2fs (limit 10s)" % (
        worst, min_gain, elapsed)


def criterion_additive_consistency():
    """With m=1 and target-only data, the posterior every run reads
    (CandidateGains.posterior) == the plain GP posterior's mean and
    diagonal."""
    rng = np.random.default_rng(20240603)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 3))
        prior = GpPrior(
            _random_kernel(rng, d),
            noise_variance=float(rng.uniform(1e-4, 0.3)),
            mean=float(rng.uniform(-1.0, 1.0)),
        )
        model = FidelityModel(target_prior=prior, error_priors=(), costs=np.array([1.0]))
        n = int(rng.integers(0, 9))
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        y = rng.standard_normal(n)
        hist = History.empty(model)
        for i in range(n):
            hist = hist.update(Observation(Action(x=X[i], fidelity=1), float(y[i])))
        Xq = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 6)), d))

        mean1, var1 = CandidateGains(hist.cov, Xq).posterior(hist)
        mean0, cov0 = posterior(prior, X, y, Xq)
        worst = max(worst, float(np.max(np.abs(mean1 - mean0))),
                    float(np.max(np.abs(var1 - np.diag(cov0)))))
    ok = worst <= 1e-10
    return ok, "max abs err %.3g (tol 1e-10) over 50 instances" % worst


def criterion_submodular():
    """Greedy knapsack vs exhaustive OPT and the ratio-monotone inequality."""
    rng = np.random.default_rng(20240604)
    start = time.perf_counter()
    worst_ratio = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 11))
        universe = int(rng.integers(1, 13))
        weights = rng.uniform(0.0, 2.0, size=universe)
        covers = [frozenset(np.flatnonzero(rng.random(universe) < 0.4)) for _ in range(n)]
        costs = rng.uniform(0.5, 3.0, size=n)

        def utility(items, covers=covers, weights=weights):
            covered = frozenset().union(*(covers[i] for i in items)) if items else frozenset()
            return float(sum(weights[e] for e in covered))

        ground = GroundSet(costs=costs, utility=utility)
        total = float(costs.sum())
        budget = float(rng.uniform(0.5, total))
        _, g_val = greedy_knapsack(ground, budget)
        _, opt = brute_force_knapsack(ground, budget)
        if opt > 0:
            worst_ratio = min(worst_ratio, g_val / opt)
            if g_val < KS_GUARANTEE * opt - 1e-12:
                return False, "greedy %.6g < %.6g * OPT %.6g" % (g_val, KS_GUARANTEE, opt)
        b1 = float(rng.uniform(0.2, total))
        b2 = float(rng.uniform(b1, total))
        if not check_ratio_monotone(ground, b1, b2):
            return False, "ratio-monotone failed at b1=%.4g b2=%.4g" % (b1, b2)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    return ok, "worst greedy/OPT %.4f (floor %.4f), %.2fs (limit 60s)" % (
        worst_ratio, KS_GUARANTEE, elapsed)


def criterion_explore_certificate():
    """Every nonempty exploration set earns its threshold: gain/cost >= beta."""
    prob = make_toy_problem()
    model = prob.model
    lam_m = model.target_cost
    rng = np.random.default_rng(20240605)
    nonempty = 0
    for i in range(50):
        hist = History.empty(model)
        for _ in range(int(rng.integers(0, 7))):
            a = Action(x=rng.uniform(0.0, 1.0, size=1), fidelity=int(rng.integers(1, 3)))
            hist = hist.update(Observation(a, prob.evaluate(a, rng)))
        budget = float(rng.uniform(1.0, 30.0))
        cand = make_candidates(prob.bounds, 64, seed=1000 + i)
        cands = CandidateGains(hist.cov, cand.points)
        res = explore_lf(budget, PolicyConfig.alpha_exponent, cands)
        if not res.selected:
            continue
        nonempty += 1
        gain = info_gain_set(hist, res.selected)
        if abs(gain - res.cumulative_info_gain) > 1e-10:
            return False, "call %d: stored gain %.12g != joint gain %.12g" % (
                i, res.cumulative_info_gain, gain)
        if gain / res.cost < res.beta - 1e-10:
            return False, "call %d: gain/cost %.6g < beta %.6g" % (i, gain / res.cost, res.beta)
        if res.cost + lam_m > budget + 1e-12:
            return False, "call %d: cost %.6g + target %.6g > budget %.6g" % (
                i, res.cost, lam_m, budget)
        if any(a.fidelity >= model.m for a in res.selected):
            return False, "call %d selected a target-fidelity action" % i
    ok = nonempty >= 10
    return ok, "50 calls, %d nonempty, all certificates held" % nonempty


def _all_traces():
    result, _ = currin_experiment()
    traces = [(o.trace, result.f_star) for o in result.outcomes if o.trace is not None]
    prob, mf1, sf1 = m1_traces()
    traces += [(mf1, prob.f_star), (sf1, prob.f_star)]
    return traces


def criterion_decomposition():
    """Regret decomposition identity and the exploration-cost certificate."""
    worst_gap = 0.0
    worst_slack = -np.inf
    for trace, f_star in _all_traces():
        parts = decompose_regret(trace, f_star)
        worst_gap = max(worst_gap, parts["gap"])
        if parts["gap"] > 1e-9:
            return False, "decomposition gap %.3g > 1e-9 (%s seed %d)" % (
                parts["gap"], trace.policy, trace.seed)
        lam_low = sum(ep.explore_cost for ep in trace.episodes)
        gains = sum(ep.explore_info_gain for ep in trace.episodes)
        bound = alpha_budget(trace.budget, PolicyConfig.alpha_exponent) * gains + 1e-6
        worst_slack = max(worst_slack, lam_low - bound)
        if lam_low > bound:
            return False, "explore cost %.6g > alpha(B)*gain %.6g (%s seed %d)" % (
                lam_low, bound, trace.policy, trace.seed)
    return True, "max identity gap %.3g (tol 1e-9), max certificate slack %.3g" % (
        worst_gap, worst_slack)


def criterion_degenerate_reduction():
    """m=1 mf_mi_greedy equals sf_only query-for-query under matched seeds."""
    _, mf, sf = m1_traces()
    rows_mf = trace_records(mf)
    rows_sf = trace_records(sf)
    if rows_mf == rows_sf and len(rows_mf) > 0:
        return True, "action logs identical (%d queries)" % len(rows_mf)
    diff = next((k for k, (a, b) in enumerate(zip(rows_mf, rows_sf)) if a != b),
                min(len(rows_mf), len(rows_sf)))
    return False, "logs differ at row %d (%d vs %d rows)" % (diff, len(rows_mf), len(rows_sf))


def criterion_relative_performance():
    """currin2, budget 100x, 20 seeds: mf <= 1.10*sf and mf <= ete on means."""
    result, elapsed = currin_experiment()
    if result.n_failed:
        return False, "%d run(s) failed" % result.n_failed
    final = {}
    for pol, c, mean, _, n in summarize(result.outcomes, result.f_star,
                                        checkpoint_costs(result.budget)):
        if c == result.budget:
            final[pol] = (mean, n)
    mf, _ = final["mf_mi_greedy"]
    ete, _ = final["explore_then_exploit"]
    sf, n = final["sf_only"]
    ok = mf <= 1.10 * sf and mf <= ete and elapsed < 200.0 and n == 20
    return ok, "mf %.4f vs 1.10*sf %.4f and ete %.4f (n=%d, %.0fs, limit 200s)" % (
        mf, 1.10 * sf, ete, n, elapsed)


def criterion_no_regret_trend():
    """Seed-mean cumulative regret per unit budget falls along checkpoints."""
    result, _ = currin_experiment()
    lam = None
    traces = []
    for o in result.outcomes:
        if o.policy == "mf_mi_greedy" and o.trace is not None:
            traces.append(o.trace)
            lam = o.trace.target_cost
    cps = np.array([25.0, 50.0, 75.0, 100.0]) * lam
    means = []
    for c in cps:
        vals = [cumulative_regret_at(tr, result.f_star, c) / c for tr in traces]
        means.append(float(np.mean(vals)))
    inversions = [(means[k + 1] - means[k]) for k in range(3) if means[k + 1] > means[k] + 1e-12]
    ok = len(inversions) == 0 or (len(inversions) == 1 and inversions[0] <= 0.02 * means[0])
    return ok, "R(c)/c at checkpoints: %s, inversions %d" % (
        ["%.4f" % v for v in means], len(inversions))


def criterion_gamma_max():
    """gamma_max upper-bounds every observed per-episode exploration gain."""
    prob = make_toy_problem()
    budget = 20.0 * prob.model.target_cost
    n_cand, cand_seed = 64, 77
    cand = make_candidates(prob.bounds, n_cand, seed=cand_seed)
    cfg = PolicyConfig(hyperfit_every=0, n_candidates=n_cand, candidate_seed=cand_seed)
    max_gain = -np.inf
    betas = []
    for seed in range(20):
        trace = mf_mi_greedy(prob, budget, cfg, seed=seed)
        for ep in trace.episodes:
            if ep.explore_beta is not None:
                betas.append(ep.explore_beta)
                max_gain = max(max_gain, ep.explore_info_gain)
    bound = gamma_max_bound(prob.model, cand, budget, beta=min(betas))
    ok = bound >= max_gain - 1e-12
    return ok, "gamma_max %.4f >= max episode gain %.4f over %d episodes" % (
        bound, max_gain, len(betas))


def criterion_harness_determinism():
    """Two identical bench invocations write byte-identical CSVs."""
    from .cli import main as cli_main

    outputs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory(prefix="mfbo-verify-bench-") as out:
            rc = cli_main(["bench", "--problem", "currin2", "--seeds", "3", "--out", out])
            if rc != 0:
                return False, "bench exited with code %d" % rc
            blobs = {}
            for name in ("traces.csv", "curves.csv", "summary.csv"):
                with open(os.path.join(out, name), "rb") as fh:
                    blobs[name] = fh.read()
        outputs.append(blobs)
    for name in ("traces.csv", "curves.csv", "summary.csv"):
        if outputs[0][name] != outputs[1][name]:
            return False, "%s differs between runs" % name
    size = sum(len(b) for b in outputs[0].values())
    return True, "3 CSVs byte-identical across runs (%d bytes)" % size


CRITERIA = (
    (1, "gp posterior vs dense-inverse oracle", criterion_gp_oracle),
    (2, "information-gain chain rule", criterion_chain_rule),
    (3, "additive-model single-fidelity consistency", criterion_additive_consistency),
    (4, "submodular knapsack guarantees", criterion_submodular),
    (5, "exploration benefit-cost certificate", criterion_explore_certificate),
    (6, "regret decomposition and cost certificate", criterion_decomposition),
    (7, "m=1 reduction to single-fidelity policy", criterion_degenerate_reduction),
    (8, "currin2 relative performance", criterion_relative_performance),
    (9, "no-regret trend at budget checkpoints", criterion_no_regret_trend),
    (10, "gamma_max dominates episode gains", criterion_gamma_max),
    (11, "harness byte-level determinism", criterion_harness_determinism),
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return "criterion %2d %s %-44s %6.2fs  %s" % (r.number, status, r.name, r.seconds, r.detail)


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            start = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:
                passed, detail = False, "error: %s: %s" % (type(exc).__name__, exc)
            return CriterionResult(num, name, passed, detail, time.perf_counter() - start)
    raise ValueError("no criterion %r" % number)


def run_all(emit=print) -> bool:
    n_pass = 0
    for num, _, _ in CRITERIA:
        r = run_criterion(num)
        emit(format_result(r))
        n_pass += int(r.passed)
    emit("acceptance: %d/%d criteria passed" % (n_pass, len(CRITERIA)))
    return n_pass == len(CRITERIA)
