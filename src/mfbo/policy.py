"""Budgeted multi-fidelity optimization policies.

All three policies share one episode loop: Explore-LF, then one target
query chosen by the single-fidelity subroutine on the latent posterior.
They differ only in how many leading episodes run Explore-LF:

  mf_mi_greedy          every episode;
  explore_then_exploit  the first episode only;
  sf_only               none (the target-only baseline).

An episode that does not explore records explore.NO_EXPLORATION. With one
fidelity and matched seeds, mf_mi_greedy and sf_only produce identical
traces.

An episode starts only while the remaining budget covers one target query,
so the budget is never overdrawn. Episode bookkeeping retains exploration
cost, certified exploration information gain and the exploration threshold
beta for later regret accounting.

A run's state is one CandidateGains over its candidate set plus the values
of its finished episodes, in query order. Explore-LF and the target query
append to it (each observation extends the factors once), and the target
choice (with the episode's low-fidelity values) and the recommendation
read the latent posterior from it and those values. A model refit resets
it to a fresh factorization at the same points. A NumericalError or a
non-finite value ends the run and drops the episode it occurs in: its
values never join the others, and if it appended points the state goes
back to where the episode started, after its refit.

run_policies runs several policies at one seed in one call, and each of
the three policy functions is that call with one name. The runs share the
candidates and the noise stream, so a run that explores for longer than
another but buys nothing in the episodes only it explores is, up to those
episodes' recorded beta and stop reason, the other's run too. The call
copies such a run's trace instead of computing it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .acquisition import gp_mi_select, gp_ucb_select, make_candidates
from .explore import NO_EXPLORATION, explore_lf
from .gp import NumericalError, one_blas_thread
from .model import (
    Action,
    CandidateGains,
    CovState,
    FidelityModel,
    Observation,
    default_hyper_grid,
    fit_hyperparameters,
)
from .util import mix64

# the number of leading episodes in which each policy runs Explore-LF
EXPLORE_EPISODES = {"mf_mi_greedy": math.inf, "explore_then_exploit": 1, "sf_only": 0}
POLICY_NAMES = tuple(EXPLORE_EPISODES)
SUBROUTINES = ("gp_ucb", "gp_mi")


@dataclass(frozen=True)
class PolicyConfig:
    subroutine: str = "gp_ucb"
    delta: float = 0.1
    alpha_mi: Optional[float] = None      # default log(2/delta)
    alpha_exponent: float = 1.0 / 3.0
    n_candidates: Optional[int] = None    # default by dimension
    hyperfit_every: int = 10              # episodes between refits; 0 disables
    candidate_seed: Optional[int] = None  # default derived from the run seed

    def __post_init__(self):
        if self.subroutine not in SUBROUTINES:
            raise ValueError(
                "unknown subroutine %r (known: %s)" % (self.subroutine, ", ".join(SUBROUTINES))
            )
        if self.hyperfit_every < 0:
            raise ValueError("hyperfit_every must be >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.alpha_mi is not None and not self.alpha_mi >= 0.0:
            raise ValueError("alpha_mi must be >= 0")
        if not 0.0 < self.alpha_exponent < 0.5:
            raise ValueError("alpha_exponent must lie in (0, 0.5)")
        if self.n_candidates is not None and self.n_candidates < 1:
            raise ValueError("candidate count must be >= 1")


@dataclass(frozen=True, slots=True)
class Episode:
    """One exploration set (possibly empty) plus one target query."""

    index: int
    low_observations: tuple[Observation, ...]
    target_observation: Observation
    target_true: float            # noiseless target value at the query
    cost: float                   # exploration cost + target cost
    explore_cost: float
    explore_info_gain: float
    explore_beta: Optional[float]
    explore_stop_reason: Optional[str]
    model: FidelityModel          # model in force during this episode


@dataclass(frozen=True, eq=False)
class Trace:
    problem_name: str
    policy: str
    seed: int
    budget: float
    spent: float
    target_cost: float
    episodes: tuple[Episode, ...]
    recommendation: Optional[np.ndarray]
    recommendation_value: float
    failed: bool = False
    error: Optional[str] = None   # "NumericalError: ..." or "ValueError: ..." when failed

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    def rewards(self) -> np.ndarray:
        return np.array([e.target_true for e in self.episodes])


def trace_records(trace: Trace) -> list[tuple]:
    """Flat per-action rows: (episode, step, fidelity, cost_so_far, y, *x).

    Steps are 1-based within an episode, the target action is the last
    step, and cost_so_far accumulates across the whole run after paying
    for the action.
    """
    rows = []
    cost = 0.0
    for ep in trace.episodes:
        for step, obs in enumerate(ep.low_observations + (ep.target_observation,), 1):
            cost += float(ep.model.costs[obs.action.fidelity - 1])
            rows.append(
                (ep.index, step, obs.action.fidelity, cost, obs.y) + tuple(obs.action.x)
            )
    return rows


def serialize_trace(trace: Trace) -> str:
    """Line-oriented record format: comma-separated trace_records rows."""
    lines = []
    for row in trace_records(trace):
        episode, step, fidelity = row[:3]
        rest = ",".join("%.12g" % v for v in row[3:])
        lines.append("%d,%d,%d,%s" % (episode, step, fidelity, rest))
    return "\n".join(lines)


def mf_mi_greedy(problem, budget: float, cfg: PolicyConfig | None = None, seed: int = 0) -> Trace:
    """Per-episode information-greedy exploration plus a target query."""
    return run_policies(problem, budget, cfg, seed, ("mf_mi_greedy",))["mf_mi_greedy"]


def explore_then_exploit(problem, budget: float, cfg: PolicyConfig | None = None, seed: int = 0) -> Trace:
    """One up-front exploration phase, then target-only episodes."""
    return run_policies(problem, budget, cfg, seed, ("explore_then_exploit",))["explore_then_exploit"]


def sf_only(problem, budget: float, cfg: PolicyConfig | None = None, seed: int = 0) -> Trace:
    """Target-only baseline: floor(budget / target_cost) subroutine rounds."""
    return run_policies(problem, budget, cfg, seed, ("sf_only",))["sf_only"]


@one_blas_thread()
def run_policies(problem, budget, cfg=None, seed=0, names=POLICY_NAMES) -> dict[str, Trace]:
    """One run of each named policy, as {name: trace} in the order given.

    The runs share the candidate set, built once, and the noise stream
    seeded by seed. The names run in order of decreasing
    EXPLORE_EPISODES. A policy that explores in its first k episodes takes
    the trace of a run already made that did not fail and bought nothing
    after episode k: an Explore-LF call that selects nothing appends
    nothing and draws no noise, so that run is the policy's own, but for
    the beta and stop reason of the episodes past k, which become None.
    Any other policy runs alone. Each trace is bit for bit the one a run of
    its policy alone gives.
    """
    if cfg is None:
        cfg = PolicyConfig()
    budget = float(budget)
    if not 0 < budget < np.inf:
        raise ValueError("budget must be positive and finite")
    if not set(names) <= EXPLORE_EPISODES.keys() or len(set(names)) != len(names):
        raise ValueError("need distinct policy names among: %s" % ", ".join(POLICY_NAMES))
    cand_seed = cfg.candidate_seed
    if cand_seed is None:
        cand_seed = mix64(seed, "candidates")
    candidates = make_candidates(problem.bounds, cfg.n_candidates, cand_seed)
    traces = {}
    for name in sorted(names, key=EXPLORE_EPISODES.get, reverse=True):
        k = EXPLORE_EPISODES[name]
        own = next((tr for tr in traces.values() if not tr.failed and not any(
            ep.low_observations for ep in tr.episodes if ep.index > k)), None)
        if own is None:
            traces[name] = _run(problem, budget, cfg, seed, candidates, name, k)
        else:
            traces[name] = replace(
                own, policy=name, recommendation=own.recommendation.copy(),
                episodes=tuple(ep if ep.index <= k else replace(
                    ep, explore_beta=None, explore_stop_reason=None) for ep in own.episodes))
    return {name: traces[name] for name in names}


def _run(problem, budget, cfg, seed, candidates, policy_name, explore_episodes) -> Trace:
    """One run of a policy that explores in its first explore_episodes
    episodes, over candidates."""
    m = problem.model.m
    lam_m = problem.model.target_cost
    noise_rng = np.random.default_rng(mix64(seed, "noise"))
    alpha_mi = cfg.alpha_mi if cfg.alpha_mi is not None else float(np.log(2.0 / cfg.delta))
    grid = None

    cands = CandidateGains(CovState.empty(problem.model), candidates, budget)
    y: list[float] = []           # values of the finished episodes, in query order
    episodes: list[Episode] = []
    spent = 0.0
    gamma_mi = 0.0
    t = 0
    error = None

    while budget - spent >= lam_m:
        t += 1
        try:
            if (
                cfg.hyperfit_every
                and t > 1
                and (t - 1) % cfg.hyperfit_every == 0
                and len(y) >= 2
            ):
                if grid is None:
                    grid = default_hyper_grid(problem.model)
                refit = fit_hyperparameters(cands.state, y, grid)
                if refit is not cands.state.model:
                    cands.reset(CovState.build(refit, cands.state.X, cands.state.fids))
            before = cands.state  # where a failed episode rolls back to

            result = NO_EXPLORATION
            if t <= explore_episodes:
                result = explore_lf(budget - spent, cfg.alpha_exponent, cands)
            low_obs = [Observation(a, problem.evaluate(a, noise_rng)) for a in result.selected]
            low_y = [o.y for o in low_obs]

            mean, var = cands.posterior(y + low_y)
            if cfg.subroutine == "gp_ucb":
                idx = gp_ucb_select(mean, var, cfg.delta, t)
            else:
                idx, gamma_mi = gp_mi_select(mean, var, gamma_mi, alpha_mi)
            target_action = Action(x=candidates[idx], fidelity=m)
            target_obs = Observation(target_action, problem.evaluate(target_action, noise_rng))
            cands.append(target_action)

            episodes.append(Episode(
                index=t,
                low_observations=tuple(low_obs),
                target_observation=target_obs,
                target_true=problem.value(target_action.x, m),
                cost=result.cost + lam_m,
                explore_cost=result.cost,
                explore_info_gain=result.cumulative_info_gain,
                explore_beta=result.beta,
                explore_stop_reason=result.stop_reason,
                model=cands.state.model,
            ))
            y += low_y + [target_obs.y]
            spent += result.cost + lam_m
        except (NumericalError, ValueError) as exc:  # ValueError: a non-finite value
            error = "%s: %s" % (type(exc).__name__, exc)
            if cands.state.n != len(y):  # the failed episode appended points
                cands = CandidateGains(before, candidates)
            break

    mean, _ = cands.posterior(y)
    ridx = int(np.argmax(mean))
    return Trace(
        problem_name=getattr(problem, "name", "unknown"),
        policy=policy_name,
        seed=seed,
        budget=budget,
        spent=spent,
        target_cost=lam_m,
        episodes=tuple(episodes),
        recommendation=candidates[ridx].copy(),
        recommendation_value=float(mean[ridx]),
        failed=error is not None,
        error=error,
    )
