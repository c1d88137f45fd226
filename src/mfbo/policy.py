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
it has observed, in query order. Explore-LF and the target query append to
it (each observation extends the factors once), and the target choice and
the recommendation read the latent posterior from it and those values. A
model refit resets it to a fresh factorization at the same points.

run_policies runs several policies at one seed in one call, and each of
the three policy functions is that call with one name. The runs share the
candidates and the noise stream, so two of them stay identical until the
first episode in which one explores and Explore-LF buys something while
the other does not explore. The call computes such a shared prefix once
and forks the run state there.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
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

POLICY_NAMES = ("mf_mi_greedy", "explore_then_exploit", "sf_only")
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


@dataclass(frozen=True)
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
    model_costs = None
    for ep in trace.episodes:
        model_costs = ep.model.costs
        step = 0
        for obs in ep.low_observations:
            step += 1
            cost += float(model_costs[obs.action.fidelity - 1])
            rows.append(
                (ep.index, step, obs.action.fidelity, cost, obs.y) + tuple(obs.action.x)
            )
        step += 1
        cost += trace.target_cost
        obs = ep.target_observation
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


POLICIES = {
    "mf_mi_greedy": mf_mi_greedy,
    "explore_then_exploit": explore_then_exploit,
    "sf_only": sf_only,
}

# the number of leading episodes in which each policy runs Explore-LF
EXPLORE_EPISODES = {"mf_mi_greedy": math.inf, "explore_then_exploit": 1, "sf_only": 0}


@dataclass
class _Branch:
    """The policies whose runs have been identical so far, and that run's
    state. before is the state the current episode started from while an
    episode is in progress, else None."""

    names: list[str]
    cands: CandidateGains
    y: list[float]                # observed values, in query order
    noise_rng: np.random.Generator
    episodes: dict[str, list[Episode]]
    gamma_mi: float = 0.0
    spent: float = 0.0
    t: int = 0
    before: Optional[CovState] = None

    def split(self, names, cands) -> "_Branch":
        """names leave this branch for a new one at cands, in the current
        episode, which the new branch resumes after its refit."""
        self.names = [n for n in self.names if n not in names]
        return _Branch(
            list(names), cands, list(self.y), copy.deepcopy(self.noise_rng),
            {n: self.episodes.pop(n) for n in names},
            self.gamma_mi, self.spent, self.t, self.before,
        )


@one_blas_thread()
def run_policies(problem, budget, cfg=None, seed=0, names=POLICY_NAMES) -> dict[str, Trace]:
    """One run of each named policy, as {name: trace} in the order given.

    The runs are branches of one computation. A branch holds the names
    whose runs have been identical so far and one run state. In an episode
    where some of its names explore and others do not, the candidate
    projections are forked after the refit (CandidateGains.fork). If
    Explore-LF then selects nothing, the fork is dropped: the exploring
    names record its result, the others NO_EXPLORATION, and one target
    query serves them all. If it selects something or raises, the others
    split off into a new branch at the fork, which resumes the episode
    after its refit without exploring. A branch that splits off runs to its
    end before its parent goes on (depth-first, one branch at a time).
    Each trace is bit for bit the one a run of its policy alone gives.
    """
    if cfg is None:
        cfg = PolicyConfig()
    budget = float(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not set(names) <= EXPLORE_EPISODES.keys() or len(set(names)) != len(names):
        raise ValueError("need distinct policy names among: %s" % ", ".join(POLICY_NAMES))
    call = _Call(problem, budget, cfg, seed)
    call.run(_Branch(
        list(names), CandidateGains(CovState.empty(problem.model), call.candidates.points), [],
        np.random.default_rng(mix64(seed, "noise")), {n: [] for n in names},
    ))
    return {name: call.traces[name] for name in names}


class _Call:
    """What the branches of one run_policies call share: its arguments,
    the candidates, the refit grid once built, and the traces made."""

    def __init__(self, problem, budget, cfg, seed):
        self.problem, self.budget, self.cfg, self.seed = problem, budget, cfg, seed
        cand_seed = cfg.candidate_seed
        if cand_seed is None:
            cand_seed = mix64(seed, "candidates")
        self.candidates = make_candidates(problem.bounds, cfg.n_candidates, cand_seed)
        self.alpha_mi = cfg.alpha_mi if cfg.alpha_mi is not None else float(np.log(2.0 / cfg.delta))
        self.grid = None
        self.traces = {}

    def run(self, b: _Branch) -> None:
        """Run b's episodes, then record a trace for each of its names.
        A branch that splits off runs at once, before b goes on."""
        problem, budget, cfg, candidates = self.problem, self.budget, self.cfg, self.candidates
        m = problem.model.m
        lam_m = problem.model.target_cost
        error = None
        while budget - b.spent >= lam_m:
            try:
                if b.before is None:  # a new episode; a split-off branch resumes one
                    b.t += 1
                    b.before = b.cands.state
                    if (
                        cfg.hyperfit_every
                        and b.t > 1
                        and (b.t - 1) % cfg.hyperfit_every == 0
                        and len(b.y) >= 2
                    ):
                        if self.grid is None:
                            self.grid = default_hyper_grid(problem.model)
                        refit = fit_hyperparameters(b.cands.state, b.y, self.grid)
                        if refit is not b.cands.state.model:
                            b.cands.reset(CovState.build(refit, b.cands.state.X, b.cands.state.fids))

                result = NO_EXPLORATION
                idle = [n for n in b.names if b.t > EXPLORE_EPISODES[n]]
                if len(idle) < len(b.names):
                    # the idle names run on alone unless Explore-LF buys
                    # nothing; it draws no noise, so they keep the generator
                    spare = b.cands.fork() if idle else None
                    try:
                        result = explore_lf(budget - b.spent, cfg.alpha_exponent, b.cands)
                    except (NumericalError, ValueError):
                        if spare is not None:
                            self.run(b.split(idle, spare))
                        raise
                    if spare is not None and result.selected:
                        self.run(b.split(idle, spare))
                    del spare
                low_obs = [Observation(a, problem.evaluate(a, b.noise_rng)) for a in result.selected]
                b.y += [o.y for o in low_obs]

                mean, var = b.cands.posterior(b.y)
                if cfg.subroutine == "gp_ucb":
                    idx = gp_ucb_select(mean, var, cfg.delta, b.t)
                else:
                    idx, b.gamma_mi = gp_mi_select(mean, var, b.gamma_mi, self.alpha_mi)
                target_action = Action(x=candidates.points[idx], fidelity=m)
                target_obs = Observation(target_action, problem.evaluate(target_action, b.noise_rng))
                b.cands.append(target_action)
                b.y.append(target_obs.y)

                # the names that explored share one Episode, the idle ones another
                target_true = problem.value(target_action.x, m)
                made = {}
                for name in b.names:
                    r = NO_EXPLORATION if name in idle else result
                    if r not in made:
                        made[r] = Episode(
                            index=b.t,
                            low_observations=tuple(low_obs),
                            target_observation=target_obs,
                            target_true=target_true,
                            cost=r.cost + lam_m,
                            explore_cost=r.cost,
                            explore_info_gain=r.cumulative_info_gain,
                            explore_beta=r.beta,
                            explore_stop_reason=r.stop_reason,
                            model=b.cands.state.model,
                        )
                    b.episodes[name].append(made[r])
                b.spent += result.cost + lam_m
                b.before = None
            except (NumericalError, ValueError) as exc:  # ValueError: a non-finite value
                error = "%s: %s" % (type(exc).__name__, exc)
                if b.cands.state.n != len(b.y):  # Explore-LF's picks were not all observed
                    b.cands = CandidateGains(b.before, candidates.points)
                break

        mean, _ = b.cands.posterior(b.y)
        ridx = int(np.argmax(mean))
        for name in b.names:
            self.traces[name] = Trace(
                problem_name=getattr(problem, "name", "unknown"),
                policy=name,
                seed=self.seed,
                budget=budget,
                spent=b.spent,
                target_cost=lam_m,
                episodes=tuple(b.episodes[name]),
                recommendation=candidates.points[ridx].copy(),
                recommendation_value=float(mean[ridx]),
                failed=error is not None,
                error=error,
            )
