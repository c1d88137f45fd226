"""Budgeted multi-fidelity optimization policies.

All three policies share one episode loop so their degenerate cases agree
action-for-action (with one fidelity and matched seeds, mf_mi_greedy and
sf_only produce identical traces):

  mf_mi_greedy          explore lower fidelities every episode, then one
                        target query chosen by the single-fidelity
                        subroutine on the latent posterior;
  explore_then_exploit  one exploration phase up front, target-only after;
  sf_only               target-only baseline.

An episode starts only while the remaining budget covers one target query,
so the budget is never overdrawn. Episode bookkeeping retains exploration
cost, certified exploration information gain and the exploration threshold
beta for later regret accounting.

A run keeps one CandidateGains over its candidate set. Explore-LF and the
target query append to it, the History adopts its covariance state (each
observation extends the factors once), and the target choice and the
recommendation read the latent posterior from it. A model refit resets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .acquisition import UcbSchedule, gp_mi_select, gp_ucb_select, make_candidates
from .explore import explore_lf
from .gp import NumericalError
from .model import (
    Action,
    CandidateGains,
    FidelityModel,
    History,
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


@dataclass(frozen=True)
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
    error: Optional[str] = None   # "NumericalError: ..." when failed

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
    return _run(problem, budget, cfg, seed, "mf_mi_greedy", explore="each")


def explore_then_exploit(problem, budget: float, cfg: PolicyConfig | None = None, seed: int = 0) -> Trace:
    """One up-front exploration phase, then target-only episodes."""
    return _run(problem, budget, cfg, seed, "explore_then_exploit", explore="once")


def sf_only(problem, budget: float, cfg: PolicyConfig | None = None, seed: int = 0) -> Trace:
    """Target-only baseline: floor(budget / target_cost) subroutine rounds."""
    return _run(problem, budget, cfg, seed, "sf_only", explore="never")


POLICIES = {
    "mf_mi_greedy": mf_mi_greedy,
    "explore_then_exploit": explore_then_exploit,
    "sf_only": sf_only,
}


def _run(problem, budget, cfg, seed, policy_name, explore) -> Trace:
    if cfg is None:
        cfg = PolicyConfig()
    budget = float(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")
    model = problem.model
    m = model.m
    lam_m = model.target_cost

    cand_seed = cfg.candidate_seed
    if cand_seed is None:
        cand_seed = mix64(seed, "candidates")
    candidates = make_candidates(problem.bounds, cfg.n_candidates, cand_seed)
    noise_rng = np.random.default_rng(mix64(seed, "noise"))
    schedule = UcbSchedule(cfg.delta)
    alpha_mi = cfg.alpha_mi if cfg.alpha_mi is not None else float(np.log(2.0 / cfg.delta))
    grid = None

    history = History.empty(model)
    cands = CandidateGains(history.cov, candidates.points)
    episodes: list[Episode] = []
    spent = 0.0
    gamma_mi = 0.0
    t = 0
    explored_once = False
    failed = False
    error = None

    while budget - spent >= lam_m:
        t += 1
        try:
            if (
                cfg.hyperfit_every
                and t > 1
                and (t - 1) % cfg.hyperfit_every == 0
                and len(history) >= 2
            ):
                if grid is None:
                    grid = default_hyper_grid(problem.model)
                refit = fit_hyperparameters(history, grid)
                if refit is not model:
                    model = refit
                    history = History.from_observations(model, history.observations)
                    cands.reset(history.cov)

            low_obs: list[Observation] = []
            result = None
            if explore == "each" or (explore == "once" and not explored_once):
                result = explore_lf(budget - spent, cfg.alpha_exponent, cands)
                explored_once = True
                low_obs = [Observation(a, problem.evaluate(a, noise_rng)) for a in result.selected]
                history = history.adopt(low_obs, cands.state)

            mean, var = cands.posterior(history)
            if cfg.subroutine == "gp_ucb":
                idx = gp_ucb_select(mean, var, schedule, t)
            else:
                idx, gamma_mi = gp_mi_select(mean, var, gamma_mi, alpha_mi)
            target_action = Action(x=candidates.points[idx], fidelity=m)
            target_obs = Observation(target_action, problem.evaluate(target_action, noise_rng))
            cands.append(target_action)
            history = history.adopt((target_obs,), cands.state)

            ep_explore_cost = result.cost if result is not None else 0.0
            episode = Episode(
                index=t,
                low_observations=tuple(low_obs),
                target_observation=target_obs,
                target_true=problem.value(target_action.x, m),
                cost=ep_explore_cost + lam_m,
                explore_cost=ep_explore_cost,
                explore_info_gain=result.cumulative_info_gain if result is not None else 0.0,
                explore_beta=result.beta if result is not None else None,
                explore_stop_reason=result.stop_reason if result is not None else None,
                model=model,
            )
            episodes.append(episode)
            spent += episode.cost
        except NumericalError as exc:
            failed = True
            error = "%s: %s" % (type(exc).__name__, exc)
            if cands.state is not history.cov:  # an append failed partway
                cands = CandidateGains(history.cov, candidates.points)
            break

    mean, _ = cands.posterior(history)
    ridx = int(np.argmax(mean))
    return Trace(
        problem_name=getattr(problem, "name", "unknown"),
        policy=policy_name,
        seed=seed,
        budget=budget,
        spent=spent,
        target_cost=lam_m,
        episodes=tuple(episodes),
        recommendation=candidates.points[ridx].copy(),
        recommendation_value=float(mean[ridx]),
        failed=failed,
        error=error,
    )
