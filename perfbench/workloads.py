"""The benchmark's workloads: seeded policy comparisons through mfbo's public API.

Every workload is a closed loop from one process: one `run_experiment`
call keeps at most the harness's default worker count of runs in flight.
Thread settings (`threads`, MFBO_THREADS, OPENBLAS_NUM_THREADS) are left
as found, because that default is what users run.

Importing this module puts the checkout's `src` first on sys.path and
refuses an mfbo imported from anywhere else, so the benchmark always
measures the source tree it sits in.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import mfbo  # noqa: E402

if not Path(mfbo.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError("mfbo imported from %s, not from %s" % (mfbo.__file__, SRC))

from mfbo import harness, submodular  # noqa: E402
from mfbo.acquisition import make_candidates  # noqa: E402
from mfbo.benchmarks import make_problem  # noqa: E402

# Why each workload was chosen is in BENCHMARK.json and perfbench/README.md.
# The problem definition (its low-fidelity disturbances) stays fixed; the
# master seed varies the runs' candidate sets and noise streams.
PROBLEM_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    policies: tuple[str, ...]
    subroutine: str
    budget_mult: float
    seeds_per_round: int   # sized so one round fills a run of run_seconds
    gamma_bound: bool      # one gamma_max_bound call after the runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("currin2_compare", "currin2",
                 ("mf_mi_greedy", "explore_then_exploit", "sf_only"), "gp_ucb",
                 budget_mult=100.0, seeds_per_round=1, gamma_bound=False),
        Workload("hartmann6_explore", "hartmann6", ("mf_mi_greedy",), "gp_ucb",
                 budget_mult=20.0, seeds_per_round=2, gamma_bound=True),
        Workload("borehole8_target", "borehole8", ("mf_mi_greedy", "sf_only"), "gp_mi",
                 budget_mult=100.0, seeds_per_round=6, gamma_bound=False),
    )
}


def experiment_config(w: Workload, seed: int, out_dir) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        problem=w.problem,
        budget_mult=w.budget_mult,
        n_seeds=w.seeds_per_round,
        master_seed=seed,
        problem_seed=PROBLEM_SEED,
        policies=w.policies,
        out_dir=str(out_dir),
        subroutine=w.subroutine,
    )


def build(w: Workload, seed: int):
    """The workload's problem and the candidate set of each run seed."""
    cfg = experiment_config(w, seed, "")
    problem = make_problem(cfg.problem, noise=cfg.noise, seed=cfg.problem_seed)
    candidates = [
        make_candidates(problem.bounds, cfg.n_candidates, harness.candidate_seed(seed, i))
        for i in range(cfg.n_seeds)
    ]
    return problem, candidates


def cpu_seconds() -> float:
    """User plus system CPU time of this process, all threads."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Round:
    wall: float
    cpu: float
    runs_wall: float       # the run_experiment call alone
    result: harness.ExperimentResult
    bound: float | None
    beta: float | None


def run_round(w: Workload, seed: int, problem, candidates, out_dir) -> Round:
    """The workload's calls once: the runs, their CSVs and the bound."""
    cfg = experiment_config(w, seed, out_dir)
    t0 = time.perf_counter()
    c0 = cpu_seconds()
    result = harness.run_experiment(cfg)
    runs_wall = time.perf_counter() - t0
    bound = beta = None
    if w.gamma_bound:
        betas = [
            ep.explore_beta
            for o in result.outcomes if o.trace is not None
            for ep in o.trace.episodes if ep.explore_beta is not None
        ]
        if betas:
            beta = min(betas)
            # looked up at call time so the traced run sees its span
            bound = submodular.gamma_max_bound(problem.model, candidates[0], result.budget, beta)
    return Round(
        time.perf_counter() - t0, cpu_seconds() - c0, runs_wall, result, bound, beta
    )
