"""Cost-aware multi-fidelity Bayesian optimization.

Core pieces: an additive multi-output GP over fidelities (mfbo.model), an
information-per-cost greedy exploration routine (mfbo.explore), budgeted
optimization policies built on single-fidelity GP maximizers
(mfbo.policy, mfbo.acquisition), regret accounting (mfbo.regret),
the bound on one exploration episode's information (mfbo.submodular),
synthetic benchmark problems (mfbo.benchmarks) and an experiment harness
with a CLI (mfbo.harness, mfbo.cli).
"""

__version__ = "0.1.0"

from .gp import GpPrior, SquaredExpKernel
from .model import FidelityModel
from .benchmarks import PROBLEM_NAMES, make_problem
from .policy import (
    PolicyConfig, explore_then_exploit, mf_mi_greedy, run_policies, sf_only,
)
from .harness import ExperimentConfig, run_experiment

__all__ = [
    "GpPrior", "SquaredExpKernel", "FidelityModel",
    "PROBLEM_NAMES", "make_problem",
    "PolicyConfig", "mf_mi_greedy", "explore_then_exploit", "sf_only",
    "run_policies",
    "ExperimentConfig", "run_experiment",
]
