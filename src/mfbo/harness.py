"""Benchmark harness: config files, seeded runs, CSV outputs.

A run file is flat INI-ish text (key = value, [section] headers, # comments).
Every key but problem is optional; the values below are the defaults:

    problem = currin2        # required: borehole8, currin2 or hartmann6
    budget_mult = 100        # budget = budget_mult * target cost
    seeds = 20
    master_seed = 0
    noise = 0.05             # noise sd as a fraction of each fidelity's range
    problem_seed = 0         # fixes the lower-fidelity disturbances
    policies = mf_mi_greedy, explore_then_exploit, sf_only
    out = results

    [policy]
    subroutine = gp_ucb      # or gp_mi
    delta = 0.1
    # alpha_mi = 3.0         # gp_mi weight; unset: log(2/delta)
    # candidates = 1000      # unset: 1000 up to 2 dimensions, else 5000
    hyperfit_every = 10      # episodes between refits; 0 disables them

    [explore]
    alpha_exponent = 0.3333333333333333

Per-run seeds derive from the master seed and the seed index only, shared
across policies: at a given index every policy sees the same candidate pool
and the same observation-noise stream (common random numbers), so
policy-to-policy differences come from decisions rather than noise luck.
Runs execute one after another in (policy, seed index) order, and a failure
is isolated to its run. Nearly all of a run's time is dense linear algebra,
which the BLAS library already spreads over every core. Output is
three CSVs: traces.csv (one row per query), curves.csv (per-episode simple
and cumulative regret) and summary.csv (mean simple regret at quarter-budget
checkpoints). Floats are written with %.12g so repeated runs are
byte-identical.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .benchmarks import PROBLEM_NAMES, make_problem
from .policy import POLICIES, POLICY_NAMES, PolicyConfig, Trace, serialize_trace
from .regret import cumulative_regret_curve, simple_regret_curve, write_curves_csv
from .util import mix64


class ConfigError(ValueError):
    pass


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key = value lines into {section: {key: value}}, top level ''."""
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("%s:%d: unterminated section header" % (source, lineno))
            current = line[1:-1].strip()
            if not current:
                raise ConfigError("%s:%d: empty section name" % (source, lineno))
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value, got %r" % (source, lineno, raw.strip()))
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("%s:%d: empty key" % (source, lineno))
        if key in sections[current]:
            raise ConfigError("%s:%d: duplicate key %r" % (source, lineno, key))
        sections[current][key] = value
    return sections


def parse_names(text: str) -> tuple[str, ...]:
    """A comma-separated name list, blanks dropped: "a, b," -> ("a", "b")."""
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _coerce(section: str, key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        where = "[%s] %s" % (section, key) if section else key
        raise ConfigError("bad value for %s: %r" % (where, value)) from None


# (section, key) of a config file -> (ExperimentConfig field, value parser);
# section "" is the top level
CONFIG_KEYS = {
    ("", "problem"): ("problem", str),
    ("", "budget_mult"): ("budget_mult", float),
    ("", "seeds"): ("n_seeds", int),
    ("", "master_seed"): ("master_seed", int),
    ("", "noise"): ("noise", float),
    ("", "problem_seed"): ("problem_seed", int),
    ("", "policies"): ("policies", parse_names),
    ("", "out"): ("out_dir", str),
    ("policy", "subroutine"): ("subroutine", str),
    ("policy", "delta"): ("delta", float),
    ("policy", "alpha_mi"): ("alpha_mi", float),
    ("policy", "candidates"): ("n_candidates", int),
    ("policy", "hyperfit_every"): ("hyperfit_every", int),
    ("explore", "alpha_exponent"): ("alpha_exponent", float),
}
CONFIG_SECTIONS = tuple(dict.fromkeys(section for section, _ in CONFIG_KEYS))


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    budget_mult: float = 100.0
    n_seeds: int = 20
    master_seed: int = 0
    noise: float = 0.05
    problem_seed: int = 0
    policies: tuple[str, ...] = POLICY_NAMES
    out_dir: str = "results"
    # the PolicyConfig fields but candidate_seed, with PolicyConfig's defaults
    subroutine: str = PolicyConfig.subroutine
    delta: float = PolicyConfig.delta
    alpha_mi: Optional[float] = PolicyConfig.alpha_mi
    n_candidates: Optional[int] = PolicyConfig.n_candidates
    hyperfit_every: int = PolicyConfig.hyperfit_every
    alpha_exponent: float = PolicyConfig.alpha_exponent

    def __post_init__(self):
        if self.problem not in PROBLEM_NAMES:
            raise ConfigError(
                "unknown problem %r (known: %s)" % (self.problem, ", ".join(PROBLEM_NAMES))
            )
        if not 1 <= self.budget_mult < np.inf:
            raise ConfigError("budget_mult must be finite and >= 1")
        if self.n_seeds < 1:
            raise ConfigError("seeds must be >= 1")
        if not self.policies:
            raise ConfigError("policies must name at least one policy")
        for name in self.policies:
            if name not in POLICY_NAMES:
                raise ConfigError(
                    "unknown policy %r (known: %s)" % (name, ", ".join(POLICY_NAMES))
                )
        if len(set(self.policies)) != len(self.policies):
            raise ConfigError("duplicate policy names")
        if not 0 <= self.noise < np.inf:
            raise ConfigError("noise must be finite and >= 0")
        try:  # PolicyConfig checks the [policy] and [explore] values
            self.policy_config(0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            text = fh.read()
        sections = parse_config_text(text, source=str(path))
        return cls.from_sections(sections)

    @classmethod
    def from_sections(cls, sections: dict) -> "ExperimentConfig":
        for name in sections:
            if name not in CONFIG_SECTIONS:
                raise ConfigError("unknown section [%s]" % name)
        if "problem" not in sections.get("", {}):
            raise ConfigError("missing required key: problem")
        kwargs = {}
        for section in CONFIG_SECTIONS:
            rest = dict(sections.get(section, {}))
            for (sec, key), (name, kind) in CONFIG_KEYS.items():
                if sec == section and key in rest:
                    kwargs[name] = _coerce(section, key, rest.pop(key), kind)
            if rest:
                where = " in [%s]" % section if section else ""
                raise ConfigError("unknown key %r%s" % (sorted(rest)[0], where))
        return cls(**kwargs)

    def policy_config(self, candidate_seed: int) -> PolicyConfig:
        return PolicyConfig(candidate_seed=candidate_seed, **{
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(PolicyConfig) if f.name != "candidate_seed"
        })


def run_seed(master_seed: int, index: int) -> int:
    return mix64(master_seed, "run", index)


def candidate_seed(master_seed: int, index: int) -> int:
    return mix64(master_seed, "candidates", index)


def checkpoint_costs(budget: float) -> np.ndarray:
    return budget * np.array([0.25, 0.5, 0.75, 1.0])


@dataclass
class RunOutcome:
    policy: str
    index: int
    seed: int
    trace: Optional[Trace]
    error: Optional[str]
    duration: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    budget: float
    f_star: float
    outcomes: list[RunOutcome] = field(default_factory=list)
    traces_path: str = ""
    curves_path: str = ""
    summary_path: str = ""

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if o.trace is None or o.trace.failed)


def run_experiment(cfg: ExperimentConfig, out_dir=None, log=None) -> ExperimentResult:
    problem = make_problem(cfg.problem, noise=cfg.noise, seed=cfg.problem_seed)
    budget = cfg.budget_mult * problem.model.target_cost
    result = ExperimentResult(config=cfg, budget=budget, f_star=problem.f_star)
    outcomes = result.outcomes

    for pol in cfg.policies:
        for idx in range(cfg.n_seeds):
            seed = run_seed(cfg.master_seed, idx)
            pc = cfg.policy_config(candidate_seed(cfg.master_seed, idx))
            start = time.perf_counter()
            try:
                trace = POLICIES[pol](problem, budget, pc, seed)
                err = trace.error
            except Exception as exc:  # isolate per-run failures
                trace = None
                err = "%s: %s" % (type(exc).__name__, exc)
            duration = time.perf_counter() - start
            outcomes.append(RunOutcome(pol, idx, seed, trace, err, duration))
            if log is not None:
                status = "failed: %s" % err if err else "%d episodes" % trace.n_episodes
                log("%-22s seed %3d  %6.2fs  %s" % (pol, idx, duration, status))

    target = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(target, exist_ok=True)
    result.traces_path = os.path.join(target, "traces.csv")
    result.curves_path = os.path.join(target, "curves.csv")
    result.summary_path = os.path.join(target, "summary.csv")
    write_traces_csv(result.traces_path, outcomes, problem.dim)
    write_run_curves_csv(result.curves_path, outcomes, problem.f_star)
    write_summary_csv(result.summary_path, outcomes, problem.f_star, checkpoint_costs(budget))
    return result


def write_traces_csv(path, outcomes, dim: int) -> None:
    cols = ["policy", "seed", "episode", "step", "fidelity", "cost_so_far", "y"]
    cols += ["x%d" % i for i in range(dim)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for o in outcomes:
            if o.trace is None:
                continue
            prefix = "%s,%d," % (o.policy, o.index)
            for line in serialize_trace(o.trace).splitlines():
                fh.write(prefix + line + "\n")


def write_run_curves_csv(path, outcomes, f_star: float) -> None:
    write_curves_csv(
        path,
        (
            (o.index, o.policy, curve)
            for o in outcomes
            if o.trace is not None
            for curve in (
                simple_regret_curve(o.trace, f_star),
                cumulative_regret_curve(o.trace, f_star),
            )
        ),
    )


def summarize(outcomes, f_star: float, checkpoints) -> list[tuple]:
    """Rows of (policy, checkpoint_cost, mean_simple_regret, stderr, n_seeds).

    Runs that have not completed an episode by a checkpoint contribute
    nothing there (NaN dropped); n_seeds counts the values actually used.
    """
    by_policy: dict[str, list[Trace]] = {}
    for o in outcomes:
        if o.trace is not None:
            by_policy.setdefault(o.policy, []).append(o.trace)
    rows = []
    for policy, traces in by_policy.items():
        curves = [simple_regret_curve(tr, f_star) for tr in traces]
        for c in checkpoints:
            vals = np.array([cv.value_at(c) for cv in curves])
            vals = vals[~np.isnan(vals)]
            n = len(vals)
            mean = float(np.mean(vals)) if n else float("nan")
            stderr = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
            rows.append((policy, float(c), mean, stderr, n))
    return rows


def write_summary_csv(path, outcomes, f_star: float, checkpoints) -> None:
    with open(path, "w") as fh:
        fh.write("policy,checkpoint_cost,mean_simple_regret,stderr,n_seeds\n")
        for policy, c, mean, stderr, n in summarize(outcomes, f_star, checkpoints):
            fh.write("%s,%.12g,%.12g,%.12g,%d\n" % (policy, c, mean, stderr, n))
