"""Where the traced run puts its spans, and the per-layer metrics made from them.

Span names are `<module>.<function>` of the layer being entered. A name the
program no longer has is skipped and reported, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import statistics

import numpy as np

from tracer import Tracer, summarize_spans

EXPLORING = ("mf_mi_greedy", "explore_then_exploit")
STOP_REASONS = ("budget_exhausted", "target_better", "low_cumulative_ratio")


def _explore_result(t, args, res):
    t.count("explore.selected", len(res.selected))
    t.count("explore.stop." + res.stop_reason)


def _step(t, args, res):
    t.count("explore.steps")


def _solve_flops(t, args, res):
    a, b = np.shape(args[0]), np.shape(args[1])
    t.count("solve.flops", a[0] * a[0] * (b[1] if len(b) == 2 else 1))


def _cross_elems(t, args, res):
    t.count("se_cross.elems", np.shape(args[0])[0] * np.shape(args[1])[0])


def _jitter(t, args, res):
    t.count("chol.jittered", res[1] > 0)


def _refit(t, args, res):
    t.count("refit.changed", res is not args[0].model)


def _append(t, args, res):
    t.count("append.rebuilt", getattr(res, "since_rebuild", 1) == 0)


def _run(t, args, trace):
    t.count("policy.episodes", trace.n_episodes)
    if any(ep.explore_beta is not None for ep in trace.episodes):
        t.count("explore.cost", sum(ep.explore_cost for ep in trace.episodes))
        t.count("explore.budget", trace.budget)


# (module, attribute path, span name, counter hook): each caller looks the
# attribute up at call time, so rebinding it there records the span
TRACED = (
    ("mfbo.policy", "explore_lf", "explore.explore_lf", _explore_result),
    ("mfbo.policy", "predict_latent_diag", "model.predict_latent_diag", None),
    ("mfbo.policy", "fit_hyperparameters", "model.fit_hyperparameters", _refit),
    ("mfbo.policy", "gp_ucb_select", "acquisition.gp_ucb_select", None),
    ("mfbo.policy", "gp_mi_select", "acquisition.gp_mi_select", None),
    ("mfbo.policy", "make_candidates", "acquisition.make_candidates", None),
    ("mfbo.explore", "batch_info_gains", "model.batch_info_gains", _step),
    ("mfbo.explore", "info_gain_set", "model.info_gain_set", None),
    ("mfbo.submodular", "batch_info_gains", "model.batch_info_gains", None),
    ("mfbo.submodular", "info_gain_set", "model.info_gain_set", None),
    ("mfbo.submodular", "gamma_max_bound", "submodular.gamma_max_bound", None),
    ("mfbo.model", "solve_triangular", "model.solve_triangular", _solve_flops),
    ("mfbo.model", "chol_factor", "gp.chol_factor", _jitter),
    ("mfbo.gp", "chol_factor", "gp.chol_factor", _jitter),
    ("mfbo.model", "log_marginal_likelihood", "model.log_marginal_likelihood", None),
    ("mfbo.model", "CovState.append", "model.CovState.append", _append),
    ("mfbo.covops", "se_cross", "covops.se_cross", _cross_elems),
    ("mfbo.covops", "se_sym", "covops.se_sym", None),
    ("mfbo.benchmarks", "BenchmarkProblem.evaluate", "benchmarks.evaluate", None),
    ("mfbo.harness", "write_traces_csv", "harness.write_csv", None),
    ("mfbo.harness", "write_run_curves_csv", "harness.write_csv", None),
    ("mfbo.harness", "write_summary_csv", "harness.write_csv", None),
    ("mfbo.harness", "simple_regret_curve", "regret", None),
    ("mfbo.harness", "cumulative_regret_curve", "regret", None),
)


def install(tracer: Tracer) -> None:
    """Rebind every traced name that exists; tracer.restore() undoes it."""
    for module, path, span, on_result in TRACED:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            tracer.missing.append(module)
            continue
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None:
            tracer.missing.append("%s.%s" % (module, path))
            continue
        tracer.patch(owner, attr, span, on_result)
    policies = getattr(importlib.import_module("mfbo.harness"), "POLICIES", {})
    for name in list(policies):
        tracer.patch_item(policies, name, "policy.run", label=name, on_result=_run)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcomes, runs_wall: float, overhead: float,
                  csv_bytes: int, regrets: dict) -> dict:
    spans = tracer.spans()
    agg = summarize_spans(spans)
    c = tracer.counters()

    def stat(name, key):
        a = agg.get(name)
        return 0.0 if a is None else float(a[key])

    m = {}
    for name in (
        "explore.explore_lf", "model.batch_info_gains", "model.solve_triangular",
        "model.info_gain_set", "covops.se_cross", "covops.se_sym",
        "model.predict_latent_diag", "acquisition.gp_ucb_select", "acquisition.gp_mi_select",
        "acquisition.make_candidates", "model.fit_hyperparameters",
        "model.log_marginal_likelihood", "gp.chol_factor", "model.CovState.append",
        "submodular.gamma_max_bound", "benchmarks.evaluate", "policy.run",
    ):
        m[name + ".calls"] = stat(name, "calls")
        m[name + ".self_s"] = stat(name, "self_s")
    m["explore.explore_lf.total_s"] = stat("explore.explore_lf", "total_s")
    m["submodular.gamma_max_bound.total_s"] = stat("submodular.gamma_max_bound", "total_s")

    m["explore.steps"] = c.get("explore.steps", 0.0)
    m["explore.selected"] = c.get("explore.selected", 0.0)
    m["explore.useful_frac"] = _ratio(m["explore.selected"], m["explore.steps"])
    for reason in STOP_REASONS:
        m["explore.stop." + reason] = c.get("explore.stop." + reason, 0.0)
    m["explore.budget_share"] = _ratio(c.get("explore.cost", 0.0), c.get("explore.budget", 0.0))

    durations = agg.get("model.batch_info_gains", {}).get("durations", [])
    m["model.batch_info_gains.p50_ms"] = 1e3 * statistics.median(durations) if durations else 0.0
    m["model.batch_info_gains.p90_ms"] = (
        1e3 * statistics.quantiles(durations, n=10)[8] if len(durations) > 1 else 0.0
    )
    # share of exploring runs' wall time spent in batch_info_gains and its children
    inside = sum(t1 - t0 for _, n, t0, t1, _, _, root in spans
                 if n == "model.batch_info_gains" and root in EXPLORING)
    runs = sum(t1 - t0 for _, n, t0, t1, _, _, root in spans
               if n == "policy.run" and root in EXPLORING)
    m["model.batch_info_gains.run_share"] = _ratio(inside, runs)
    m["model.solve_triangular.flops"] = c.get("solve.flops", 0.0)
    m["covops.se_cross.elems"] = c.get("se_cross.elems", 0.0)
    m["model.fit_hyperparameters.changed_frac"] = _ratio(
        c.get("refit.changed", 0.0), m["model.fit_hyperparameters.calls"])
    m["gp.chol_factor.jitter_frac"] = _ratio(c.get("chol.jittered", 0.0), m["gp.chol_factor.calls"])
    m["model.CovState.append.rebuild_frac"] = _ratio(
        c.get("append.rebuilt", 0.0), m["model.CovState.append.calls"])
    m["policy.episodes"] = c.get("policy.episodes", 0.0)
    m["regret.self_s"] = stat("regret", "self_s")

    workers = len({tid for tid, n, *_ in spans if n == "policy.run"})
    m["harness.workers"] = float(workers)
    m["harness.pool_util"] = _ratio(sum(o.duration for o in outcomes), runs_wall * workers)
    m["harness.write_csv.self_s"] = stat("harness.write_csv", "self_s")
    m["harness.csv_bytes"] = float(csv_bytes)
    m["trace.overhead_frac"] = overhead
    for pol in ("mf_mi_greedy", "explore_then_exploit", "sf_only"):
        m["regret." + pol] = regrets.get(pol, 0.0)
    return m
