"""The benchmark's traced mode still hooks the library: a signature change
that breaks a counter hook in perfbench/layers.py fails here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from mfbo.harness import ExperimentConfig, run_experiment  # noqa: E402


def test_traced_currin2_run_counts_refits(tmp_path):
    cfg = ExperimentConfig(
        problem="currin2", budget_mult=12.0, n_seeds=1, master_seed=3,
        policies=("mf_mi_greedy", "sf_only"), hyperfit_every=2, out_dir=str(tmp_path),
    )
    tracer = Tracer()
    layers.install(tracer)
    try:
        result = run_experiment(cfg)
    finally:
        tracer.restore()
    assert [o.policy for o in result.outcomes] == ["mf_mi_greedy", "sf_only"]
    assert all(o.trace is not None and not o.trace.failed for o in result.outcomes)
    metrics = layers.layer_metrics(tracer, result.outcomes, 1.0, 0.0, 0, {})
    assert metrics["model.fit_hyperparameters.calls"] > 0
    # one traced log marginal likelihood per model of the 25-model grid
    assert (metrics["model.log_marginal_likelihood.calls"]
            == 25 * metrics["model.fit_hyperparameters.calls"])
    assert metrics["explore.explore_lf.calls"] > 0
    # the hot path's names: a renamed or aliased helper would read 0 here
    assert metrics["model.solve_triangular.calls"] > 0
    assert metrics["model.CovState.append.calls"] > 0
    assert metrics["covops.se_cross.calls"] > 0


# names perfbench/layers.py traces that the library no longer has; any
# other missing name (a renamed policy helper, say) fails here
STALE_NAMES = {
    "mfbo.policy.predict_latent_diag",
    "mfbo.explore.batch_info_gains",
    "mfbo.explore.info_gain_set",
    "mfbo.submodular.batch_info_gains",
    "mfbo.submodular.info_gain_set",
}


def test_traced_names_exist():
    tracer = Tracer()
    layers.install(tracer)
    try:
        missing = set(tracer.missing)
    finally:
        tracer.restore()
    assert missing <= STALE_NAMES
