import dataclasses

import numpy as np
import pytest

from mfbo import policy
from mfbo.cli import _build_parser, _config_from_args, main as cli_main
from mfbo.harness import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    candidate_seed,
    checkpoint_costs,
    parse_config_text,
    run_experiment,
    run_seed,
    summarize,
)
from mfbo.gp import chol_factor
from mfbo.policy import POLICY_NAMES, PolicyConfig, sf_only
from mfbo.verify import make_toy_problem


class TestParser:
    def test_sections_comments_blanks(self):
        text = """
        # experiment
        problem = currin2
        seeds = 4   # inline comment

        [policy]
        delta = 0.2
        """
        got = parse_config_text(text)
        assert got[""] == {"problem": "currin2", "seeds": "4"}
        assert got["policy"] == {"delta": "0.2"}

    def test_unterminated_section(self):
        with pytest.raises(ConfigError, match="cfg:2: unterminated"):
            parse_config_text("a = 1\n[policy\n", source="cfg")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=":1: expected key = value"):
            parse_config_text("problem currin2")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match=":3: duplicate key 'seeds'"):
            parse_config_text("problem = x\nseeds = 1\nseeds = 2")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 5")

    def test_empty_section_name(self):
        with pytest.raises(ConfigError, match="empty section"):
            parse_config_text("[]")


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig.from_sections({"": {"problem": "currin2"}})
        assert cfg.budget_mult == 100.0
        assert cfg.n_seeds == 20
        assert cfg.policies == POLICY_NAMES
        assert cfg.subroutine == "gp_ucb"

    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "problem = hartmann6\n"
            "budget_mult = 10\n"
            "seeds = 3\n"
            "master_seed = 5\n"
            "noise = 0.02\n"
            "problem_seed = 4\n"
            "policies = sf_only, mf_mi_greedy\n"
            "out = somewhere\n"
            "[policy]\n"
            "subroutine = gp_mi\n"
            "delta = 0.05\n"
            "alpha_mi = 1.5\n"
            "candidates = 64\n"
            "hyperfit_every = 0\n"
            "[explore]\n"
            "alpha_exponent = 0.25\n"
        )
        cfg = ExperimentConfig.from_file(path)
        assert cfg.problem == "hartmann6"
        assert cfg.budget_mult == 10.0
        assert cfg.n_seeds == 3
        assert cfg.master_seed == 5
        assert cfg.noise == 0.02
        assert cfg.problem_seed == 4
        assert cfg.policies == ("sf_only", "mf_mi_greedy")
        assert cfg.out_dir == "somewhere"
        assert cfg.subroutine == "gp_mi"
        assert cfg.delta == 0.05
        assert cfg.alpha_mi == 1.5
        assert cfg.n_candidates == 64
        assert cfg.hyperfit_every == 0
        assert cfg.alpha_exponent == 0.25
        pc = cfg.policy_config(candidate_seed=9)
        assert isinstance(pc, PolicyConfig)
        assert pc.subroutine == "gp_mi" and pc.candidate_seed == 9

    def test_key_table_names_every_field_once(self):
        fields = sorted(f.name for f in dataclasses.fields(ExperimentConfig))
        assert sorted(name for name, _ in CONFIG_KEYS.values()) == fields

    def test_policy_defaults_are_policy_configs(self):
        cfg = ExperimentConfig(problem="currin2")
        assert cfg.policy_config(5) == PolicyConfig(candidate_seed=5)

    def test_missing_problem(self):
        with pytest.raises(ConfigError, match="missing required key"):
            ExperimentConfig.from_sections({"": {}})

    def test_unknown_problem(self):
        with pytest.raises(ConfigError, match="unknown problem 'sphere'"):
            ExperimentConfig.from_sections({"": {"problem": "sphere"}})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'budget'"):
            ExperimentConfig.from_sections({"": {"problem": "currin2", "budget": "9"}})

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[kernel\]"):
            ExperimentConfig.from_sections({"": {"problem": "currin2"}, "kernel": {}})

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown policy 'random'"):
            ExperimentConfig.from_sections(
                {"": {"problem": "currin2", "policies": "random"}})

    def test_budget_mult_at_least_one(self):
        with pytest.raises(ConfigError, match="budget_mult"):
            ExperimentConfig.from_sections(
                {"": {"problem": "currin2", "budget_mult": "0.5"}})

    def test_bad_numeric_value(self):
        with pytest.raises(ConfigError, match="bad value for seeds"):
            ExperimentConfig.from_sections(
                {"": {"problem": "currin2", "seeds": "many"}})

    def test_duplicate_policies(self):
        with pytest.raises(ConfigError, match="duplicate policy"):
            ExperimentConfig.from_sections(
                {"": {"problem": "currin2", "policies": "sf_only,sf_only"}})

    @pytest.mark.parametrize("section, key, value, message", [
        ("policy", "subroutine", "gp_ei", "unknown subroutine 'gp_ei'"),
        ("policy", "delta", "2", "delta"),
        ("policy", "alpha_mi", "-1", "alpha_mi"),
        ("policy", "candidates", "0", "candidate count"),
        ("explore", "alpha_exponent", "0.7", "alpha_exponent"),
        ("", "noise", "-1", "noise"),
        ("", "noise", "inf", "noise"),
        ("", "budget_mult", "nan", "budget_mult"),
        ("", "budget_mult", "inf", "budget_mult"),
        ("", "threads", "2", "unknown key 'threads'"),
        ("", "policies", "", "at least one policy"),
    ])
    def test_rejects_bad_value(self, section, key, value, message):
        sections = {"": {"problem": "currin2"}}
        sections.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_sections(sections)


class TestSeeds:
    def test_run_seed_deterministic_and_distinct(self):
        seeds = [run_seed(0, i) for i in range(10)]
        assert seeds == [run_seed(0, i) for i in range(10)]
        assert len(set(seeds)) == 10
        assert run_seed(1, 0) != run_seed(0, 0)

    def test_candidate_seed_independent_stream(self):
        assert candidate_seed(0, 3) != run_seed(0, 3)

    def test_checkpoints_are_budget_quarters(self):
        assert np.allclose(checkpoint_costs(300.0), [75.0, 150.0, 225.0, 300.0])


def tiny_config(out, **kw):
    base = dict(
        problem="currin2",
        budget_mult=2.0,
        n_seeds=2,
        n_candidates=32,
        hyperfit_every=0,
        out_dir=str(out),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_outputs_and_schema(self, tmp_path):
        cfg = tiny_config(tmp_path / "r")
        lines = []
        result = run_experiment(cfg, log=lines.append)
        assert result.n_failed == 0
        assert len(result.outcomes) == 3 * 2
        order = [(pol, idx) for pol in POLICY_NAMES for idx in range(2)]
        assert [(o.policy, o.index) for o in result.outcomes] == order
        assert [line.split()[:3] for line in lines] == [
            [pol, "seed", str(idx)] for pol, idx in order]
        assert result.budget == 6.0

        traces = (tmp_path / "r" / "traces.csv").read_text().splitlines()
        assert traces[0] == "policy,seed,episode,step,fidelity,cost_so_far,y,x0,x1"
        assert all(len(line.split(",")) == 9 for line in traces[1:])

        curves = (tmp_path / "r" / "curves.csv").read_text().splitlines()
        assert curves[0] == "seed,policy,cost,value,kind"
        kinds = {line.split(",")[-1] for line in curves[1:]}
        assert kinds == {"simple_regret", "cumulative_regret"}

        summary = (tmp_path / "r" / "summary.csv").read_text().splitlines()
        assert summary[0] == "policy,checkpoint_cost,mean_simple_regret,stderr,n_seeds"
        assert len(summary) == 1 + 3 * 4  # policies x checkpoints
        rows = [line.split(",") for line in summary[1:]]
        # every seed has finished an episode by the full budget
        assert all(r[4] == "2" for r in rows if r[1] == "6")

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config(tmp_path / "a")
        run_experiment(cfg)
        run_experiment(tiny_config(tmp_path / "b"))
        for name in ("traces.csv", "curves.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()

    def test_budget_mult_one_gives_single_episode(self, tmp_path):
        cfg = tiny_config(tmp_path / "one", budget_mult=1.0, n_seeds=1)
        result = run_experiment(cfg)
        for o in result.outcomes:
            assert o.trace.n_episodes == 1

    def test_out_dir_override(self, tmp_path):
        cfg = tiny_config(tmp_path / "ignored")
        result = run_experiment(cfg, out_dir=str(tmp_path / "actual"))
        assert (tmp_path / "actual" / "summary.csv").exists()
        assert result.summary_path.endswith("actual/summary.csv")


    def test_numerical_error_reported_with_its_message(self, tmp_path, monkeypatch):
        real = policy.CandidateGains.posterior
        calls = []

        def failing_third_call(*args):  # the third episode's posterior
            calls.append(1)
            if len(calls) == 3:
                chol_factor(-np.eye(3))  # raises the real NumericalError
            return real(*args)

        monkeypatch.setattr(policy.CandidateGains, "posterior", failing_third_call)
        cfg = tiny_config(tmp_path / "r", budget_mult=5.0, n_seeds=1, policies=("sf_only",))
        lines = []
        result = run_experiment(cfg, log=lines.append)
        (outcome,) = result.outcomes
        assert outcome.trace.n_episodes == 2  # the episodes before the failure
        assert outcome.trace.failed
        assert outcome.error == outcome.trace.error
        assert outcome.error.startswith("NumericalError: Cholesky failed for 3x3 matrix")
        assert "failed: NumericalError: Cholesky failed" in lines[0]
        assert result.n_failed == 1


class TestSummarize:
    def test_drops_missing_checkpoints(self):
        toy = make_toy_problem()
        cfg = PolicyConfig(n_candidates=8, hyperfit_every=0)

        class FakeOutcome:
            def __init__(self, trace):
                self.policy = trace.policy
                self.trace = trace

        traces = [sf_only(toy, 3.0, cfg, seed=s) for s in (1, 2)]
        rows = summarize([FakeOutcome(t) for t in traces], toy.f_star, [1.0, 3.0])
        by_cost = {r[1]: r for r in rows}
        # no episode has finished by cost 1, so nothing to aggregate
        assert by_cost[1.0][4] == 0 and np.isnan(by_cost[1.0][2])
        assert by_cost[3.0][4] == 2 and np.isfinite(by_cost[3.0][2])


class TestCli:
    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench"])
        assert exc.value.code == 2

    def test_unknown_problem_exit_2(self, capsys):
        rc = cli_main(["bench", "--problem", "rosenbrock", "--seeds", "1"])
        assert rc == 2
        assert "rosenbrock" in capsys.readouterr().err

    def test_unknown_policy_exit_2(self, capsys):
        rc = cli_main(["bench", "--problem", "currin2", "--policies", "dqn"])
        assert rc == 2
        assert "dqn" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--noise", "-1"), ("--candidates", "0"), ("--policies", ","),
    ])
    def test_bad_bench_value_exit_2(self, flag, value, capsys):
        rc = cli_main(["bench", "--problem", "currin2", flag, value])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bench_defaults_come_from_config(self):
        args = _build_parser().parse_args(["bench", "--problem", "currin2"])
        assert _config_from_args(args) == ExperimentConfig(
            problem="currin2", out_dir="results/currin2")

    def test_bench_tiny_run_exit_0(self, tmp_path, capsys):
        rc = cli_main([
            "bench", "--problem", "currin2", "--budget-mult", "2",
            "--seeds", "1", "--candidates", "32", "--hyperfit-every", "0",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        assert (tmp_path / "o" / "traces.csv").exists()
        out = capsys.readouterr().out
        assert "final mean simple regret" in out

    def test_run_subcommand_with_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "e.cfg"
        cfgfile.write_text(
            "problem = currin2\nbudget_mult = 2\nseeds = 1\nout = %s\n"
            "[policy]\ncandidates = 32\nhyperfit_every = 0\n" % (tmp_path / "ro")
        )
        rc = cli_main(["run", "--config", str(cfgfile)])
        assert rc == 0
        assert (tmp_path / "ro" / "summary.csv").exists()

    def test_run_missing_config_exit_2(self, tmp_path, capsys):
        rc = cli_main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2

    def test_config_error_names_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("problem = currin2\nseeds 3\n")
        rc = cli_main(["run", "--config", str(cfgfile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.cfg:2" in err

    def test_bad_config_value_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("problem = currin2\n[policy]\nsubroutine = gp_ei\n")
        rc = cli_main(["run", "--config", str(cfgfile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: unknown subroutine 'gp_ei' (known: gp_ucb, gp_mi)"]
