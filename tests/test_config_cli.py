"""Config ingestion, CLI subcommands, exit codes, and scenario execution."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmsync
from swarmsync import (
    SCENARIOS,
    ConfigError,
    dump_config,
    load_config,
    parse_config,
    run_scenario,
)
from swarmsync.cli import main
from swarmsync.dynamics import STEP_BUDGET, _step_counts

BASE_DOC = {
    "n": 2,
    "theta0_deg": [-60.0, 60.0],
    "gains": [-1.0, -1.0],
    "t_max": 30.0,
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_config(dict(BASE_DOC))
        assert cfg.n == 2
        np.testing.assert_allclose(cfg.theta0, np.deg2rad([-60.0, 60.0]))
        assert cfg.topology is None
        assert cfg.dt == 0.01

    def test_named_gain_set(self):
        cfg = parse_config({**BASE_DOC, "n": 3, "theta0_deg": [0, 10, 20], "gains": "set1"})
        np.testing.assert_allclose(cfg.gains.gains, [-1.0, -2.0, -3.0])

    def test_ring_topology(self):
        cfg = parse_config(
            {**BASE_DOC, "n": 3, "theta0_deg": [0, 10, 20], "gains": "set2", "topology": "ring"}
        )
        assert cfg.topology is not None and cfg.topology.edge_count == 3

    def test_explicit_edges(self):
        cfg = parse_config(
            {
                **BASE_DOC,
                "n": 3,
                "theta0_deg": [0, 10, 20],
                "gains": "set2",
                "topology": {"edges": [[0, 1], [1, 2]]},
            }
        )
        assert cfg.topology.edges == ((0, 1), (1, 2))

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="thetas"):
            parse_config({**BASE_DOC, "thetas": [1, 2]})

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="gains"):
            parse_config({"n": 2, "theta0_deg": [0.0, 1.0]})

    def test_bad_gain_length_named(self):
        with pytest.raises(ConfigError, match="gains"):
            parse_config({**BASE_DOC, "gains": [-1.0]})

    def test_bad_edge_rejected(self):
        with pytest.raises(ConfigError, match="edges"):
            parse_config({**BASE_DOC, "topology": {"edges": [[0, 0]]}})

    def test_round_trip_is_idempotent(self, tmp_path):
        doc = {
            **BASE_DOC,
            "n": 3,
            "theta0_deg": [0, 10, 20],
            "gains": "set2",
            "topology": "ring",
            "u_max": 0.5,
            "seed": 4,
        }
        first = dump_config(parse_config(doc))
        second = dump_config(parse_config(first))
        assert first == second

    def test_load_config_reports_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestCliCommands:
    def test_simulate_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["synchronized"] is True
        assert (tmp_path / "out" / "trajectory.csv").exists()
        report = json.loads((tmp_path / "out" / "convergence.json").read_text())
        assert report["synchronized"] is True
        assert abs(report["final_heading_common_deg"]) < 0.1

    def test_simulate_no_sync_exits_two(self, tmp_path, capsys):
        doc = {**BASE_DOC, "theta0_deg": [0.0, 180.0], "t_max": 5.0}
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["synchronized"] is False

    def test_malformed_config_exits_one_with_error_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE_DOC, "gains": [0.0, -1.0]})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert "K_0" in err["message"] or "gain" in err["message"]

    def test_predict(self, tmp_path, capsys):
        doc = {
            "n": 6,
            "theta0_deg": [-60, -45, -30, 30, 45, 60],
            "gains": "set2",
            "t_max": 10.0,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["predict", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["theta_c_deg"] == pytest.approx(155.0 / 7.0, abs=1e-6)

    def test_reachable_rejects_extreme_ray(self, tmp_path, capsys):
        doc = {**BASE_DOC, "n": 6, "theta0_deg": [-60, -45, -30, 30, 45, 60], "gains": "set1"}
        cfg = write_config(tmp_path, doc)
        assert main(["reachable", "--config", str(cfg), "--target-deg", "60"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reachable_negative_gains"] is False

    def test_synthesize_then_simulate_round_trip(self, tmp_path, capsys):
        doc = {
            "n": 6,
            "theta0_deg": [-60, -45, -30, 30, 45, 60],
            "gains": "set1",
            "t_max": 40.0,
        }
        cfg = write_config(tmp_path, doc)
        code = main(
            ["synthesize", "--config", str(cfg), "--target-deg", "10", "--out", str(tmp_path)]
        )
        assert code == 0
        synth = json.loads(capsys.readouterr().out)
        assert synth["theta_c_deg"] == pytest.approx(10.0, abs=1e-9)
        new_cfg = tmp_path / "config_synthesized.json"
        assert new_cfg.exists()
        code = main(["simulate", "--config", str(new_cfg), "--out", str(tmp_path / "rt")])
        assert code == 0
        report = json.loads((tmp_path / "rt" / "convergence.json").read_text())
        assert report["final_heading_common_deg"] == pytest.approx(10.0, abs=0.06)

    def test_perturb(self, tmp_path, capsys):
        doc = {**BASE_DOC, "n": 6, "theta0_deg": [-60, -45, -30, 30, 45, 60], "gains": "set1"}
        cfg = write_config(tmp_path, doc)
        assert main(["perturb", "--config", str(cfg), "--eta", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mean_direction_deg"] == pytest.approx(60.0, abs=1e-9)
        assert np.degrees(out["delta_lower"]) == pytest.approx(40.0, abs=1e-9)

    def test_classify(self, tmp_path, capsys):
        doc = {**BASE_DOC, "theta0_deg": [25.0, 25.0]}
        cfg = write_config(tmp_path, doc)
        assert main(["classify", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "sync_minimum"

    def test_analysis_error_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE_DOC, "theta0_deg": [-90.0, 90.0]})
        assert main(["predict", "--config", str(cfg)]) == 1
        assert "error" in json.loads(capsys.readouterr().out)

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SWARMSYNC_OUT", str(tmp_path / "envout"))
        cfg = write_config(tmp_path, BASE_DOC)
        assert main(["simulate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert (tmp_path / "envout" / "trajectory.csv").exists()

    def test_cli_determinism(self, tmp_path, capsys):
        doc = {**BASE_DOC, "seed": 9, "jitter": True, "t_max": 5.0}
        cfg = write_config(tmp_path, doc)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r1")])
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r2")])
        capsys.readouterr()
        a = (tmp_path / "r1" / "trajectory.csv").read_bytes()
        b = (tmp_path / "r2" / "trajectory.csv").read_bytes()
        assert a == b

    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE_DOC, "t_max": 2.0})
        # the child imports the package from where this process found it
        src = str(Path(swarmsync.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "swarmsync.cli", "predict", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["theta_c_deg"] == pytest.approx(0.0, abs=1e-9)


class TestScenario:
    def test_sim2_scenario(self, tmp_path):
        code, summary = run_scenario("sim2", tmp_path)
        assert code == 0
        assert summary["checks"]["a:final_heading_+120deg"]
        assert summary["checks"]["b:final_heading_-120deg"]
        assert (tmp_path / "sim2" / "a" / "trajectory.csv").exists()
        assert (tmp_path / "sim2" / "summary.json").exists()

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("sim9", tmp_path)

    def test_scenario_cli_override(self, tmp_path, capsys):
        code = main(["scenario", "sim2", "--out", str(tmp_path), "--t-max", "30"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert all(summary["checks"].values())


class TestRejectedInputs:
    """Each bad value ends in the error JSON with exit code 1 before any
    output is written: no traceback, truncation or late divergence."""

    def assert_rejected(self, tmp_path, capsys, doc, field, extra=()):
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out_dir), *extra])
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert field in err["message"]
        assert not out_dir.exists()

    def test_infinite_t_max_in_config(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, {**BASE_DOC, "t_max": float("inf")}, "t_max")

    def test_infinite_t_max_on_command_line(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, BASE_DOC, "t_max", extra=("--t-max", "inf"))

    def test_non_finite_dt(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, {**BASE_DOC, "dt": float("inf")}, "dt")

    def test_nan_omega0(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, {**BASE_DOC, "omega0": float("nan")}, "omega0")

    def test_non_integral_n(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, {**BASE_DOC, "n": 2.9}, "'n'")

    def test_non_integral_record_stride(self, tmp_path, capsys):
        self.assert_rejected(
            tmp_path, capsys, {**BASE_DOC, "record_stride": 1.7}, "record_stride"
        )

    def test_non_integral_seed(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, {**BASE_DOC, "seed": 0.5}, "seed")

    def test_string_boolean(self, tmp_path, capsys):
        """The string "false" is non-empty, so bool() would read it as True."""
        self.assert_rejected(
            tmp_path, capsys, {**BASE_DOC, "saturate": "false", "u_max": 0.01}, "saturate"
        )

    def test_non_finite_position(self, tmp_path, capsys):
        self.assert_rejected(
            tmp_path, capsys, {**BASE_DOC, "positions0": [[0.0, 0.0], [float("nan"), 0.0]]},
            "positions0",
        )

    def test_record_above_budget(self, tmp_path, capsys):
        """1e9 samples of 2 agents; rejected before any array is allocated."""
        self.assert_rejected(tmp_path, capsys, {**BASE_DOC, "t_max": 1e7}, "t_max")

    def test_steps_above_budget(self, tmp_path, capsys):
        """4e6 recorded values fit the record budget, but 2e8 RK4 steps would
        run for hours; every bundled scenario and a 10^4-agent ring for 10 s
        stay inside the step budget."""
        doc = {**BASE_DOC, "t_max": 2e6, "record_stride": 100}
        with pytest.raises(ValueError, match="step budget"):  # before a run could start
            _step_counts(parse_config(doc))
        self.assert_rejected(tmp_path, capsys, doc, "step budget")
        target = parse_config({
            "n": 10_000, "theta0_deg": [0.0] * 10_000, "gains": [-1.0] * 10_000,
            "topology": "ring", "t_max": 10.0, "record_stride": 10,
        })
        configs = [target] + [cfg for build in SCENARIOS.values() for _, cfg in build()]
        assert max(_step_counts(cfg)[0] for cfg in configs) <= STEP_BUDGET

    def test_budget_binds_only_runs(self, tmp_path, capsys):
        """n = 4000 with the default horizon would record 4e7 values, above
        the budget; commands that record nothing still accept the config."""
        n = 4000
        doc = {"n": n, "theta0_deg": np.linspace(-60, 60, n).tolist(), "gains": [-1.0] * n}
        cfg = write_config(tmp_path, doc)
        assert main(["predict", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["theta_c_deg"] == pytest.approx(0.0, abs=1e-9)
        self.assert_rejected(tmp_path, capsys, doc, "record_stride")

    def test_integral_float_accepted(self):
        cfg = parse_config({**BASE_DOC, "n": 2.0, "record_stride": 3.0})
        assert cfg.n == 2 and isinstance(cfg.n, int)
        assert cfg.record_stride == 3
