"""Config ingestion, CLI subcommands, exit codes, and scenario execution."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
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
from swarmsync import cli, dynamics, scenarios, synthesize_gains
from swarmsync.cli import main
from swarmsync.config import with_overrides
from swarmsync.dynamics import STEP_BUDGET, _step_counts, simulate, write_run

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


def run_fresh(args):
    """``python <args>`` in a new interpreter that imports the package from
    where this process found it."""
    src = str(Path(swarmsync.__file__).parents[1])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )


def strict_json(text):
    """json.loads that rejects the NaN/Infinity tokens json.dumps would
    write by default; they are not JSON."""
    def reject(token):
        raise AssertionError(f"non-JSON constant {token} in output")
    return json.loads(text, parse_constant=reject)


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

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_files_equal_the_serial_loop(self, tmp_path, name):
        """The batched scenario writes the bytes of the serial loop it
        replaced: one simulate() and write_run() per run, then the summary."""
        code, summary = run_scenario(name, tmp_path / "batched", t_max=3.0, seed=4)
        ref = tmp_path / "serial" / name
        configs, runs = {}, {}
        for run_name, cfg in SCENARIOS[name]():
            cfg = configs[run_name] = with_overrides(cfg, None, 3.0, 4)
            traj, report = simulate(cfg)
            write_run(ref / run_name, traj, report)
            runs[run_name] = scenarios._run_summary(cfg, traj, report)
        checks, observations = scenarios._scenario_checks(name, configs, runs)
        expected = {"scenario": name, "runs": runs, "checks": checks,
                    "observations": observations}
        (ref / "summary.json").write_text(json.dumps(expected, indent=2, sort_keys=True))
        assert summary == expected
        assert code == (0 if all(checks.values()) else 2)
        files = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
        assert len(files) == 2 * len(configs) + 1
        batched = tmp_path / "batched" / name
        assert files == sorted(p.relative_to(batched) for p in batched.rglob("*") if p.is_file())
        for rel in files:
            assert (batched / rel).read_bytes() == (ref / rel).read_bytes(), rel

    def test_sim1_integrates_in_two_calls(self, tmp_path, monkeypatch):
        """The two mean-field runs share one kernel, and the two ring runs
        another."""
        calls = []
        integrate = dynamics._integrate

        def counted(y0, *args):
            calls.append(y0.shape[1])
            return integrate(y0, *args)

        monkeypatch.setattr(dynamics, "_integrate", counted)
        run_scenario("sim1", tmp_path, t_max=2.0)
        assert calls == [2, 2]

    @pytest.mark.filterwarnings("error")
    def test_diverging_run_writes_nothing(self, tmp_path, capsys, monkeypatch):
        """Every run is integrated before any file is written, so a run that
        diverges leaves no run files and no summary.json, though the run
        before it is fine."""
        build = SCENARIOS["sim2"]

        def diverging():
            (name, cfg), (other, bad) = build()
            return [(name, cfg),
                    (other, dataclasses.replace(bad, gains=swarmsync.GainVector([-1e308, -1e308])))]

        monkeypatch.setitem(SCENARIOS, "sim2", diverging)
        out = tmp_path / "out"
        assert main(["scenario", "sim2", "--out", str(out), "--t-max", "5"]) == 1
        err = strict_json(capsys.readouterr().out)["error"]
        assert err["type"] == "DivergenceError"
        assert list(out.iterdir()) == []


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

    @pytest.mark.parametrize("field,value", [
        ("theta0_deg", {"a": 1}),
        ("dt", [0.01]),
        ("omega0", None),
        ("u_max", True),
        ("dt", True),
        ("n", True),
        ("gains", ["-1", "-1"]),
        ("theta0_deg", [0.0, None]),
        ("positions0", [[0.0, 0.0], [0.0, "1"]]),
        ("t_max", 10**400),
    ], ids=lambda v: repr(v)[:20])
    def test_wrong_json_type_named(self, tmp_path, capsys, field, value):
        """Each once ended in a TypeError traceback or was read as another
        value (true as 1.0, "-1" as -1.0)."""
        self.assert_rejected(tmp_path, capsys, {**BASE_DOC, field: value}, field)

    def test_negative_seed_named(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, {**BASE_DOC, "seed": -1, "jitter": True}, "seed")

    def test_integral_float_accepted(self):
        cfg = parse_config({**BASE_DOC, "n": 2.0, "record_stride": 3.0})
        assert cfg.n == 2 and isinstance(cfg.n, int)
        assert cfg.record_stride == 3


def old_dump_config(cfg):
    """dump_config as it was, converting one element at a time with float();
    dump_config must give the same JSON bytes."""
    topology = "complete" if cfg.topology is None else {
        "edges": [list(e) for e in cfg.topology.edges]}
    return {
        "n": cfg.n,
        "theta0_deg": [float(v) for v in np.degrees(cfg.theta0)],
        "gains": [float(v) for v in cfg.gains.gains],
        "positions0": [[float(x), float(y)] for x, y in cfg.positions0],
        "omega0": cfg.omega0,
        "topology": topology,
        "dt": cfg.dt,
        "t_max": cfg.t_max,
        "u_max": cfg.u_max,
        "saturate": cfg.saturate,
        "record_stride": cfg.record_stride,
        "seed": cfg.seed,
        "jitter": cfg.jitter,
    }


class TestClosedFormCommands:
    SYNTH_DOC = {
        "n": 4,
        "theta0_deg": [-50.0, -12.5, 0.1, 33.3],
        "gains": [-1.0, -0.5, -2.0, -1.5],
        "positions0": [[0.0, 1.0], [-2.5, 0.1], [3.0, -0.3], [1e-3, 7.0]],
        "omega0": 0.25,
        "topology": "ring",
        "t_max": 12.0,
        "u_max": 2.0,
        "saturate": True,
        "record_stride": 2,
        "seed": 5,
    }

    def test_synthesized_config_bytes(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, self.SYNTH_DOC)
        code = main(["synthesize", "--config", str(cfg_path), "--target-deg", "-3.7",
                     "--out", str(tmp_path)])
        assert code == 0
        gains = strict_json(capsys.readouterr().out)["gains"]
        cfg = load_config(cfg_path)
        synth = dataclasses.replace(
            cfg, gains=synthesize_gains(cfg.theta0, np.deg2rad(-3.7)))
        assert synth.gains.gains.tolist() == gains
        expected = json.dumps(old_dump_config(synth), indent=2, sort_keys=True)
        assert (tmp_path / "config_synthesized.json").read_text() == expected

    def test_synthesize_computes_one_frame(self, tmp_path, capsys, monkeypatch):
        """The synthesis and the prediction of the new gains share one rotated
        frame, and print what the two public calls give."""
        cfg_path = write_config(tmp_path, self.SYNTH_DOC)
        cfg = load_config(cfg_path)
        gains = synthesize_gains(cfg.theta0, np.deg2rad(-3.7), c=-2.0)
        theta_c = swarmsync.predict_direction(cfg.theta0, gains)
        frames = []
        rotated_frame = cli.analysis.rotated_frame
        monkeypatch.setattr(cli.analysis, "rotated_frame",
                            lambda theta0: frames.append(theta0) or rotated_frame(theta0))
        code = main(["synthesize", "--config", str(cfg_path), "--target-deg", "-3.7",
                     "--c=-2", "--out", str(tmp_path)])
        assert code == 0 and len(frames) == 1
        doc = strict_json(capsys.readouterr().out)
        assert doc["gains"] == gains.gains.tolist()
        assert (doc["theta_c"], doc["theta_c_deg"]) == (theta_c, float(np.degrees(theta_c)))

    def test_dump_config_equals_the_per_element_form(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 17, 300):
            cfg = parse_config({
                "n": n,
                "theta0_deg": rng.uniform(-179.0, 179.0, n).tolist(),
                "gains": (-(10.0 ** rng.uniform(-3, 3, n))).tolist(),
                "positions0": rng.normal(0.0, 1e3, (n, 2)).tolist(),
            })
            assert json.dumps(dump_config(cfg), indent=2, sort_keys=True) == json.dumps(
                old_dump_config(cfg), indent=2, sort_keys=True)

    def test_calls_in_one_process_equal_fresh_processes(self, tmp_path, capsys):
        """The parser is built once and reused; no call leaves state in it
        that a later call sees (an override, a default, an error)."""
        doc = {**BASE_DOC, "n": 3, "theta0_deg": [-40.0, 5.0, 30.0],
               "gains": [-1.0, -2.0, -0.5], "t_max": 3.0}
        cfg = str(write_config(tmp_path, doc))
        out = str(tmp_path / "out")
        calls = [
            ["simulate", "--config", cfg, "--out", out, "--dt", "0.02"],
            ["predict", "--config", cfg],
            ["synthesize", "--config", cfg, "--target-deg", "-10", "--c=-2.5", "--out", out],
            ["reachable", "--config", cfg, "--target-deg", "20"],
            ["simulate", "--config", cfg, "--out", out],
            ["synthesize", "--config", cfg, "--target-deg", "-10", "--out", out],
            ["reachable", "--config", cfg, "--target-deg", "nan"],
            ["predict", "--config", cfg, "--t-max", "0.5"],
        ]
        in_process = []
        for argv in calls:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        for argv, (code, stdout) in zip(calls, in_process):
            fresh = run_fresh(["-m", "swarmsync.cli", *argv])
            assert (fresh.returncode, fresh.stdout) == (code, stdout), argv
        assert [code for code, _ in in_process] == [2, 0, 0, 0, 2, 0, 1, 0]
        assert strict_json(in_process[2][1])["gains"] != strict_json(in_process[5][1])["gains"]

    def test_parser_built_once_and_not_at_import(self):
        assert cli._build_parser() is cli._build_parser()
        probe = run_fresh(
            ["-c", "import swarmsync.cli as c; print(c._build_parser.cache_info().currsize)"])
        assert probe.stdout == "0\n"

    @pytest.mark.parametrize("command", ["reachable", "synthesize"])
    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target(self, tmp_path, capsys, command, target):
        """Once printed "target": NaN (not JSON) and exited 0, and printed
        numpy warnings on stderr for an infinite target."""
        cfg = write_config(tmp_path, {**BASE_DOC, "n": 3, "theta0_deg": [-40.0, 5.0, 30.0],
                                      "gains": "set1"})
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg), f"--target-deg={target}",
                         "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        err = strict_json(captured.out)["error"]
        assert err["type"] == "ValueError" and "target" in err["message"]
        assert captured.err == ""
        assert not out_dir.exists()

    def test_nan_result_becomes_the_error_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.analysis, "predict_direction", lambda theta0, gains: float("nan"))
        cfg = write_config(tmp_path, BASE_DOC)
        assert main(["predict", "--config", str(cfg)]) == 1
        assert strict_json(capsys.readouterr().out)["error"]["type"] == "ValueError"

    def test_diverging_simulate_prints_no_warnings(self, tmp_path):
        """Gains near the float limit overflow the state: the error JSON and
        exit 1, with nothing on stderr (numpy's overflow/invalid warnings
        were printed before)."""
        cfg = write_config(tmp_path, {**BASE_DOC, "gains": [-1e308, -1e308], "t_max": 3.0})
        proc = run_fresh(["-m", "swarmsync.cli", "simulate", "--config", str(cfg),
                          "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert strict_json(proc.stdout)["error"]["type"] == "DivergenceError"
        assert proc.stderr == ""
