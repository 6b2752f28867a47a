"""Config ingestion, CLI subcommands, exit codes, and scenario execution."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import re
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
from swarmsync import analysis, cli, config, dynamics, output, scenarios, synthesize_gains
from swarmsync.cli import main
from swarmsync.config import with_overrides
from swarmsync.dynamics import STEP_BUDGET, SimulationConfig, _step_counts, simulate
from swarmsync.output import write_run

BASE_DOC = {
    "n": 2,
    "theta0_deg": [-60.0, 60.0],
    "gains": [-1.0, -1.0],
    "t_max": 30.0,
}


SCENARIO_PINS = Path(__file__).parent / "scenario_outputs.sha256.json"


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_fresh(args, stdout=subprocess.PIPE, **env):
    """``python <args>`` in a new interpreter that imports the package from
    where this process found it, with env added to its environment."""
    src = str(Path(swarmsync.__file__).parents[1])
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )


def out_args(command, out_dir) -> list[str]:
    """`--out out_dir` for a command that writes files (simulate and
    synthesize); the commands that write nothing take no --out."""
    return ["--out", str(out_dir)] if command in ("simulate", "synthesize") else []


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

    @pytest.mark.parametrize("name", ["set1", "set3"])
    def test_named_gain_set_of_no_agents_is_a_config_error(self, name):
        """n = 0 with a named set: the gains field's error, as for any
        empty gain list, where set3 used to leak an IndexError."""
        with pytest.raises(ConfigError, match="field 'gains': gains must be a non-empty"):
            parse_config({**BASE_DOC, "n": 0, "theta0_deg": [], "gains": name})

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

    @pytest.mark.parametrize("seed", range(6))
    def test_dump_is_fixed_after_one_pass(self, seed):
        """Seeded configs with every field away from its default, read from
        JSON and built directly in radians: parse(dump(cfg)) has cfg's
        headings to 1 ulp and its other fields exactly, and dump(parse(dump(c)))
        == dump(c) for every parsed config c."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        doc = {
            "n": n,
            "theta0_deg": rng.uniform(-720.0, 720.0, n).tolist(),
            "gains": (-(10.0 ** rng.uniform(-3, 3, n))).tolist(),
            "positions0": rng.normal(0.0, 1e3, (n, 2)).tolist(),
            "omega0": float(rng.normal()),
            "topology": {"edges": [[k, int(rng.integers(k))] for k in range(1, n)]},
            "dt": float(rng.uniform(0.001, 0.1)),
            "t_max": float(rng.uniform(1.0, 50.0)),
            "u_max": float(rng.uniform(0.1, 5.0)),
            "saturate": True,
            "record_stride": int(rng.integers(2, 50)),
            "seed": int(rng.integers(0, 2**31)),
            "jitter": True,
        }
        parsed = parse_config(doc)
        built = dataclasses.replace(parsed, theta0=rng.uniform(-4 * np.pi, 4 * np.pi, n))
        for cfg in (parsed, built):
            dumped = dump_config(cfg)
            again = parse_config(dumped)
            assert dump_config(parse_config(dump_config(again))) == dump_config(again)
            ulps = np.abs(again.theta0 - cfg.theta0) / np.spacing(np.abs(cfg.theta0))
            assert ulps.max() <= 1.0
            assert dumped == {**dump_config(again), "theta0_deg": dumped["theta0_deg"]}
        assert dump_config(parse_config(dump_config(parsed))) == dump_config(parsed)
        required = ("n", "theta0_deg", "gains")
        defaults = dump_config(parse_config({k: doc[k] for k in required}))
        assert all(dump_config(parsed)[k] != defaults[k] for k in set(doc) - set(required))

    def test_load_config_reports_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestSchema:
    """config._FIELDS is the one statement of the config schema."""

    def test_fields_are_the_simulation_config_attributes(self):
        attrs = [attr for attr, _, _ in config._FIELDS.values()]
        assert sorted(attrs) == sorted(f.name for f in dataclasses.fields(SimulationConfig))

    def test_readme_table_lists_the_fields(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("### Config schema", 1)[1].split("\n\n", 2)[1]
        listed = [row.split("`")[1] for row in table.splitlines()[2:]]
        assert sorted(listed) == sorted(config._FIELDS)

    @pytest.mark.parametrize("name,attr", [(name, row[0]) for name, row in config._FIELDS.items()])
    def test_null_means_a_none_default_only(self, name, attr):
        """null reads as the field left out where SimulationConfig's default
        is None, and is an error naming the field everywhere else."""
        default = next(f.default for f in dataclasses.fields(SimulationConfig) if f.name == attr)
        doc = {**TestClosedFormCommands.SYNTH_DOC, "saturate": False, "jitter": True}
        if default is None:
            left_out = {k: v for k, v in doc.items() if k != name}
            assert dump_config(parse_config({**doc, name: None})) == dump_config(
                parse_config(left_out))
        else:
            with pytest.raises(ConfigError, match=f"^field '{name}': "):
                parse_config({**doc, name: None})


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

    @pytest.mark.parametrize("topology", ["complete", "ring"])
    @pytest.mark.parametrize("clip", [{}, {"u_max": 0.2, "saturate": True}], ids=["free", "sat"])
    def test_negative_zero_heading_writes_the_bytes_of_positive_zero(self, tmp_path, topology,
                                                                     clip):
        """An initial heading of -0.0 reads as +0.0: the run writes the same
        trajectory.csv and convergence.json bytes as one starting at 0.0."""
        written = []
        for zero in (-0.0, 0.0):
            doc = {"n": 3, "theta0_deg": [zero, 40.0, -40.0], "gains": [-1.0, -0.5, -2.0],
                   "topology": topology, "t_max": 10.0, "record_stride": 5, **clip}
            out = tmp_path / repr(zero)
            cfg = write_config(tmp_path, doc, f"{zero!r}.json")
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
            written.append([code] + [(out / f).read_bytes()
                                     for f in ("trajectory.csv", "convergence.json")])
        assert written[0] == written[1]

    def test_simulate_no_sync_exits_two(self, tmp_path, capsys):
        doc = {**BASE_DOC, "theta0_deg": [0.0, 180.0], "t_max": 5.0}
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["synchronized"] is False

    def test_disconnected_graph_warns_on_stderr(self, tmp_path):
        """A run on two components does not synchronize: exit 2, with the
        run-start warning on stderr."""
        doc = {"n": 4, "theta0_deg": [-30.0, 10.0, 40.0, 80.0], "gains": [-1.0] * 4,
               "topology": {"edges": [[0, 1], [2, 3]]}, "t_max": 5.0}
        proc = run_fresh(["-m", "swarmsync.cli", "simulate", "--config",
                          str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert strict_json(proc.stdout)["synchronized"] is False
        assert proc.stderr.count("UserWarning: interaction graph is not connected; "
                                 "synchronization is not guaranteed\n") == 1

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

    @pytest.mark.parametrize("argv", [
        ["synthesize", "--config", "CFG", "--target-deg", "1", "--c", "-x"],
        ["bogus"],
        ["simulate", "--config", "CFG", "--dt", "abc"],
        ["simulate", "--config", "CFG", "--t-max"],
        ["simulate", "--config", "CFG", "--unknown", "1"],
        ["scenario", "no-such-scenario"],
        ["predict"],
        [],
    ], ids=["dash-value", "unknown-command", "bad-float", "missing-value", "unknown-option",
            "unknown-scenario", "missing-config", "no-command"])
    def test_argument_errors_exit_one_with_error_json(self, tmp_path, capsys, argv):
        """Exit 2 means a run finished without synchronizing, so a command
        line the parser rejects gives the error JSON and exit 1, with
        nothing on stderr and nothing written."""
        cfg = str(write_config(tmp_path, BASE_DOC))
        out = tmp_path / "out"
        argv = [cfg if a == "CFG" else a for a in argv]
        assert main([*argv, "--out", str(out)] if argv else argv) == 1
        captured = capsys.readouterr()
        err = strict_json(captured.out)["error"]
        assert err["type"] == "UsageError" and err["message"].startswith("swarmsync")
        assert captured.err == ""
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: swarmsync simulate")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv,written", [
        (["simulate", "--config", "CFG", "--out", "OUT"], ["trajectory.csv", "convergence.json"]),
        (["synthesize", "--target-deg", "1", "--c", "-1e-3", "--config", "CFG", "--out", "OUT"],
         ["config_synthesized.json"]),
        (["simulate", "--config", "MISSING", "--out", "OUT"], []),
        (["predict", "--config", "PAIR"], []),
        (["classify", "--config", "CFG", "--seed", "-1"], []),
    ], ids=["simulate", "synthesize", "missing-config", "mixed-gains", "rejected-option"])
    def test_closed_stdout_exits_one_quietly(self, tmp_path, argv, written, unbuffered):
        """A reader that has closed stdout before the JSON is printed (`| head`
        that has exited): exit 1 with nothing on stderr, where a second
        attempt to print the error JSON once raised out of main, and a
        buffered stdout fails again at exit. The files the command wrote
        stay. The error JSON of a missing config, of predict on mixed-sign
        gains and of a rejected option meets the same closed stdout: each
        once printed a BrokenPipeError traceback on stderr."""
        paths = {"CFG": write_config(tmp_path, {**BASE_DOC, "t_max": 2.0}),
                 "PAIR": write_config(tmp_path, {**BASE_DOC, "gains": [-3.0, 1.0]}, "pair.json"),
                 "MISSING": tmp_path / "missing.json", "OUT": tmp_path / "out"}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_fresh(["-m", "swarmsync.cli", *(str(paths.get(a, a)) for a in argv)],
                             stdout=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert (tmp_path / "out").exists() == bool(written)
        for name in written:
            assert (tmp_path / "out" / name).is_file(), name

    @pytest.mark.parametrize("argv", [
        *([command, "--config", "CFG", *extra, option, value]
          for command, extra in (("predict", []), ("reachable", ["--target-deg", "10"]),
                                 ("perturb", ["--eta", "0.3"]), ("classify", []))
          for option, value in (("--out", "OUT"), ("--dt", "0.01"), ("--t-max", "1"),
                                ("--seed", "1"))),
        ["scenario", "sim2", "--out", "OUT", "--seed", "1"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_removed_options_are_rejected(self, tmp_path, capsys, monkeypatch, argv):
        """predict, reachable, perturb and classify read only the config's
        headings and gains, and a scenario's runs draw nothing: the options
        they once accepted and ignored (and still validated, so that
        `predict --t-max 0.001` failed with "t_max must exceed dt") give the
        UsageError JSON naming the option, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        cfg, out = write_config(tmp_path, BASE_DOC), tmp_path / "out"
        argv = [{"CFG": str(cfg), "OUT": str(out)}.get(a, a) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert strict_json(captured.out)["error"] == {
            "type": "UsageError", "message": f"swarmsync: unrecognized arguments: {argv[-2]} "
                                             f"{argv[-1]}"}
        assert captured.err == ""
        assert not out.exists() and list(tmp_path.iterdir()) == [cfg]

    def test_readme_quick_start_runs_as_documented(self, tmp_path, capsys, monkeypatch):
        """README's quick start: each command line, run on its pair.json in
        a fresh directory, exits with the code its comment states, and each
        error message is the one the text quotes."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Quick start (CLI)\n", 1)[1].split("\n## ", 1)[0]
        pair, lines = re.findall(r"^```(?:json)?\n(.*?)^```$", section, re.M | re.S)[:2]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pair.json").write_text(pair)
        prose = " ".join(section.split())
        commands = re.findall(r"^swarmsync (.*?) +# exit (\d)$", lines, re.M)
        assert len(commands) == len(lines.splitlines()) == len(cli._COMMANDS)
        for argv, code in commands:
            assert main(argv.split()) == int(code), argv
            doc = strict_json(capsys.readouterr().out)
            if code == "1":
                assert f'"{doc["error"]["message"]}"' in prose, argv


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
        code, summary = run_scenario(name, tmp_path / "batched", t_max=3.0)
        ref = tmp_path / "serial" / name
        configs, runs = {}, {}
        for run_name, cfg in SCENARIOS[name]():
            cfg = configs[run_name] = with_overrides(cfg, None, 3.0, None)
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

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_each_run_is_a_runnable_config(self, tmp_path, capsys, name):
        """A bundled run is a config a user could write: its document, run by
        `simulate --config` with the same overrides, writes the bytes the
        scenario writes for that run."""
        run_scenario(name, tmp_path / "scenario", t_max=3.0)
        for run_name, doc in scenarios._RUNS[name].items():
            out = tmp_path / "simulate" / run_name
            argv = ["simulate", "--config", str(write_config(tmp_path, doc, f"{run_name}.json")),
                    "--out", str(out), "--t-max", "3"]
            assert main(argv) in (0, 2)
            for file in ("trajectory.csv", "convergence.json"):
                expected = tmp_path / "scenario" / name / run_name / file
                assert (out / file).read_bytes() == expected.read_bytes(), (run_name, file)
        capsys.readouterr()

    @pytest.mark.parametrize("name, rows", [("sim1", 4), ("sim3-caps", 2), ("sim3-sat", 2)],
                             ids=["sim1", "sim3-caps", "sim3-sat"])
    def test_scenario_integrates_in_one_call(self, tmp_path, monkeypatch, name, rows):
        """The mean-field and ring runs of a scenario share one batch."""
        calls = []
        integrate = dynamics._integrate

        def counted(y0, *args):
            calls.append(y0.shape[1])
            return integrate(y0, *args)

        monkeypatch.setattr(dynamics, "_integrate", counted)
        run_scenario(name, tmp_path, t_max=2.0)
        assert calls == [rows]

    @pytest.mark.parametrize("name, executed, nominal", [("sim2", 3303, 6000),
                                                         ("sim3-sat", 17833, 30000)],
                             ids=["sim2", "sim3-sat"])
    def test_fixed_point_skips_steps(self, tmp_path, executed_steps, name, executed, nominal):
        """The batch's headings reach a fixed point of the RK4 map, after which
        no step is taken: the RK4 steps taken at full length."""
        code, _ = run_scenario(name, tmp_path)
        assert code == 0
        assert executed_steps[0] == executed
        assert dynamics._step_counts(SCENARIOS[name]()[0][1])[0] == nominal

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


SIX_DOC = {**BASE_DOC, "n": 6, "theta0_deg": [-60, -45, -30, 30, 45, 60], "gains": "set1",
           "t_max": 40.0}

THETA6 = np.deg2rad(SIX_DOC["theta0_deg"])

# each report: a function making one, the one entry its to_dict() adds to its fields
# (kind replaces the enum by its string), and the README outputs-table row
# of its keys
REPORTS = {
    dynamics.ConvergenceReport: (lambda: simulate(parse_config(SIX_DOC))[1],
                                 "final_heading_common_deg", "`convergence.json`"),
    analysis.ReachabilityReport: (lambda: swarmsync.is_reachable(THETA6, 0.1),
                                  "target_deg", "`reachable` stdout"),
    analysis.PerturbationBounds: (lambda: swarmsync.perturbation_bounds(THETA6, 0.3),
                                  "mean_direction_deg", "`perturb` stdout"),
    analysis.CriticalPointConfig: (
        lambda: swarmsync.classify_critical_point(np.deg2rad([25.0, 25.0, 205.0])),
        "kind", "`classify` stdout"),
}


def json_keys(doc: dict) -> set:
    """The keys of a CLI JSON object, with those of the error JSON's object."""
    return set(doc) | set(doc.get("error", ()))


@pytest.fixture(scope="module")
def scenario_outputs(tmp_path_factory):
    """Each bundled scenario through the CLI at full length: its exit code,
    its stdout and its output directory."""
    out = tmp_path_factory.mktemp("scenarios")
    runs = {}
    for name in sorted(SCENARIOS):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["scenario", name, "--out", str(out)])
        runs[name] = code, buf.getvalue(), out / name
    return runs


def command_outputs(tmp_path, capsys) -> dict[str, list[str]]:
    """The JSON texts of the commands other than scenario, by the README
    outputs-table row that lists their keys; synthesize also writes
    tmp_path/out/config_synthesized.json."""
    six = str(write_config(tmp_path, SIX_DOC, "six.json"))
    sync = str(write_config(tmp_path, {**BASE_DOC, "theta0_deg": [25, 25]}, "sync.json"))
    saddle = str(write_config(tmp_path, {**BASE_DOC, "n": 3, "theta0_deg": [25, 25, 205],
                                         "gains": [-1, -1, -1]}, "saddle.json"))
    out = tmp_path / "out"
    texts: dict[str, list[str]] = {}

    def run(row, *argv, code=0):
        assert main(list(argv)) == code, argv
        texts.setdefault(row, []).append(capsys.readouterr().out)

    run("`simulate` stdout", "simulate", "--config", six, "--out", str(out))
    texts["`convergence.json`"] = [(out / "convergence.json").read_text()]
    run("`predict` stdout", "predict", "--config", six)
    for target in ("10", "120"):
        run("`reachable` stdout", "reachable", "--config", six, "--target-deg", target)
    run("`synthesize` stdout", "synthesize", "--config", six, "--target-deg", "10",
        "--out", str(out))
    run("`perturb` stdout", "perturb", "--config", six, "--eta", "0.3")
    for cfg in (sync, saddle):
        run("`classify` stdout", "classify", "--config", cfg)
    run("any command, exit 1", "classify", "--config", six, code=1)
    run("any command, exit 1", "reachable", "--config", six, "--target-deg", "nan", code=1)
    return texts


def synthesize_300_signed_zeros():
    """A seeded acute config of 300 agents whose positions0 rows are each
    [0.0, -0.0], [-0.0, 0.0] or [0.0, 0.0], and a synthesize command line
    with a target inside its arc: in the document synthesize writes, 298 of
    the gains are equal and the rows repeat with their signed zeros."""
    rng = np.random.default_rng(2027)
    hat = np.concatenate([[0.0, 1.7], rng.uniform(0.0, 1.7, 298)])
    zeros = [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]
    doc = {"n": 300, "theta0_deg": np.degrees(hat - 0.6).tolist(), "gains": "set2",
           "positions0": [zeros[i] for i in rng.integers(0, 3, 300)]}
    target = repr(float(np.degrees(0.55)))
    return doc, ["synthesize", "--config", "cfg.json", "--target-deg", target, "--out", "out"]


# name: (config document, command line with the config as cfg.json), each
# run in a fresh directory, writing under its relative directory "out"
PINNED_COMMANDS = {
    "classify-saddle": ({**BASE_DOC, "n": 3, "theta0_deg": [25, 25, 205], "gains": [-1, -1, -1]},
                        ["classify", "--config", "cfg.json"]),
    "error-json": ({**BASE_DOC, "gains": [0.0, -1.0]},
                   ["simulate", "--config", "cfg.json", "--out", "out"]),
    "simulate-saturated-ring-omega0": (
        {**SIX_DOC, "topology": "ring", "omega0": 0.3, "u_max": 0.5, "saturate": True,
         "t_max": 12.0, "record_stride": 2},
        ["simulate", "--config", "cfg.json", "--out", "out"]),
    # its headings reach a fixed point of the RK4 map at step 1432 of 3000
    "simulate-two-agents-fixed-point": ({**BASE_DOC, "gains": [-2.0, -3.0]},
                                        ["simulate", "--config", "cfg.json", "--out", "out"]),
    "synthesize": (SIX_DOC, ["synthesize", "--config", "cfg.json", "--target-deg", "10",
                             "--out", "out"]),
    "synthesize-300-signed-zeros": synthesize_300_signed_zeros(),
}


def assert_matches_pin(kind, name, code, stdout, out):
    """The exit code, the sha256 of stdout and of each file under out equal
    the pin of name in the kind section of tests/scenario_outputs.sha256.json;
    a failure names each file that moved and both numpy versions and platforms."""
    pins = json.loads(SCENARIO_PINS.read_text())
    pin, captured = pins[kind][name], pins["captured_with"]
    where = (f"numpy {np.__version__} on {platform.system()} {platform.machine()}, pinned "
             f"with numpy {captured['numpy']} on {captured['platform']}")
    files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in out.rglob("*") if p.is_file()}
    assert code == pin["exit"], f"{name}: exit code {code}, pinned {pin['exit']} ({where})"
    assert hashlib.sha256(stdout.encode()).hexdigest() == pin["stdout"], (
        f"{name}: stdout differs from its pin ({where})")
    moved = sorted(rel for rel in files.keys() | pin["files"].keys()
                   if files.get(rel) != pin["files"].get(rel))
    assert not moved, f"{name}: {', '.join(moved)} differ from their pins ({where})"


class TestOutputs:
    """Each report's JSON is its fields plus one entry, and every JSON text
    the CLI prints or writes is strict JSON, with the keys README lists."""

    @pytest.mark.parametrize("cls", REPORTS, ids=lambda cls: cls.__name__)
    def test_to_dict_is_the_fields_and_one_entry(self, cls):
        make, extra, _ = REPORTS[cls]
        out = make().to_dict()
        assert set(out) == {f.name for f in dataclasses.fields(cls)} | {extra}
        strict_json(output.json_text(out))

    def test_command_outputs_are_strict_json(self, tmp_path, capsys):
        for texts in command_outputs(tmp_path, capsys).values():
            for text in texts:
                strict_json(text)
        synthesized = strict_json((tmp_path / "out" / "config_synthesized.json").read_text())
        assert set(synthesized) == set(config._FIELDS)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_outputs_are_strict_json(self, scenario_outputs, name):
        code, stdout, out = scenario_outputs[name]
        assert code == 0
        assert strict_json((out / "summary.json").read_text()) == strict_json(stdout)
        runs = sorted(p.parent.name for p in out.glob("*/convergence.json"))
        assert runs == sorted(strict_json(stdout)["runs"])
        for run in runs:
            strict_json((out / run / "convergence.json").read_text())

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_outputs_match_their_pinned_hashes(self, scenario_outputs, name):
        """The exit code, the sha256 of stdout and of each file of a bundled
        scenario at full length equal the pins of tests/scenario_outputs.sha256.json.
        A speedup must keep these bytes; a failure names each file that moved
        and the numpy and platform of both runs, as a float's last bit may
        differ across numpy builds."""
        assert_matches_pin("scenarios", name, *scenario_outputs[name])

    @pytest.mark.parametrize("name", sorted(PINNED_COMMANDS))
    def test_command_outputs_match_their_pinned_hashes(self, tmp_path, monkeypatch, capsys,
                                                       name):
        """As the scenario pins, for the fast commands of PINNED_COMMANDS."""
        doc, argv = PINNED_COMMANDS[name]
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, doc)
        code = main(argv)
        assert_matches_pin("commands", name, code, capsys.readouterr().out, tmp_path / "out")

    def test_readme_table_lists_the_keys(self, tmp_path, capsys, scenario_outputs):
        """Each row of README's outputs table lists the keys the CLI gives,
        and a report's row its fields plus its one extra entry."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Outputs", 1)[1]
        table = next(b for b in section.split("\n\n") if b.startswith("| output"))
        listed = {}
        for row in table.splitlines()[2:]:
            label, keys = row.strip("| ").split(" | ")
            listed[label] = set(re.findall(r"`([^`]+)`", keys))
        given = {row: set().union(*(json_keys(json.loads(t)) for t in texts))
                 for row, texts in command_outputs(tmp_path, capsys).items()}
        summaries = [json.loads(stdout) for _, stdout, _ in scenario_outputs.values()]
        given["`summary.json`, `scenario` stdout"] = set().union(*map(set, summaries))
        given["a run in `summary.json`"] = {key for summary in summaries
                                            for run in summary["runs"].values() for key in run}
        assert listed == given
        for cls, (_, extra, row) in REPORTS.items():
            assert listed[row] == {f.name for f in dataclasses.fields(cls)} | {extra}


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
            ["predict", "--config", cfg, "--t-max", "0.5"],  # a UsageError
        ]
        in_process = []
        for argv in calls:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        for argv, (code, stdout) in zip(calls, in_process):
            fresh = run_fresh(["-m", "swarmsync.cli", *argv])
            assert (fresh.returncode, fresh.stdout) == (code, stdout), argv
        assert [code for code, _ in in_process] == [2, 0, 0, 0, 2, 0, 1, 1]
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
                         *out_args(command, out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        err = strict_json(captured.out)["error"]
        assert err["type"] == "ValueError" and "target" in err["message"]
        assert captured.err == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["reachable", "synthesize"])
    @pytest.mark.parametrize("target", ["1e308", "-1e308", "5.8e7"])
    def test_target_beyond_bound(self, tmp_path, capsys, command, target):
        """A finite target past 1e6 rad once ran and answered for an angle
        that is pure roundoff; now the error JSON names the bound."""
        cfg = write_config(tmp_path, {**BASE_DOC, "n": 3, "theta0_deg": [-40.0, 5.0, 30.0],
                                      "gains": "set1"})
        out_dir = tmp_path / "out"
        code = main([command, "--config", str(cfg), f"--target-deg={target}",
                     *out_args(command, out_dir)])
        assert code == 1
        err = strict_json(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith("|target| must be at most 1e+06 rad (5.73e+07 deg)")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["reachable", "synthesize"])
    def test_whole_turns_of_target(self, tmp_path, capsys, command):
        """-720, 0 and 720 deg away from a target give the same answer."""
        cfg = write_config(tmp_path, {**BASE_DOC, "n": 3, "theta0_deg": [-40.0, 5.0, 30.0],
                                      "gains": "set1"})
        docs = []
        for target in ("-710", "10", "730"):
            assert main([command, "--config", str(cfg), f"--target-deg={target}",
                         *out_args(command, tmp_path / target)]) == 0
            doc = strict_json(capsys.readouterr().out)
            docs.append(doc["gains"] if command == "synthesize"
                        else [doc["target"], doc["reachable_negative_gains"]])
        np.testing.assert_allclose(docs[0], docs[1], rtol=1e-9)
        np.testing.assert_allclose(docs[2], docs[1], rtol=1e-9)

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

    @pytest.mark.parametrize("argv, gains, names", [
        (["predict"], [-1.0, -1e-320, -2.0], "K_1"),
        (["simulate"], [-1.0, -1e-320, -2.0], "K_1"),
        (["synthesize", "--target-deg", "0", "--c", "-1e-320"], "set1", "K_0"),
        (["synthesize", "--target-deg", "0", "--c", "-1e308"], "set1", "K_0 = -inf is not finite"),
    ], ids=["predict", "simulate", "synthesize-tiny-c", "synthesize-huge-c"])
    def test_gain_without_a_finite_reciprocal(self, tmp_path, argv, gains, names):
        """A gain whose 1/K overflows once gave predict the error "Out of
        range float values are not JSON compliant: nan" with numpy warnings,
        and simulate a conserved column of -inf and exit 2. Now each is the
        error JSON naming the gain, exit 1 and nothing on stderr."""
        cfg = write_config(tmp_path, {**BASE_DOC, "n": 3, "theta0_deg": [-40.0, 5.0, 30.0],
                                      "gains": gains, "t_max": 1.0})
        out_dir = tmp_path / "out"
        proc = run_fresh(["-m", "swarmsync.cli", argv[0], "--config", str(cfg), *argv[1:],
                          *out_args(argv[0], out_dir)])
        assert (proc.returncode, proc.stderr) == (1, "")
        assert names in strict_json(proc.stdout)["error"]["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("theta0_deg, expected_deg, overflows", [
        ([-40.0, 5.0, 30.0], -17.5, False), ([40.0, 50.0, 30.0], 45.0, True)])
    def test_gains_at_the_reciprocal_limit(self, tmp_path, theta0_deg, expected_deg, overflows):
        """Gains of -6e-309 have a finite 1/K near the largest float. predict
        once printed numpy's overflow warning and answered -40 or 30 deg, the
        third heading's; simulate printed the overflow of the conserved
        column. Now predict answers the 1/K-weighted direction, simulate exits
        2 (the two slow agents do not sync by t_max) with that column -inf
        where it overflows, and neither writes to stderr."""
        cfg = write_config(tmp_path, {**BASE_DOC, "n": 3, "theta0_deg": theta0_deg,
                                      "gains": [-6e-309, -6e-309, -1.0], "t_max": 1.0})
        proc = run_fresh(["-m", "swarmsync.cli", "predict", "--config", str(cfg)])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert strict_json(proc.stdout)["theta_c_deg"] == pytest.approx(expected_deg, abs=1e-9)
        out_dir = tmp_path / "out"
        proc = run_fresh(["-m", "swarmsync.cli", "simulate", "--config", str(cfg),
                          "--out", str(out_dir)])
        assert (proc.returncode, proc.stderr) == (2, "")
        rows = (out_dir / "trajectory.csv").read_text().splitlines()[1:]
        conserved = np.array([float(row.rsplit(",", 1)[1]) for row in rows])
        assert conserved.size == 101  # t_max 1 s at the default dt 0.01 and stride 1
        assert np.all(conserved == -np.inf) if overflows else np.all(np.isfinite(conserved))


class TestStrictEntries:
    """Edge-list node indices are read with the integer rule of n and seed,
    and record_stride is bounded by the step budget: each wrong value is a
    ConfigError naming its field, not a coerced value or an OverflowError."""

    EDGES = {**BASE_DOC, "n": 3, "theta0_deg": [0.0, 10.0, 20.0], "gains": [-1.0] * 3}

    @pytest.mark.parametrize("entry", [1.5, True, "1", None, float("inf"), float("nan"), [1]],
                             ids=repr)
    def test_edge_entry_rejected(self, entry):
        with pytest.raises(ConfigError, match="topology.edges"):
            parse_config({**self.EDGES, "topology": {"edges": [[0, entry], [1, 2]]}})

    @pytest.mark.parametrize("edges", [None, 3, "01", [[0, 1, 2]], [0, 1], {"a": 1}], ids=repr)
    def test_edge_list_shape_rejected(self, edges):
        with pytest.raises(ConfigError, match="topology.edges"):
            parse_config({**self.EDGES, "topology": {"edges": edges}})

    def test_integral_float_edge_entry_accepted(self):
        cfg = parse_config({**self.EDGES, "topology": {"edges": [[0, 1.0], [2.0, 1]]}})
        assert cfg.topology.edges == ((0, 1), (1, 2))
        assert all(type(v) is int for e in cfg.topology.edges for v in e)

    def test_record_stride_bounded_by_the_step_budget(self):
        assert parse_config({**BASE_DOC, "record_stride": STEP_BUDGET}).record_stride == STEP_BUDGET
        for stride in (STEP_BUDGET + 1, 1e300, 10**400, 0):
            with pytest.raises(ConfigError, match="record_stride"):
                parse_config({**BASE_DOC, "record_stride": stride})


def fuzz_doc(seed: int) -> dict:
    """A valid, short neighbour-law run of four agents drawn from the seed,
    with every optional field set so that every field can be mutated."""
    rng = np.random.default_rng(seed)
    return {
        "n": 4,
        "theta0_deg": rng.uniform(-60.0, 60.0, 4).tolist(),
        "gains": (-rng.uniform(0.5, 2.0, 4)).tolist(),
        "positions0": rng.uniform(-3.0, 3.0, (4, 2)).tolist(),
        "omega0": 0.1,
        "topology": {"edges": [[0, 1], [1, 2], [2, 3]]},
        "dt": 0.05,
        "t_max": 1.0,
        "u_max": 2.0,
        "saturate": True,
        "record_stride": 2,
        "seed": 3,
        "jitter": True,
    }


def fuzz_paths(doc: dict) -> list[tuple]:
    """Every field, every entry of the list fields and every node index of
    the edge list, as key paths into doc."""
    out = [(name,) for name in doc]
    out += [(name, i) for name in ("theta0_deg", "gains") for i in range(len(doc[name]))]
    out += [("positions0", i, j) for i in range(len(doc["positions0"])) for j in range(2)]
    edges = doc["topology"]["edges"]
    out += [("topology", "edges", i, j) for i in range(len(edges)) for j in range(2)]
    return out


def mutated(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


class TestCliFuzz:
    """Seeded CLI fuzz: every field of a valid config, and every entry of its
    lists, is replaced by each value of a fixed menu of wrong or extreme JSON
    values. Each case must either run (exit 0 or 2, with its output files)
    or exit 1 with the error JSON and no output directory; an exception
    escaping ``main`` is the traceback a user would see."""

    MENU = {
        "null": None,
        "true": True,
        "string": "0",
        "list": [1.0],
        "object": {"a": 1},
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
        "1e308": 1e308,
        "negative": -1,
        "non-integral": 1.5,
    }

    @staticmethod
    def check_case(tmp_path, capsys, doc: dict, label: str) -> int:
        """`swarmsync simulate` on doc in-process: a run with its outputs, or
        the error JSON with no output directory."""
        case = tmp_path / label
        case.mkdir()
        cfg = write_config(case, doc)  # NaN and Infinity as the JSON reader accepts them
        out = case / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        stdout = json.loads(capsys.readouterr().out)
        if code == 1:
            assert set(stdout) == {"error"} and set(stdout["error"]) == {"type", "message"}, label
            assert not out.exists(), label
        else:
            assert code in (0, 2), label
            assert "error" not in stdout, label
            assert (out / "trajectory.csv").is_file(), label
            assert (out / "convergence.json").is_file(), label
        return code

    @pytest.mark.parametrize("path", fuzz_paths(fuzz_doc(0)), ids=lambda p: ".".join(map(str, p)))
    def test_every_menu_value_runs_or_fails_cleanly(self, tmp_path, capsys, path):
        doc = fuzz_doc(0)
        assert self.check_case(tmp_path, capsys, doc, "valid") in (0, 2)
        for name, value in self.MENU.items():
            self.check_case(tmp_path, capsys, mutated(doc, path, value), name)

    def test_seeded_double_mutations(self, tmp_path, capsys):
        """Two fields or entries mutated at once, drawn from a seeded
        generator, on base configs drawn from other seeds."""
        rng = np.random.default_rng(20)
        names = list(self.MENU)
        codes = set()
        for case in range(60):
            doc = fuzz_doc(int(rng.integers(1, 1000)))
            options = fuzz_paths(doc)
            picked = [options[k] for k in rng.choice(len(options), size=2, replace=False)]
            # the deeper path first, so the other one still leads through unmutated lists
            for path in sorted(picked, key=len, reverse=True):
                doc = mutated(doc, path, self.MENU[names[rng.integers(len(names))]])
            codes.add(self.check_case(tmp_path, capsys, doc, f"case{case}"))
        assert 1 in codes and codes & {0, 2}

    def test_huge_gain_warns_no_overflow(self, tmp_path, capsys):
        """Case gains.1 = 1e308 of the menu: a saturated run whose commands
        overflow to infinity and are clipped at u_max. Its recorded commands
        once printed numpy's overflow RuntimeWarning; the gain set's
        UserWarning is the only warning left."""
        doc = mutated(fuzz_doc(0), ("gains", 1), 1e308)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            assert self.check_case(tmp_path, capsys, doc, "huge-gain") in (0, 2)
            traj, _ = simulate(parse_config(doc))
        assert {w.category for w in caught} == {UserWarning}
        assert np.abs(traj.controls).max() == doc["u_max"] and traj.saturated[:, 1].any()

    ARG_MENU = {
        "negative-scientific": "-1e-3",
        "-inf": "-inf",
        "inf": "inf",
        "nan": "nan",
        "-0.0": "-0.0",
        "1e308": "1e308",
        "non-number": "x",
    }
    # each numeric option on each command that takes it, after the other
    # arguments the command requires
    ARG_CASES = {
        "simulate-dt": ["simulate", "--dt"],
        "simulate-t-max": ["simulate", "--t-max"],
        "simulate-seed": ["simulate", "--seed"],
        "reachable-target-deg": ["reachable", "--target-deg"],
        "synthesize-target-deg": ["synthesize", "--target-deg"],
        "synthesize-c": ["synthesize", "--target-deg", "1", "--c"],
        "perturb-eta": ["perturb", "--eta"],
    }

    @pytest.mark.parametrize("argv", ARG_CASES.values(), ids=ARG_CASES)
    def test_argument_values_run_or_fail_cleanly(self, tmp_path, capsys, argv):
        """Each menu value, given as the option's next argument: the command
        runs, or prints the error JSON with exit 1, and nothing goes to
        stderr. A number, negative ones included, is a value the command
        reads, never an option the parser cannot match."""
        cfg = str(write_config(tmp_path, fuzz_doc(0)))
        for label, value in self.ARG_MENU.items():
            out = tmp_path / label
            code = main([argv[0], "--config", cfg, *out_args(argv[0], out), *argv[1:], value])
            captured = capsys.readouterr()
            stdout = strict_json(captured.out)
            assert captured.err == "", label
            if code == 1:
                assert set(stdout) == {"error"} and set(stdout["error"]) == {"type", "message"}
                assert "expected one argument" not in stdout["error"]["message"], label
            else:
                assert code in (0, 2) and "error" not in stdout, label

    @pytest.mark.parametrize("path,value", [
        (("topology", "edges", 0, 1), math.inf),
        (("record_stride",), 1e300),
    ], ids=["infinite-edge-entry", "huge-record-stride"])
    def test_no_traceback_in_a_fresh_process(self, tmp_path, path, value):
        """The two inputs that once ended in an OverflowError traceback: an
        edge entry of Infinity (int(inf)) and a record_stride whose sample
        times overflow a C long."""
        cfg = write_config(tmp_path, mutated(fuzz_doc(0), path, value))
        out = tmp_path / "out"
        proc = run_fresh(["-m", "swarmsync.cli", "simulate", "--config", str(cfg),
                          "--out", str(out)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert path[0] in json.loads(proc.stdout)["error"]["message"]
        assert not out.exists()
