"""The two drivers as tables: the bundled scenarios' run parameters, the CLI's
command surface, the program names the benchmark harness looks up, and the
budget errors both drivers print."""

import argparse
import ast
import hashlib
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swarmsync import SCENARIOS, cli, output, scenarios
from swarmsync.cli import main
from swarmsync.config import dump_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# each scenario's runs in order, with the sha256 of each run's config as
# dump_config writes it; a changed parameter (t_max, a gain set, a position)
# or a reordered run changes a pin
SCENARIO_PINS = {
    "sim1": [
        ("set1-complete", "f553b39c63f7e5395bac0dd0b87c7f28ee493fbd76faf12d43debc631e62dd77"),
        ("set1-ring", "23862a4ae0eb4c7a0eff365fe40b5841b9e1f813a29e4ddaffb37939dbe92172"),
        ("set2-complete", "ea0360b5e7daae9be75903794439e00f0f0285db6f1613817f8fd6b1df0ebd29"),
        ("set2-ring", "a9990f39408381173e152ad0ae6ecc5473307ccc859fb49745ce5623fe3d59d0"),
    ],
    "sim1-omega": [
        ("set1-complete", "d235bd3a16712948de61e6c12a35ceaff298d31ee17ce431ee9b4a4baed1e541"),
        ("set1-ring", "6e057911fbee25c6319552966c26564f91f78a15bcbef41b9e5ad205a56e0790"),
        ("set2-complete", "758296ec23721ab965b217635532cbc17b0f21e64f555d24ec79e51200254e0e"),
        ("set2-ring", "70d1500123c1be60c645512e0bd131f568c789623c1636ff2d8a4d711a44acf6"),
    ],
    "sim2": [
        ("a", "bb56ec42374a7e3580350a0587902c16ecc96aa8ee975989eea6383f65891b56"),
        ("b", "e2249a5dccf07ee0946824b20e3a81891200200dccca0bd492b65052226ab953"),
    ],
    "sim3-caps": [
        ("complete", "66d90458911c317907ee4cb46d89a6f30426c998992b3e734b26ebc5b6b5cb19"),
        ("ring", "3ff7ab989e556802dd2ea2318f7d8054bca18fbaf25f49f9dd27014006d13c8a"),
    ],
    "sim3-sat": [
        ("complete", "de4f6c442c2225744273d3ffa3eb4a986c08fa24d4226a026cd15543367ff4e9"),
        ("ring", "1f717f9d3ea4cac440ad235f882c7b11109713b0758d22e1c2f967e5fa2bf3a2"),
    ],
    "fig6": [
        ("complete", "b6ec8edfda818073eed64aefb79aa3a33830532e2628293f4229cfd0a1cd7c1b"),
    ],
}


class TestScenarioTable:
    def test_scenario_names_and_order(self):
        assert list(SCENARIOS) == list(SCENARIO_PINS)

    @pytest.mark.parametrize("name", list(SCENARIO_PINS))
    def test_runs_are_pinned(self, name):
        runs = [(run_name, hashlib.sha256(output.json_text(dump_config(cfg)).encode())
                 .hexdigest()) for run_name, cfg in SCENARIOS[name]()]
        assert runs == SCENARIO_PINS[name]

    def test_readme_table_matches(self):
        """README's scenario table gives each scenario's gains (as its config
        documents write them), topologies, t_max and record_stride as the runs
        have them."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for name, build in SCENARIOS.items():
            (row,) = [line for line in readme.splitlines() if line.startswith(f"| `{name}` |")]
            cells = [cell.strip() for cell in row.strip("|").split("|")]
            runs = [cfg for _, cfg in build()]
            gains = dict.fromkeys(
                f"`{g}`" if isinstance(g, str) else f"`[{', '.join(f'{k:g}' for k in g)}]`"
                for g in (doc["gains"] for doc in scenarios._RUNS[name].values()))
            topologies = dict.fromkeys("complete" if c.topology is None else "ring" for c in runs)
            (horizon,) = {(f"{c.t_max:g}", str(c.record_stride)) for c in runs}
            assert cells[1:5] == [", ".join(gains), ", ".join(topologies), *horizon], name


# (option strings, dest, type, default, required, choices, help) of each
# subcommand's actions, in the order argparse holds them
_HELP = (["-h", "--help"], "help", None, argparse.SUPPRESS, False, None,
         "show this help message and exit")
_CONFIG = (["--config"], "config", None, None, True, None, "path to a JSON config")
_COMMON = [
    (["--out"], "out", None, None, False, None, "output directory"),
    (["--dt"], "dt", float, None, False, None, "override step size (s)"),
    (["--t-max"], "t_max", float, None, False, None, "override horizon (s)"),
    (["--seed"], "seed", int, None, False, None, "override RNG seed"),
]
_TARGET = (["--target-deg"], "target_deg", float, None, True, None, None)
CLI_SURFACE = {
    "simulate": ("integrate the closed loop, write CSV + JSON", [_HELP, _CONFIG, *_COMMON]),
    "predict": ("closed-form synchronized direction", [_HELP, _CONFIG, *_COMMON]),
    "reachable": ("test whether a direction is reachable", [_HELP, _CONFIG, *_COMMON, _TARGET]),
    "synthesize": ("construct gains for a target direction", [
        _HELP, _CONFIG, *_COMMON, _TARGET,
        (["--c"], "c", float, -1.0, False, None, "negative scale constant")]),
    "perturb": ("gain-error deviation bounds", [
        _HELP, _CONFIG, *_COMMON,
        (["--eta"], "eta", float, None, True, None, "max fractional gain error in [0, 1)")]),
    "classify": ("classify the config headings as a critical point", [_HELP, _CONFIG, *_COMMON]),
    "scenario": ("run a built-in scenario", [
        _HELP,
        ([], "name", None, None, True,
         ["fig6", "sim1", "sim1-omega", "sim2", "sim3-caps", "sim3-sat"], None),
        *_COMMON]),
}


def subcommands():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


class TestCliSurface:
    def test_subcommands_and_help_in_order(self):
        sub = subcommands()
        assert list(sub.choices) == list(CLI_SURFACE)
        assert [(a.dest, a.help) for a in sub._choices_actions] == [
            (name, help_) for name, (help_, _) in CLI_SURFACE.items()]

    @pytest.mark.parametrize("name", list(CLI_SURFACE))
    def test_actions_in_order(self, name):
        actions = [(a.option_strings, a.dest, a.type, a.default, a.required, a.choices, a.help)
                   for a in subcommands().choices[name]._actions]
        assert actions == CLI_SURFACE[name][1]


@pytest.fixture(scope="module")
def measure():
    """perfbench/measure.py, imported with perfbench/ on sys.path for this
    module's tests only."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("measure")
    finally:
        sys.path.remove(str(PERFBENCH))


class TestPerfbenchNames:
    """The benchmark's trace table wraps program names by attribute lookup and
    its probes call module functions; a name a refactor drops would break
    only a traced benchmark run."""

    def test_patch_table_resolves(self, measure):
        table = measure.patch_table()
        assert len(table) == 19
        for owner, attr, *_ in table:
            assert callable(getattr(owner, attr, None)), (owner, attr)

    def test_probe_calls_exist(self, measure):
        modules = {name for name, value in vars(measure).items() if inspect.ismodule(value)
                   and value.__name__.startswith("swarmsync.")}
        tree = ast.parse(inspect.getsource(measure._run_probes))
        calls = {(node.value.id, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules}
        assert len(calls) >= 15
        for module, attr in calls:
            assert callable(getattr(vars(measure)[module], attr, None)), (module, attr)


# the layers _run_probes times, each under its own span name
PROBED_LAYERS = {
    "dynamics.simulate", "dynamics.step", "phase.grad", "control.command",
    "topology.laplacian", "topology.is_connected", "dynamics.rotating_frame", "dynamics.to_csv",
    "config.load_config", "cli.main", "scenarios.run_scenario", "analysis.rotated_frame",
    "analysis.predict_direction", "analysis.synthesize_gains", "angles.heading_spread",
}


class TestPerfbenchProbes:
    """Each workload's layer probes, called once at a tiny size: a changed
    signature of a probed program function fails here, not only in a traced
    benchmark run."""

    @pytest.mark.parametrize("name,size", [pytest.param(name, size, id=name) for name, size in (
        ("ensemble-mf", {"ns": (2, 3)}),
        ("cli-record", {"simulate_calls": 1, "t_max": 1.0}),
        ("ring-large-n", {"n": 20, "t_max": 0.1}),
        ("closed-form-large-n", {"n": 12}),
    )])
    def test_probes_run_every_layer(self, measure, monkeypatch, tmp_path, name, size):
        before = sorted(PERFBENCH.rglob("*"))
        monkeypatch.setattr(measure, "PROBE_SECONDS", 0.0)
        wl = measure.WORKLOADS[name].build(np.random.default_rng(7), tmp_path, size)
        tracer = measure.Tracer()
        measure._run_probes(tracer, wl, tmp_path, set())
        names = {span.name for span in tracer.spans}
        assert names == PROBED_LAYERS | {f"probe:{layer}" for layer in PROBED_LAYERS}
        assert sorted(PERFBENCH.rglob("*")) == before


class TestBudgetMessages:
    """A step size at the bottom of the double range gives step and sample
    counts of some 300 digits; the error JSON prints them short."""

    @pytest.mark.parametrize("argv", [
        ["scenario", "sim1", "--dt", "1e-300"],
        ["simulate", "--config", "{cfg}"],
    ], ids=["scenario", "simulate"])
    def test_short_message(self, tmp_path, capsys, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "theta0_deg": [-60.0, 60.0], "gains": [-1.0, -1.0],
                                   "t_max": 30.0, "dt": 1e-300}))
        out = tmp_path / "out"
        argv = [arg.format(cfg=cfg) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError"
        assert "record budget" in err["message"]
        assert len(err["message"]) < 200
        assert not (out / "sim1").exists() and not (out / "trajectory.csv").exists()


class TestLayerTimer:
    """tools/time_layers.py, run once at n = 8 with one short repeat: a
    changed signature of a timed internal fails here, not when someone next
    measures."""

    @pytest.mark.parametrize("topology", ["ring", "mean-field"])
    def test_prints_every_layer(self, topology):
        script = Path(__file__).resolve().parents[1] / "tools" / "time_layers.py"
        proc = subprocess.run([sys.executable, str(script), "--n", "8", "--topology", topology,
                               "--repeats", "1"],
                              capture_output=True, text=True, timeout=120, check=True)
        doc = json.loads(proc.stdout)
        assert (doc["n"], doc["topology"], doc["samples"]) == (8, topology, 11)
        assert set(doc["layers_us"]) == {"unit", "kernel", "rhs", "step", "observer", "outcome",
                                         "derive", "csv", "geometry", "geometry_even"}
        assert set(doc["unit_ways_us"]) == {"exp", "cos_sin"}
        assert all(layer["median"] > 0.0 and layer["calls"] >= 1
                   for layer in [*doc["layers_us"].values(), *doc["unit_ways_us"].values()])
