"""The package's exported names, pinned by README's "Library use" section: a
change to the public surface shows up here, and the README cannot drift from
it. Also the message each entry point rejects a malformed argument with."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmsync
from swarmsync import (
    ConfigError,
    InteractionGraph,
    SimulationConfig,
    control_limited,
    parse_config,
    predict_direction,
    ring_graph,
    two_agent_direction,
    two_agent_gains,
)

LIBRARY_USE = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]

# the section's "- `module`: `name`, ..." list, whose items may wrap
PUBLIC_NAMES = {module: re.findall(r"`(\w+)`", names) for module, names in
                re.findall(r"^- `(\w+)`: (.*?)(?=^- |^$)", LIBRARY_USE, re.M | re.S)}


def test_exported_names_are_pinned_and_resolve():
    listed = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(listed) == len(set(listed)) == 48
    assert len(swarmsync.__all__) == len(set(swarmsync.__all__))
    assert set(swarmsync.__all__) == set(listed)
    for module, names in PUBLIC_NAMES.items():
        home = importlib.import_module(f"swarmsync.{module}")
        for name in names:
            assert getattr(swarmsync, name) is getattr(home, name), name


def test_library_use_example_runs(capsys):
    code = re.search(r"^```python\n(.*?)^```$", LIBRARY_USE, re.M | re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    direction, run = capsys.readouterr().out.splitlines()
    assert float(direction) == pytest.approx(-26.9388, abs=5e-5)  # the block's comment
    synchronized, t_sync, heading = run.split()
    assert synchronized == "True" and float(t_sync) > 0.0
    assert float(heading) == pytest.approx(float(direction), abs=1e-6)


def test_import_loads_no_numpy_random():
    """A fresh `import swarmsync` draws nothing and so loads no numpy.random:
    the bundled scenarios are fixed documents, and only a jittered run draws.
    Nor does it load fractions or decimal, which only GainVector.sync_stable's
    exact tie-break imports."""
    src = str(Path(swarmsync.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, swarmsync; "
         "print([m in sys.modules for m in ('numpy.random', 'fractions', 'decimal')])"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert done.stdout == "[False, False, False]\n"


THREE = [0.0, 0.5, 1.0]


@pytest.mark.parametrize("call, error, message", [
    (lambda: SimulationConfig(n=1, theta0=[0.0], gains=[-1.0]), ValueError,
     "need at least 2 agents"),
    (lambda: SimulationConfig(n=3, theta0=THREE, gains=[-1.0, -1.0]), ValueError,
     "gains has 2 entries, expected n=3"),
    (lambda: SimulationConfig(n=3, theta0=THREE, gains=[-1.0] * 3, positions0=np.zeros((3, 3))),
     ValueError, "positions0 shape (3, 3), expected (3, 2)"),
    (lambda: InteractionGraph(0, ()), ValueError, "graph needs at least one node"),
    (lambda: InteractionGraph(3, ((0, 1, 2),)), ValueError, "edge (0, 1, 2) is not a pair"),
    (lambda: control_limited(THREE, [-1.0] * 3, ring_graph(4)), ValueError,
     "graph size does not match headings"),
    (lambda: predict_direction(THREE, [-1.0, -1.0]), ValueError,
     "gains length does not match headings"),
    (lambda: two_agent_direction(THREE, [-1.0, -1.0]), ValueError,
     "two_agent_direction needs exactly 2 headings"),
    (lambda: two_agent_direction([0.0, 1.0], [-1.0] * 3), ValueError,
     "two_agent_direction needs exactly 2 gains"),
    (lambda: two_agent_gains(THREE, 0.5), ValueError, "two_agent_gains needs exactly 2 headings"),
    (lambda: parse_config([]), ConfigError, "config root must be a JSON object"),
    (lambda: parse_config({"n": 2, "theta0_deg": [0.0, 1.0], "gains": [-int("9" * 400), -1.0]}),
     ConfigError, "field 'gains': int too large to convert to float"),
], ids=["one-agent", "gains-length", "positions0-shape", "empty-graph", "edge-triple",
        "graph-size", "predict-gains", "two-agent-headings", "two-agent-gains",
        "two-agent-gains-headings", "config-root", "gain-int-overflow"])
def test_rejection_messages(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
