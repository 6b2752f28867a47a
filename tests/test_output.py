"""The package's boundaries, read from its source by AST scans: swarmsync.output
is the one module that writes a file or formats the package's JSON and CSV,
swarmsync.phase the one that evaluates the coupling kernel, GainVector.weights
the one statement of the 1/K weights and simulate_batch and step the only
callers of dynamics._law, dynamics._clip the one statement of the
actuation rule, and analysis.is_reachable the one reader of the
reachable-set rule (it alone builds a ReachabilityReport and asks
two_agent_gains for the pair flag, and only _require_acute and _prediction
take a rotated frame), so a writer, a second kernel, a second scaling of
1/K, a second derivation of a law, a second clip or a frame-taking twin
added anywhere else fails here. The integrator carries no -0.0 emulation: a
run's headings are never -0.0."""

import ast
from pathlib import Path

import swarmsync

PACKAGE = Path(swarmsync.__file__).parent
WRITE_CALLS = {"write_text", "write_bytes", "writelines"}
WRITERS = {"json_text", "to_csv"}
KERNEL_CALLS = {"conj", "conjugate"}
# (module, function) allowed a kernel call outside phase: the second derivative
KERNEL_EXEMPT = {("analysis.py", "_hessian_entries")}


def _called(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _write_mode(call: ast.Call) -> bool:
    """Whether an open() call opens for writing: a constant mode with w, a, x
    or +, or a mode that is not a constant. os.open of os.devnull, where the
    CLI sends a closed stdout, writes no file."""
    if call.args and ast.unparse(call.args[0]) == "os.devnull":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def boundary_breaks(sources: dict[str, str]) -> list[str]:
    """Each place in sources ({module file name: source}) where a module
    other than output.py writes a file or defines a writer, and each import
    of the private name _json_text."""
    breaks = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source, name)):
            where = f"{name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and any(
                    alias.name == "_json_text" for alias in node.names):
                breaks.append(f"{where} imports _json_text")
            if name == "output.py":
                continue
            if isinstance(node, ast.Call):
                called = _called(node)
                if called in WRITE_CALLS or called == "open" and _write_mode(node):
                    breaks.append(f"{where} calls {called}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in WRITERS:
                breaks.append(f"{where} defines {node.name}")
    return breaks


def kernel_breaks(sources: dict[str, str]) -> list[str]:
    """Each call of conj, conjugate or a weighted bincount in sources outside
    phase.py and KERNEL_EXEMPT: the pieces of dPhi/dtheta, which phase's
    one coupling kernel evaluates."""
    breaks = []
    for name, source in sources.items():
        if name == "phase.py":
            continue
        tree = ast.parse(source, name)
        exempt = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  and (name, fn.name) in KERNEL_EXEMPT for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            called = _called(node)
            weighted = called == "bincount" and (
                len(node.args) > 1 or any(kw.arg == "weights" for kw in node.keywords))
            if called in KERNEL_CALLS or weighted:
                breaks.append(f"{name}:{node.lineno} calls {called}")
    return breaks


def callers(sources: dict[str, str], name: str) -> set[tuple[str, str]]:
    """(module, qualified name of the enclosing function) of each call of
    name in sources, as a plain name or an attribute (np.frexp)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and _called(child) == name:
                found.add((module, scope))
            visit(child, inner)

    for module, source in sources.items():
        visit(ast.parse(source, module), "")
    return found


# The scaled reciprocals of the gains: the weights, and the K-form of the
# two-agent direction, which scales by the power of two at max|K|
FREXP_CALLERS = {("control.py", "GainVector.weights"), ("analysis.py", "two_agent_direction")}
LAW_CALLERS = {("dynamics.py", "simulate_batch"), ("dynamics.py", "step")}
# the analysis.py functions handed a rotated frame already computed: the
# acuteness check, and the prediction that lets CLI synthesize compute one frame
FRAME_TAKERS = {"_require_acute", "_prediction"}


def frame_takers(sources: dict[str, str]) -> set[str]:
    """Each analysis.py function with a parameter named frame."""
    return {node.name for node in ast.walk(ast.parse(sources["analysis.py"]))
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(arg, ast.arg) and arg.arg == "frame" for arg in ast.walk(node.args))}


def clippers(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, function) of each call of clip, and each function that calls
    both maximum and minimum: the ways to bound a command to [lo, hi]."""
    return callers(sources, "clip") | (callers(sources, "maximum") & callers(sources, "minimum"))


def signed_zero_breaks(sources: dict[str, str]) -> list[str]:
    """Each parameter named zero and each call of signbit in the integrator's
    modules, dynamics.py and phase.py: what a -0.0 emulation would need."""
    breaks = []
    for name in ("dynamics.py", "phase.py"):
        for node in ast.walk(ast.parse(sources[name], name)):
            if isinstance(node, ast.arg) and node.arg == "zero":
                breaks.append(f"{name}:{node.lineno} takes zero")
            if isinstance(node, ast.Call) and _called(node) == "signbit":
                breaks.append(f"{name}:{node.lineno} calls signbit")
    return breaks


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


class TestBoundary:
    def test_only_output_writes(self):
        sources = package_sources()
        assert "output.py" in sources
        assert boundary_breaks(sources) == []

    def test_output_defines_the_writers(self):
        tree = ast.parse(package_sources()["output.py"])
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert WRITERS <= defined

    def test_planted_write_text_fails(self):
        sources = package_sources()
        sources["scenarios.py"] += '\n\ndef _leak(path):\n    path.write_text("{}")\n'
        assert boundary_breaks(sources) == [f"scenarios.py:{len(sources['scenarios.py'].splitlines())} "
                                            "calls write_text"]

    def test_planted_writers_and_imports_fail(self):
        sources = package_sources()
        sources["cli.py"] += ("\n\nfrom .output import _json_text\n\n\ndef json_text(obj):\n"
                              "    with open('x.json', 'w') as fh:\n        fh.write(obj)\n")
        assert [line.split(" ", 1)[1] for line in boundary_breaks(sources)] == [
            "imports _json_text", "defines json_text", "calls open"]

    def test_reading_is_not_writing(self):
        assert boundary_breaks({"config.py": "open(path)\nopen(path, 'rb')\nPath(p).read_text()\n"
                                             "os.open(os.devnull, os.O_WRONLY)\n"}) == []


class TestKernelBoundary:
    def test_only_phase_evaluates_the_coupling(self):
        sources = package_sources()
        assert {"phase.py", "dynamics.py", "control.py", "analysis.py"} <= set(sources)
        assert kernel_breaks(sources) == []

    def test_planted_conj_fails(self):
        sources = package_sources()
        sources["dynamics.py"] += "\n\ndef _leak(z):\n    return np.conj(z.mean()) * z\n"
        assert kernel_breaks(sources) == [f"dynamics.py:{len(sources['dynamics.py'].splitlines())} "
                                          "calls conj"]

    def test_planted_weighted_bincounts_fail(self):
        sources = {"control.py": "np.bincount(src, w, n)\nnp.bincount(src, weights=w)\n"
                                 "z.conjugate()\nnp.bincount(src, minlength=n)\n",
                   "analysis.py": "def _hessian_entries(z):\n    return np.conj(z)\n\n\n"
                                  "def critical_point_hessian(z):\n    return z.conj()\n"}
        assert kernel_breaks(sources) == [
            "control.py:1 calls bincount", "control.py:2 calls bincount",
            "control.py:3 calls conjugate", "analysis.py:6 calls conj"]


class TestLawBoundary:
    def test_weights_and_laws_are_stated_once(self):
        sources = package_sources()
        assert callers(sources, "frexp") == FREXP_CALLERS
        assert callers(sources, "_law") == LAW_CALLERS

    def test_planted_callers_fail(self):
        sources = package_sources()
        sources["analysis.py"] += ("\n\ndef _prediction2(k):\n"
                                   "    return np.ldexp(1.0, np.frexp(abs(k).min())[1]) / k\n")
        sources["dynamics.py"] += ("\n\nclass _Run:\n    def law(self, cfg):\n"
                                   "        return _law(cfg)\n")
        assert callers(sources, "frexp") - FREXP_CALLERS == {("analysis.py", "_prediction2")}
        assert callers(sources, "_law") - LAW_CALLERS == {("dynamics.py", "_Run.law")}


class TestReachabilityBoundary:
    def test_the_reachable_set_rule_is_read_in_one_place(self):
        sources = package_sources()
        assert frame_takers(sources) == FRAME_TAKERS
        assert callers(sources, "ReachabilityReport") == {("analysis.py", "is_reachable")}
        assert ("analysis.py", "is_reachable") in callers(sources, "two_agent_gains")

    def test_planted_twins_fail(self):
        sources = package_sources()
        sources["analysis.py"] += ("\n\ndef _reachability(frame, target):\n"
                                   "    return ReachabilityReport(target, frame)\n\n\n"
                                   "def _two_agent_gains(*, frame):\n    return frame\n")
        assert frame_takers(sources) - FRAME_TAKERS == {"_reachability", "_two_agent_gains"}
        assert callers(sources, "ReachabilityReport") == {("analysis.py", "is_reachable"),
                                                          ("analysis.py", "_reachability")}


class TestActuationBoundary:
    def test_the_actuation_rule_is_stated_once(self):
        sources = package_sources()
        assert callers(sources, "clip") == set()
        assert clippers(sources) == {("dynamics.py", "_clip")}

    def test_planted_clips_fail(self):
        sources = package_sources()
        sources["analysis.py"] += "\n\ndef _bounded(u):\n    return np.clip(u, -1, 1)\n"
        sources["dynamics.py"] += ("\n\ndef _saturate(u, lo, hi):\n"
                                   "    return np.minimum(np.maximum(u, lo), hi)\n")
        assert clippers(sources) == {("dynamics.py", "_clip"), ("analysis.py", "_bounded"),
                                     ("dynamics.py", "_saturate")}


class TestSignedZeroBoundary:
    def test_no_negative_zero_emulation(self):
        assert signed_zero_breaks(package_sources()) == []

    def test_planted_emulation_fails(self):
        sources = package_sources()
        sources["phase.py"] += "\n\ndef _unit(shape, zero):\n    return shape\n"
        sources["dynamics.py"] += "\n\ndef _has(theta):\n    return np.signbit(theta).any()\n"
        assert signed_zero_breaks(sources) == [
            f"dynamics.py:{len(sources['dynamics.py'].splitlines())} calls signbit",
            f"phase.py:{len(sources['phase.py'].splitlines()) - 1} takes zero"]
