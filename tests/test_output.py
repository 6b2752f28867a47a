"""The package's boundaries, read from its source by AST scans: swarmsync.output
is the one module that writes a file or formats the package's JSON and CSV,
and swarmsync.phase the one that evaluates the coupling kernel, so a writer or
a second kernel added anywhere else fails here."""

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
