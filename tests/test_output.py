"""The output boundary: swarmsync.output is the one module that writes a file
or formats the package's JSON and CSV, read from the package's source by an
AST scan, so a writer added anywhere else fails here."""

import ast
from pathlib import Path

import swarmsync

PACKAGE = Path(swarmsync.__file__).parent
WRITE_CALLS = {"write_text", "write_bytes", "writelines"}
WRITERS = {"json_text", "to_csv"}


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
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called in WRITE_CALLS or called == "open" and _write_mode(node):
                    breaks.append(f"{where} calls {called}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in WRITERS:
                breaks.append(f"{where} defines {node.name}")
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
