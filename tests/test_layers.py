"""Each command loads only its own layer.

Every case runs in a fresh interpreter, because this test process has long
since imported every densek module and numpy.
"""

import json
import os
import subprocess
import sys

import pytest

import densek

SRC = os.path.dirname(os.path.dirname(densek.__file__))
# What ``densek.cli`` itself loads: its parser needs only these.
CLI_MODULES = {"cli", "graph", "exact"}

# Runs ``densek.cli.main`` on the arguments after the script, with its
# records kept off stdout, and insists on exit 0.
RUN_MAIN = """
import contextlib, io, sys
from densek.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
assert status == 0, status
"""


def loaded_after(code: str, *argv: str) -> set[str]:
    """What a fresh interpreter holds once ``code`` has run: the short name
    of each densek submodule, plus ``numpy`` if numpy was loaded."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code + report, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout.splitlines()[-1]))
    submodules = {name[len("densek."):] for name in names if name.startswith("densek.")}
    return submodules | ({"numpy"} & names)


@pytest.fixture
def files(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("n 5\n0 1\n0 2\n1 2\n2 3\n3 4\n")
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps({
        "type": "run", "problem": "dks", "k": 3, "vertices": [0, 1, 2],
        "edge_count": 3, "average_degree": 2.0,
    }) + "\n")
    return str(graph), str(records)


def test_bare_import_loads_no_submodule():
    assert loaded_after("import densek") == set()


def test_cli_and_parser_load_no_solver_and_no_numpy():
    loaded = loaded_after(
        "import densek, densek.cli\ndensek.graph.parse_edge_list('0 1\\n1 2\\n')"
    )
    assert loaded == CLI_MODULES


def test_dalks_loads_no_numpy():
    loaded = loaded_after(
        "import densek, densek.cli\n"
        "G = densek.graph.parse_edge_list('0 1\\n0 2\\n1 2\\n2 3\\n3 4\\n')\n"
        "assert len(densek.flow.dalks_2approx(G, 3).vertices) >= 3"
    )
    assert "flow" in loaded and "numpy" not in loaded


@pytest.mark.parametrize("command, layers", [
    ("gen", set()),
    ("verify", set()),
    ("reduce", {"reduction"}),
], ids=["gen", "verify", "reduce"])
def test_numpy_free_commands(files, command, layers):
    graph, records = files
    argv = {
        "gen": ["gen", "-n", "8", "-p", "0.5"],
        "verify": ["verify", graph, records],
        "reduce": ["reduce", "-k", "2", graph],
    }[command]
    assert loaded_after(RUN_MAIN, *argv) == CLI_MODULES | layers


@pytest.mark.parametrize("command, layers", [
    ("solve", {"fkp", "numpy"}),
    ("exact", {"numpy"}),
    ("analyze", {"ratio", "numpy"}),
], ids=["solve", "exact", "analyze"])
def test_solvers_load_their_layer_at_first_use(files, command, layers):
    graph, _ = files
    argv = {
        "solve": ["solve", "-k", "3", "--algo", "a1", graph],
        "exact": ["exact", "-k", "3", graph],
        "analyze": ["analyze", "--delta", "0.25"],
    }[command]
    assert layers <= loaded_after(RUN_MAIN, *argv)
