"""What a fresh process loads: no command loads numpy or multiprocessing,
a forked `search --jobs 2` included, and the CLI import loads neither
dataclasses nor inspect.

Each case runs in its own interpreter, because the test process itself may
have imported numpy through another test dependency.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import metricgraph
from metricgraph import search

SRC = str(Path(metricgraph.__file__).resolve().parents[1])

# Runs the CLI, then reports on stderr whether numpy was ever imported.
CLI_THEN_REPORT = """
import sys
from metricgraph.cli import main
code = main(sys.argv[1:])
sys.stderr.write(f"numpy loaded: {'numpy' in sys.modules}\\n")
sys.exit(code)
"""


def run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["numpy", "multiprocessing", "dataclasses", "inspect"])
def test_importing_the_cli_does_not_load(module):
    """The records are NamedTuples, so no start-up pays for dataclasses and
    inspect."""
    proc = run_python(f"import sys, metricgraph.cli; print({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_embed_does_not_load_numpy(tmp_path):
    path = tmp_path / "egy.json"
    path.write_text('{"points": ["x1", "x2", "x3"], "distances": [[0,3,4],[3,0,5],[4,5,0]]}')
    proc = run_python(CLI_THEN_REPORT, "embed", str(path))
    assert proc.returncode == 0, proc.stderr
    assert '"aux_count": 9' in proc.stdout
    assert proc.stderr.endswith("numpy loaded: False\n")


def test_search_does_not_load_numpy_and_reports_the_same():
    proc = run_python(CLI_THEN_REPORT, "search", "--conjecture", "4.2", "--max-n", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == search("C42", 4).to_json()
    assert proc.stderr.endswith("numpy loaded: False\n")


def test_pool_forked_before_numpy_loads_gives_the_same_report():
    code = """
import sys
from metricgraph import search
assert "numpy" not in sys.modules
pooled = search("C44", 6, jobs=2).to_json()
assert pooled == search("C44", 6, jobs=1).to_json()
sys.stdout.write(pooled)
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == search("C44", 6).to_json()


def test_forked_search_does_not_load_multiprocessing():
    """`search --jobs 2` forks its workers with `os` alone."""
    code = """
import sys
from metricgraph.cli import main
code = main(sys.argv[1:])
sys.stderr.write(f"multiprocessing loaded: {'multiprocessing' in sys.modules}\\n")
sys.exit(code)
"""
    proc = run_python(code, "search", "--conjecture", "4.4", "--max-n", "6", "--jobs", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == search("C44", 6).to_json()
    assert proc.stderr.endswith("multiprocessing loaded: False\n")
