"""Tests of the benchmark's own generator, checks and tracer.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

A check that passes everything proves nothing, so each check is shown to
reject outputs mutated the way a broken program would get them wrong.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def workdir():
    path = run.WORK / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def index_of(kind: str, n: int) -> int:
    return inputs.CYCLE.index((kind, n))


def answered(kind: str, workdir: Path, n: int = 8):
    """A request of the given kind, answered by the real CLI."""
    job = checks.mixed_job(inputs.request(3, index_of(kind, n)), workdir)
    outcome = run.run_steps(job.steps, workdir)
    assert job.check(outcome.codes) is None
    return job, outcome.codes


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_same_seed_gives_identical_inputs():
    for seed in (0, 1, 12345):
        first = [inputs.request(seed, i).text for i in range(2 * len(inputs.CYCLE))]
        again = [inputs.request(seed, i).text for i in reversed(range(2 * len(inputs.CYCLE)))]
        assert first == again[::-1]
    assert inputs.request(1, 0).text != inputs.request(2, 0).text


def test_cycle_covers_every_kind_and_size_once():
    assert sorted(inputs.CYCLE) == sorted(itertools.product(inputs.KINDS, inputs.SIZES))


def triangle_violations(rows):
    n = len(rows)
    return {(min(i, j), max(i, j), k) for i, j, k in itertools.permutations(range(n), 3)
            if rows[i][j] > rows[i][k] + rows[k][j]}


@pytest.mark.parametrize("n", inputs.SIZES[:3])
def test_generated_tables_are_metrics_except_the_planted_triangle(n):
    for kind in ("embed", "ceil-embed"):
        req = inputs.request(5, index_of(kind, n))
        assert not triangle_violations(req.dist)
    for seed in range(5):
        req = inputs.request(seed, index_of("validate", n))
        rows = json.loads(req.text)["distances"]
        assert triangle_violations(rows) == {req.witness}


# ---------------------------------------------------------------------------
# Checks reject mutated outputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["embed", "ceil-embed"])
def test_embedding_check_rejects_every_dropped_edge(kind, workdir):
    job, codes = answered(kind, workdir)
    out = job.steps[0].argv[job.steps[0].argv.index("--out") + 1]
    doc = json.loads(Path(out).read_text())
    for drop in range(len(doc["edges"])):
        mutated = dict(doc, edges=doc["edges"][:drop] + doc["edges"][drop + 1:])
        Path(out).write_text(json.dumps(mutated))
        assert job.check(codes) is not None, f"edge {doc['edges'][drop]} dropped unnoticed"


@pytest.mark.parametrize("kind", ["embed", "ceil-embed"])
def test_embedding_check_rejects_relabelled_aux_vertex(kind, workdir):
    job, codes = answered(kind, workdir)
    out = Path(job.steps[0].argv[job.steps[0].argv.index("--out") + 1])
    doc = json.loads(out.read_text())
    labels = doc["vertices"]
    aux = next(i for i, lab in enumerate(labels) if lab.startswith("__"))
    swapped = list(labels)
    swapped[0], swapped[aux] = labels[aux], labels[0]
    duplicated = list(labels)
    duplicated[aux] = labels[0]
    for mutated in (swapped, duplicated):
        out.write_text(json.dumps(dict(doc, vertices=mutated)))
        assert job.check(codes) is not None


def test_embedding_check_ignores_verified_field(workdir):
    job, codes = answered("embed", workdir)
    out = Path(job.steps[0].argv[job.steps[0].argv.index("--out") + 1])
    doc = json.loads(out.read_text())
    out.write_text(json.dumps(dict(doc, edges=doc["edges"][1:])))
    report = job.steps[0].stdout
    assert json.loads(report.read_text())["verified"] is True
    assert job.check(codes) is not None


def test_roundtrip_check_rejects_a_flipped_byte(workdir):
    job, codes = answered("roundtrip", workdir)
    out = Path(job.steps[1].argv[job.steps[1].argv.index("--out") + 1])
    data = bytearray(out.read_bytes())
    data[len(data) // 2] ^= 1
    out.write_bytes(bytes(data))
    assert job.check(codes) is not None


def test_validate_check_rejects_another_witness_or_exit_code(workdir):
    job, codes = answered("validate", workdir)
    report = job.steps[0].stdout
    doc = json.loads(report.read_text())
    i, j, k = doc["violation"]["witness"]
    assert job.check([0]) is not None
    doc["violation"]["witness"] = [i, j, next(m for m in range(job.n) if m not in (i, j, k))]
    report.write_text(json.dumps(doc))
    assert job.check(codes) is not None


@pytest.mark.parametrize("workload", sorted(checks.SWEEPS))
def test_sweep_check_rejects_every_flipped_byte(workload):
    golden = checks.load_golden()[workload]
    data = golden["stdout"].encode()
    assert checks.check_report(data, golden) is None
    for pos in range(len(data)):
        flipped = bytearray(data)
        flipped[pos] ^= 0x20
        assert checks.check_report(bytes(flipped), golden) is not None
    assert checks.check_report(data[:-1], golden) is not None


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_summary_accounts_for_every_nanosecond():
    spans_ = [
        ["bench.request", 10, 100, -1, 0],
        ["cli.main", 20, 90, 0, 0],
        ["metric.parse", 30, 60, 1, 0],
        ["metric.validate", 40, 55, 2, 0],
    ]
    s = spans.summarize(spans_, wall_ns=120)
    assert s["consistent"]
    assert s["self_ns"]["metric.parse"] == 15 and s["layer_ns"]["cli"] == 40
    assert s["remainder_ns"] == 120 - 70
    spans_[3][2] = 65  # a child that outlives its parent
    assert not spans.summarize(spans_, wall_ns=120)["consistent"]


def test_traced_replay_restores_the_program(workdir):
    package, cli = run.import_program()
    namespaces = {name: m for name, m in sys.modules.items() if name.startswith("metricgraph")}
    for name, m in list(namespaces.items()):
        for value in vars(m).values():
            if isinstance(value, type) and value.__module__ == name:
                namespaces[f"{name}.{value.__name__}"] = value
    before = {name: dict(vars(ns)) for name, ns in namespaces.items()}
    result = spans.traced_run(package, cli, "sweep-c42", 1, 0, workdir, workdir / "spans.csv.gz")
    assert not result["failures"]
    assert result["classes"] == {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    assert all(s["consistent"] for s in result["summaries"])
    assert not result["missing"]
    for name, namespace in before.items():
        now = vars(namespaces[name])
        assert all(now.get(k) is v for k, v in namespace.items() if not k.startswith("__")), name


def test_benchmark_refuses_to_run_without_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-c42",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
