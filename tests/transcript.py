"""The CLI transcript: a fixed corpus of input files, the invocations run on
it through `cli.main` in-process, and what each one answered.

`tests/golden/cli_transcript.json` holds one record per invocation: its
argv with the corpus directory written as `{dir}`, its exit code, and the
sha256 of its stdout, of its stderr (`{dir}` replaced in both) and of each
file it wrote.  An argv that reads `-` gets the previous invocation's
stdout on stdin.  `test_cli.py` replays the corpus against the file; after
a deliberate change of output, regenerate it with

    PYTHONPATH=src python tests/transcript.py

The corpus is the benchmark's seeded construct-mixed requests for seeds 1
and 2 (the n = 64 ones left out, to keep the replay short) and the named
files below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402  the benchmark's own request stream, read only

from metricgraph.cli import main  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_transcript.json"

C8 = ('{"edges": [[0,1],[0,7],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7]],'
      '"vertices": ["v0","v1","v2","v3","v4","v5","v6","v7"]}\n')

METRICS = {
    "empty.json": '{"points": [], "distances": []}',
    "ragged.json": '{"points": ["a", "b"], "distances": [[0, 1], [1]]}',
    "asym.json": '{"points": ["a", "b"], "distances": [[0,1],[2,0]]}',
    "egy.json": '{"points": ["x1", "x2", "x3"], "distances": [[0,3,4],[3,0,5],[4,5,0]]}',
    "half.json": '{"points": ["a", "b"], "distances": [[0,"1/2"],["1/2",0]]}',
    "halves.json": '{"points": ["a", "b", "c"], "distances": '
                   '[[0,"1/2","1/2"],["1/2",0,"1/2"],["1/2","1/2",0]]}',
    "d2.json": '{"points": ["a", "b"], "distances": [[0,2],[2,0]]}',
    "huge.json": '{"points": ["a", "b"], "distances": [[0,"1e100000"],["1e100000",0]]}',
    "bad.json": "{nope",
    "tri.json": '{"points": ["a", "b", "c"], "distances": '
                '[[0, "1.5", "2.5"], ["1.5", 0, "1.25"], ["2.5", "1.25", 0]]}',
}
GRAPHS = {
    "c8.json": C8,
    "iso.json": '{"vertices": ["a", "b"], "edges": []}',
    "p3.txt": "3 2\n0 1\n1 2\n",
}
LINE = {"line.txt": "3 0 1 2 1 0 1 2 1 0\n"}  # a one-line matrix: the 3-point path


def _metric_runs(name: str, fmt: list[str]) -> list[list[str]]:
    """validate, then each construction without and with --out/--map."""
    src, stem = f"{{dir}}/{name}", name.rsplit(".", 1)[0]
    runs = [["validate", src, *fmt]]
    for cmd in ("realize", "embed", "ceil-embed"):
        runs.append([cmd, src, *fmt])
        runs.append([cmd, src, *fmt, "--out", f"{{dir}}/{stem}-{cmd}-out", "--map", f"{{dir}}/{stem}-{cmd}-map"])
    return runs


def _graph_runs(name: str, fmt: list[str], labels: list[str]) -> list[list[str]]:
    """distances, the distances -> realize round trip without and with
    --out, and the four check modes."""
    src, stem = f"{{dir}}/{name}", name.rsplit(".", 1)[0]
    runs = [["distances", src, *fmt], ["realize", "-", *fmt],
            ["distances", src, *fmt], ["realize", "-", *fmt, "--out", f"{{dir}}/{stem}-back"]]
    for mode in ("--mb", "--line", "--plq", "--quad-ineq"):
        runs.append(["check", mode, src, *labels])
    return runs


def corpus() -> tuple[dict[str, str], list[list[str]]]:
    """The input files by name, and the argv of every invocation."""
    files = {**METRICS, **GRAPHS, **LINE}
    runs = [argv for name in METRICS for argv in _metric_runs(name, [])]
    runs += _metric_runs("line.txt", ["--format", "text"])
    runs += [["check", mode, "{dir}/line.txt"] for mode in ("--mb", "--line", "--plq", "--quad-ineq")]
    runs += [["check", mode, "{dir}/egy.json"] for mode in ("--mb", "--line")]
    runs += _graph_runs("c8.json", [], ["v0", "v2", "v4", "v6"])
    runs += _graph_runs("iso.json", [], [])
    runs += _graph_runs("p3.txt", ["--format", "text"], [])
    for seed in (1, 2):
        for i in range(len(inputs.CYCLE)):
            req = inputs.request(seed, i)
            if req.n == 64:
                continue
            name = f"s{seed}-{i}-{req.kind}.json"
            files[name] = req.text
            if req.kind == "roundtrip":
                runs += _graph_runs(name, [], ["v0", "v1", "v2", "v3"])
            else:
                runs += _metric_runs(name, [])
    return files, runs


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def record(workdir: Path) -> list[dict]:
    """Write the corpus into `workdir`, run every invocation in order and
    return one record per invocation."""
    files, runs = corpus()
    root = str(workdir)
    for name, text in files.items():
        (workdir / name).write_text(text)
    records, stdout = [], ""
    for argv in runs:
        real = [arg.replace("{dir}", root) for arg in argv]
        before = set(workdir.iterdir())
        out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(stdout)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(real)
        finally:
            sys.stdin = stdin
        stdout = out.getvalue()
        written = sorted(set(workdir.iterdir()) - before)
        records.append({
            "argv": argv,
            "exit": code,
            "stdout": _sha(stdout.replace(root, "{dir}")),
            "stderr": _sha(err.getvalue().replace(root, "{dir}")),
            "files": {p.name: _sha(p.read_bytes()) for p in written},
        })
    return records


def golden_text(records: list[dict]) -> str:
    """One record per line, so a diff names the invocations that moved."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(golden_text(record(Path(tmp))))
    print(f"wrote {GOLDEN}")
