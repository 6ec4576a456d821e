"""Client requests and the independent checks of their outputs.

A `Job` is one client request: one or two CLI invocations plus a check of
the files they leave behind.  The checks never trust anything the program
says about itself (such as its `verified` field): distances are recomputed
here by a stdlib BFS on the output graph and map, compared exactly
(`Fraction`), and sweep reports are byte-compared with golden copies
recorded from a known-good commit.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from inputs import Request

GOLDEN_FILE = Path(__file__).with_name("golden.json")

SWEEPS = {
    "sweep-c42": ["search", "--conjecture", "4.2", "--max-n", "7", "--jobs", "1"],
    "sweep-c44-j2": ["search", "--conjecture", "4.4", "--max-n", "7", "--jobs", "2"],
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation: arguments after `metricgraph`, and the files
    bound to its standard input (None = empty) and output."""

    argv: list[str]
    stdout: Path
    stdin: Path | None = None


@dataclass
class Job:
    index: int
    kind: str
    n: int
    steps: list[Step]
    expected_codes: list[int]
    check_files: Callable[[], str | None]
    files: list[Path] = field(default_factory=list)

    def check(self, codes: list[int]) -> str | None:
        """None when the request was answered correctly, else why not."""
        if codes != self.expected_codes:
            return f"exit codes {codes}, expected {self.expected_codes}"
        try:
            return self.check_files()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def cleanup(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Sweeps: golden bytes
# ---------------------------------------------------------------------------

def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text())


def check_report(data: bytes, golden: dict) -> str | None:
    """Byte-compare a sweep report with its golden copy and digest."""
    if hashlib.sha256(data).hexdigest() != golden["sha256"]:
        return f"report sha256 {hashlib.sha256(data).hexdigest()[:12]} != golden {golden['sha256'][:12]}"
    if data != golden["stdout"].encode():
        return "report bytes differ from the golden copy"
    return None


def sweep_job(index: int, workload: str, argv: list[str], workdir: Path) -> Job:
    golden = load_golden()[workload]
    out = workdir / f"{index}-report.json"
    return Job(index, workload, 7, [Step(argv, out)], [golden["exit"]],
               lambda: check_report(out.read_bytes(), golden), [out])


# ---------------------------------------------------------------------------
# construct-mixed: oracle on the output graph and map
# ---------------------------------------------------------------------------

def read_graph(text: str) -> tuple[list[str], list[list[int]]]:
    """Parse and sanity-check a graph JSON document, independently of the
    program: unique labels, in-range simple edges."""
    doc = json.loads(text)
    labels, edges = doc["vertices"], doc["edges"]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate vertex labels")
    adj: list[list[int]] = [[] for _ in labels]
    seen = set()
    for i, j in edges:
        if not (0 <= i < len(labels) and 0 <= j < len(labels)) or i == j:
            raise ValueError(f"bad edge {[i, j]}")
        if (min(i, j), max(i, j)) in seen:
            raise ValueError(f"duplicate edge {[i, j]}")
        seen.add((min(i, j), max(i, j)))
        adj[i].append(j)
        adj[j].append(i)
    return labels, adj


def bfs(adj: list[list[int]], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def check_embedding(req: Request, graph_text: str, map_text: str, ceiling: bool) -> str | None:
    """Every pair's host distance d_G against the input distance d:
    exactly equal for `embed`, d <= d_G < d + 1 for `ceil-embed`."""
    labels, adj = read_graph(graph_text)
    mapping = json.loads(map_text)
    assignment = mapping["assignment"]
    index = {lab: i for i, lab in enumerate(labels)}
    if sorted(assignment) != sorted(req.points):
        return "map does not cover exactly the input points"
    targets = [index[assignment[p]] for p in req.points]
    if len(set(targets)) != len(targets):
        return "map is not injective"
    if mapping["aux_count"] != len(labels) - len(req.points):
        return f"aux_count {mapping['aux_count']} != {len(labels) - len(req.points)} extra vertices"
    for i, src in enumerate(targets):
        dist = bfs(adj, src)
        for j in range(i + 1, len(targets)):
            d, d_g = req.dist[i][j], dist[targets[j]]
            if d_g < 0:
                return f"{req.points[i]} and {req.points[j]} are disconnected in the host"
            ok = d <= d_g < d + 1 if ceiling else d_g == d
            if not ok:
                return f"d({req.points[i]}, {req.points[j]}) = {d} but d_G = {d_g}"
    return None


def check_validate(req: Request, report_text: str) -> str | None:
    doc = json.loads(report_text)
    violation = doc.get("violation") or {}
    if doc.get("metric_valid") is not False or violation.get("kind") != "triangle":
        return "planted triangle violation not reported"
    i, j, k = req.witness
    got = violation.get("witness", [])
    if len(got) != 3 or sorted(got[:2]) != [i, j] or got[2] != k:
        return f"witness {got}, planted {[i, j, k]}"
    return None


def mixed_job(req: Request, workdir: Path) -> Job:
    """Write the request's input file and describe how to run and check it."""
    stem = workdir / f"{req.index}"
    src, out, mapf, report = (Path(f"{stem}-{s}") for s in ("in.json", "out.json", "map.json", "stdout.json"))
    src.write_text(req.text)
    files = [src, out, mapf, report]
    if req.kind in ("embed", "ceil-embed"):
        steps = [Step([req.kind, str(src), "--out", str(out), "--map", str(mapf)], report)]
        ceiling = req.kind == "ceil-embed"
        return Job(req.index, req.kind, req.n, steps, [0],
                   lambda: check_embedding(req, out.read_text(), mapf.read_text(), ceiling), files)
    if req.kind == "roundtrip":
        distances = Path(f"{stem}-distances.json")
        steps = [Step(["distances", str(src)], distances),
                 Step(["realize", "-", "--out", str(out)], report, stdin=distances)]
        files.append(distances)
        return Job(req.index, req.kind, req.n, steps, [0, 0],
                   lambda: None if out.read_bytes() == src.read_bytes()
                   else "realized graph bytes differ from the input graph", files)
    if req.kind == "validate":
        steps = [Step(["validate", str(src)], report)]
        return Job(req.index, req.kind, req.n, steps, [1],
                   lambda: check_validate(req, report.read_text()), files)
    raise ValueError(f"unknown request kind {req.kind!r}")
