"""In-process replay of a workload through `metricgraph.cli.main`, with
timing spans recorded at the boundaries of the program's modules (layers).

The wrappers are installed from here, around functions the modules already
expose; the program itself carries no instrumentation.  A function that a
module imported from another (`from .graph import induced_subgraph`) is
rebound in every module namespace that holds it, so calls are caught
wherever they are made.  Spans are kept in memory and summarized after each
replay; the last traced replay's spans are written to a file at the end.

A span's self time is its duration minus the durations of its child spans.
Self times of all layer spans plus the untraced remainder (harness code
and gaps between requests) add up to the traced wall time exactly; the
summary checks that identity, and that every child lies inside its parent.
"""

from __future__ import annotations

import functools
import gzip
import io
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from checks import SWEEPS, Job, Step, mixed_job, sweep_job
import inputs

LAYERS = ("cli", "enumeration", "metric", "graph", "quadruples", "realization")

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class.  A target the program no longer has is skipped and reported.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "_read_input", "cli.load"),
    ("cli", "_emit", "cli.emit"),
    ("cli", "_write_artifacts", "cli.emit"),
    ("metric", "find_metric_violation", "metric.validate"),
    ("metric", "MetricSpace.restrict", "metric.restrict"),
    ("metric", "parse_metric", "metric.parse"),
    ("metric", "dump_metric", "metric.dump"),
    ("metric", "compute_x2_set", "metric.x2"),
    ("metric", "kay_chartrand_check", "metric.kay_chartrand"),
    ("metric", "ceiling_metric", "metric.ceiling"),
    ("graph", "geodesic_metric", "graph.geodesic_metric"),
    ("graph", "_bfs_from", "graph.bfs"),
    ("graph", "induced_subgraph", "graph.induced_subgraph"),
    ("graph", "classify_shape", "graph.classify_shape"),
    ("graph", "Graph.from_edges", "graph.from_edges"),
    ("graph", "parse_graph", "graph.parse"),
    ("graph", "dump_graph", "graph.dump"),
    ("graph", "graph_doc", "graph.dump"),
    ("quadruples", "check_graph", "quadruples.check_graph"),
    ("quadruples", "mb_check", "quadruples.mb_check"),
    ("quadruples", "plq_classify", "quadruples.plq_classify"),
    ("quadruples", "four_subset_status", "quadruples.subsets"),
    ("quadruples", "ConjectureReport.to_json", "quadruples.report"),
    ("realization", "embed", "realization.embed"),
    ("realization", "verify_map", "realization.verify_map"),
    ("realization", "ceil_embed", "realization.ceil_embed"),
    ("realization", "realize", "realization.realize"),
)

SELF_TIMES = (
    "cli.main", "cli.load", "cli.emit",
    "enumeration.first", "enumeration.stream",
    "metric.validate", "metric.restrict", "metric.parse", "metric.dump",
    "metric.x2", "metric.kay_chartrand", "metric.ceiling",
    "graph.geodesic_metric", "graph.bfs", "graph.induced_subgraph",
    "graph.classify_shape", "graph.from_edges", "graph.parse", "graph.dump",
    "quadruples.check_graph", "quadruples.mb_check", "quadruples.plq_classify",
    "quadruples.subsets", "quadruples.report",
    "realization.embed", "realization.verify_map", "realization.realize",
)
CALLS = ("metric.validate", "metric.restrict", "graph.geodesic_metric", "graph.bfs",
         "quadruples.subsets")
# Which end-to-end metric, on which workload, each layer metric should move.
# An optimisation of a layer claims its gain there; elsewhere it predicts
# no change.
_C42, _C44, _MIX = "sweep-c42", "sweep-c44-j2", "construct-mixed"
PREDICTS = {
    **dict.fromkeys(("cli.load.s", "cli.emit.s"), f"latency_p50_ms on {_MIX}"),
    **dict.fromkeys(("enumeration.first.s", "enumeration.stream.s", "enumeration.classes"),
                    f"sweep_s, cpu_s, peak_rss_mb on {_C42}; no change on {_MIX}"),
    **dict.fromkeys(("metric.validate.s", "metric.validate.calls", "metric.validate.rejects"),
                    f"sweep_s, cpu_s on {_C44}; latency_p90_ms on {_MIX}"),
    **dict.fromkeys(("metric.restrict.s", "metric.restrict.calls"), f"sweep_s, cpu_s on {_C44}"),
    **dict.fromkeys(("metric.parse.s", "metric.x2.s", "metric.kay_chartrand.s", "metric.ceiling.s"),
                    f"latency_p90_ms on {_MIX}"),
    **dict.fromkeys(("graph.geodesic_metric.s", "graph.geodesic_metric.calls", "graph.bfs.calls"),
                    f"sweep_s on both sweeps; round-trip latency on {_MIX}"),
    **dict.fromkeys(("graph.induced_subgraph.s", "graph.classify_shape.s"), f"sweep_s on {_C44}"),
    **dict.fromkeys(("graph.from_edges.s", "graph.parse.s", "graph.dump.s"), f"latency on {_MIX}"),
    **dict.fromkeys(("quadruples.check_graph.s", "quadruples.mb_check.s"), f"sweep_s on {_C42}"),
    **dict.fromkeys(("quadruples.plq_classify.s", "quadruples.subsets.calls", "quadruples.report.s"),
                    f"sweep_s on {_C44}"),
    **dict.fromkeys(("realization.embed.s", "realization.verify_map.s", "realization.ceil_check.s",
                     "realization.realize.s", "realization.aux_vertices"),
                    f"latency_p90_ms, requests_per_s on {_MIX}; no change on the sweeps"),
}
CONNECTED_CLASSES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}  # OEIS A001349


class Tracer:
    """Span recorder.  A span is `[name, start_ns, end_ns, parent, request]`,
    `parent` being the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]
        self.request = -1
        self.rejects = 0
        self.aux_vertices = 0
        self.classes: Counter = Counter()
        self.missing: list[str] = []
        self._restore: list = []

    def reset(self) -> None:
        self.spans = []
        self.stack[:] = [-1]
        self.rejects = self.aux_vertices = 0
        self.classes = Counter()

    def wrap(self, name, fn, on_result=None):
        clock, tracer = time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            record = [name, 0, 0, stack[-1], tracer.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def wrap_enumeration(self, fn):
        """Time each `next()` of the class stream; the first one per n
        builds the enumerator's tables."""
        clock, tracer = time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(n, *args, **kwargs):
            inner = iter(fn(n, *args, **kwargs))
            name = "enumeration.first"
            while True:
                spans, stack = tracer.spans, tracer.stack
                record = [name, 0, 0, stack[-1], tracer.request]
                stack.append(len(spans))
                spans.append(record)
                record[1] = clock()
                try:
                    g = next(inner)
                except StopIteration:
                    return
                finally:
                    record[2] = clock()
                    stack.pop()
                tracer.classes[n] += 1
                name = "enumeration.stream"
                yield g
        return wrapper

    def _on_result(self, span_name):
        if span_name == "metric.validate":
            def count(result):
                self.rejects += result is not None
            return count
        if span_name == "realization.embed":
            def count(result):
                self.aux_vertices += result.aux_count
            return count
        return None

    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        self.missing = []
        for mod_name, attr, span_name in (*TARGETS, ("enumeration", "enumerate_connected_graphs", None)):
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = None if owner is None else vars(owner).get(member)
            if raw is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if span_name is None:
                wrapped = self.wrap_enumeration(raw)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(span_name, raw.__func__, self._on_result(span_name)))
            else:
                wrapped = self.wrap(span_name, raw, self._on_result(span_name))
            if owner_name:
                self._restore.append((owner, member, raw))
                setattr(owner, member, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self._restore.append((m, key, raw))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, raw in reversed(self._restore):
            setattr(owner, key, raw)
        self._restore = []


def summarize(spans: list[list], wall_ns: int) -> dict:
    """Self time per span name, calls per name, and the integrity checks.

    `remainder_ns` is the traced wall time not inside any layer span.  It is
    computed from the root spans and the gaps between them, independently of
    the layer self times, so that their sum equalling `wall_ns` checks that
    every child was subtracted from exactly its own parent.
    """
    child_ns = [0] * len(spans)
    ceil_children_ns = Counter()
    nested = True
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            p = spans[parent]
            child_ns[parent] += end - start
            nested &= p[1] <= start and end <= p[2]
            if p[0] == "realization.ceil_embed" and name in ("realization.embed", "metric.ceiling"):
                ceil_children_ns[parent] += end - start
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    ceil_check_ns = 0
    root_ns = 0
    for idx, (name, start, end, parent, _) in enumerate(spans):
        self_ns[name] += end - start - child_ns[idx]
        calls[name] += 1
        if parent < 0:
            root_ns += end - start
        if name == "realization.ceil_embed":
            ceil_check_ns += end - start - ceil_children_ns[idx]
    layer_ns = Counter()
    for name, ns in self_ns.items():
        if name.split(".")[0] in LAYERS:
            layer_ns[name.split(".")[0]] += ns
    remainder_ns = (wall_ns - root_ns) + sum(ns for name, ns in self_ns.items()
                                             if name.split(".")[0] not in LAYERS)
    consistent = (nested and all(v >= 0 for v in self_ns.values()) and remainder_ns >= 0
                  and sum(layer_ns.values()) + remainder_ns == wall_ns)
    return {"self_ns": self_ns, "calls": calls, "layer_ns": layer_ns,
            "remainder_ns": remainder_ns, "ceil_check_ns": ceil_check_ns,
            "wall_ns": wall_ns, "consistent": consistent}


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

class _Capture(io.StringIO):
    """Stand-in for stdout; its `write` can be wrapped as a `cli.emit` span."""


def run_in_process(cli, steps: list[Step], tracer: Tracer | None) -> list[int]:
    codes = []
    for step in steps:
        out = _Capture()
        if tracer is not None:
            out.write = tracer.wrap("cli.emit", out.write)
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin = io.StringIO(step.stdin.read_text() if step.stdin else "")
        sys.stdout, sys.stderr = out, io.StringIO()
        try:
            code = cli.main(step.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error is exit 1 in a real process
            sys.__stderr__.write(f"perfbench: {step.argv[0]} raised {type(exc).__name__}: {exc}\n")
            code = 1
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        step.stdout.write_text(out.getvalue())
        codes.append(code)
    return codes


def replay_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The in-process replay: one serial sweep, or the first full pass of
    the mixed stream.  `--jobs 1` keeps the sweep inside the tracer."""
    if workload in SWEEPS:
        argv = list(SWEEPS[workload])
        argv[argv.index("--jobs") + 1] = "1"
        return [sweep_job(0, workload, argv, workdir)]
    return [mixed_job(inputs.request(seed, i), workdir) for i in range(len(inputs.CYCLE))]


def reset_caches(package) -> None:
    """Empty the program's in-process caches, so that every replay starts as
    cold as a fresh CLI process."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(package.__name__ + "."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, dict) and attr.endswith("cache"):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def replay(cli, package, jobs: list[Job], tracer: Tracer | None) -> tuple[int, list[str]]:
    """Run every job once; return the wall time in ns and the failures."""
    reset_caches(package)
    run_request = run_in_process if tracer is None else tracer.wrap("bench.request", run_in_process)
    failures = []
    wall_ns = 0
    for job in jobs:
        if tracer is not None:
            tracer.request = job.index
        t0 = time.perf_counter_ns()
        codes = run_request(cli, job.steps, tracer)
        wall_ns += time.perf_counter_ns() - t0
        problem = job.check(codes)
        if problem:
            failures.append(f"request {job.index} ({job.kind}, n={job.n}): {problem}")
    return wall_ns, failures


def traced_run(package, cli, workload: str, seed: int, seconds: float, workdir: Path,
               spans_path: Path) -> dict:
    """Alternate untraced and traced replays for about `seconds`.

    One unmeasured replay first lets lazy imports and first-call costs land
    outside both sides.  Checking outputs happens between replays and is
    excluded from their wall times, as are the traced replays' summaries.
    """
    jobs = replay_jobs(workload, seed, workdir)
    tracer = Tracer()
    untraced_ns, summaries, class_counts = [], [], []
    _, failures = replay(cli, package, jobs, None)
    attempted = len(jobs)
    start = time.perf_counter()
    pair = 0
    while pair == 0 or (elapsed := time.perf_counter() - start) + elapsed / pair <= seconds:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer.reset()
                tracer.install(package)
                try:
                    wall_ns, problems = replay(cli, package, jobs, tracer)
                finally:
                    tracer.uninstall()
                summary = summarize(tracer.spans, wall_ns)
                if not summary["consistent"]:
                    problems.append("trace self times do not add up to the traced wall time")
                summary["rejects"] = tracer.rejects
                summary["aux_vertices"] = tracer.aux_vertices
                summaries.append(summary)
                class_counts.append(dict(tracer.classes))
                last_spans = tracer.spans
            else:
                wall_ns, problems = replay(cli, package, jobs, None)
                untraced_ns.append(wall_ns)
            attempted += len(jobs)
            failures.extend(problems)
        pair += 1
    for counts in class_counts:
        wrong = {n: c for n, c in counts.items() if CONNECTED_CLASSES.get(n) != c}
        if wrong:
            failures.append(f"enumeration class counts {wrong} differ from OEIS A001349")
    for job in jobs:
        job.cleanup()
    write_spans(spans_path, last_spans)
    return {"summaries": summaries, "untraced_ns": untraced_ns, "attempted": attempted,
            "failures": failures, "classes": class_counts[-1], "missing": tracer.missing,
            "spans": len(last_spans)}


def write_spans(path: Path, spans: list[list]) -> None:
    with gzip.open(path, "wt") as f:
        f.write("name,start_ns,end_ns,parent,request\n")
        for name, start, end, parent, request in spans:
            f.write(f"{name},{start},{end},{parent},{request}\n")


def layer_metrics(result: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over the traced replays."""
    summaries = result["summaries"]

    def med(f):
        return statistics.median(f(s) for s in summaries)

    wall = med(lambda s: s["wall_ns"])
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMES:
        out[f"{name}.s"] = (med(lambda s: s["self_ns"][name]) / 1e9, "s")
    out["realization.ceil_check.s"] = (med(lambda s: s["ceil_check_ns"]) / 1e9, "s")
    for name in CALLS:
        out[f"{name}.calls"] = (med(lambda s: s["calls"][name]), "count")
    out["metric.validate.rejects"] = (med(lambda s: s["rejects"]), "count")
    out["enumeration.classes"] = (sum(result["classes"].values()), "count")
    out["realization.aux_vertices"] = (med(lambda s: s["aux_vertices"]), "count")
    for layer in LAYERS:
        out[f"share.{layer}"] = (med(lambda s: 100 * s["layer_ns"][layer] / s["wall_ns"]), "%")
    out["share.untraced"] = (med(lambda s: 100 * s["remainder_ns"] / s["wall_ns"]), "%")
    out["metric.validate.share"] = (med(lambda s: 100 * s["self_ns"]["metric.validate"] / s["wall_ns"]), "%")
    # Each traced replay is compared with the untraced one next to it in
    # time, so that a drift in machine speed cancels within the pair.
    untraced = statistics.median(result["untraced_ns"])
    out["trace.overhead"] = (100 * statistics.median(
        s["wall_ns"] / u - 1 for s, u in zip(summaries, result["untraced_ns"])), "%")
    out["trace.replay_s"] = (wall / 1e9, "s")
    out["untraced.replay_s"] = (untraced / 1e9, "s")
    out["trace.spans"] = (result["spans"], "count")
    return out
