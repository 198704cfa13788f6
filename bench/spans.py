"""In-memory spans around multimatch's layer boundaries.

:func:`install` swaps timing wrappers into the module attributes that
callers look up at call time (``multimatch.solver.project_onto_C`` and the
like), so calls made inside the package are timed without editing it.
Spans keep a name, start, end, parent and the operation they belong to;
they stay in memory and are written out once, by :meth:`Tracer.dump`.
The benchmark is single-threaded, so a span's children never overlap and
its self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Layers whose spans also record the rise of the process's peak RSS.
RSS_LAYERS = ("synthetic", "model", "serialize", "metrics")


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: str | None  # operation id, e.g. "solve/2/0" (kind/instance/round)
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a stack of open spans gives each new span its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent.op
        rec = Span(len(self.spans), name, None if parent is None else parent.sid, op, 0.0)
        self.spans.append(rec)
        self._stack.append(rec)
        track_rss = name.split(".", 1)[0] in RSS_LAYERS
        rss_before = peak_rss_mb() if track_rss else 0.0
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            if track_rss:
                rec.attrs["rss_rise_mb"] = peak_rss_mb() - rss_before
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` timed under ``name``; ``on_result(span, result)`` may add attributes."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, result)
                return result

        return traced

    def dump(self, path) -> None:
        rows = [
            {
                "id": s.sid,
                "name": s.name,
                "parent": s.parent,
                "op": s.op,
                "start": s.start,
                "end": s.end,
                **s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _record_update_y(span: Span, result) -> None:
    _, history, stalled = result
    span.attrs["steps"] = len(history) - 1
    span.attrs["stalled"] = bool(stalled)


# (module, attribute, span name, result hook).  Each entry is the binding a
# caller resolves at call time; a function imported into several modules is
# wrapped once per importing module.
PATCHES = (
    ("synthetic", "generate", "synthetic.generate", None),
    ("synthetic", "validate_instance", "model.validate", None),
    ("cli", "validate_instance", "model.validate", None),
    ("solver", "assemble_block", "model.assemble", None),
    ("serialize", "save_problem", "serialize.save_problem", None),
    ("serialize", "load_problem", "serialize.load_problem", None),
    ("serialize", "save_truth", "serialize.save_truth", None),
    ("serialize", "load_truth", "serialize.load_truth", None),
    ("serialize", "save_labeling", "serialize.write_outputs", None),
    ("serialize", "save_trace", "serialize.write_outputs", None),
    ("serialize", "save_point_cloud", "serialize.write_outputs", None),
    ("serialize", "load_labeling", "serialize.load_labeling", None),
    ("solver", "solve", "solver.solve", None),
    ("cli", "solve", "solver.solve", None),
    ("solver", "initialize", "solver.init", None),
    ("solver", "update_Y", "solver.update_Y", _record_update_y),
    ("solver", "update_X", "solver.update_X", None),
    ("solver", "update_Z", "solver.update_Z", None),
    ("solver", "project_onto_C", "projection.project", None),
    ("solver", "solve_lap", "assignment.update_X", None),
    ("assignment", "solve_lap", "assignment.discretize", None),
    ("frontend", "scores_from_descriptors", "frontend.scores", None),
    ("frontend", "solve_lap", "frontend.lap", None),
    ("metrics", "pair_stats", "metrics.pair_stats", None),
    ("metrics", "cycle_check", "metrics.cycle_check", None),
    ("metrics", "rank_diagnostic", "metrics.rank_diagnostic", None),
    ("cli", "affine_factorize", "reconstruct.factorize", None),
)


def install(tracer: Tracer, modules: dict) -> None:
    """Swap the wrappers of :data:`PATCHES` into ``modules`` (name -> module object)."""
    for mod_name, attr, span_name, hook in PATCHES:
        module = modules[mod_name]
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), hook))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's durations."""
    own = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def subtree(spans: list[Span], root: int) -> list[Span]:
    """The span ``root`` and all its descendants (spans are stored in start order)."""
    inside = {root}
    out = []
    end = spans[root].end
    for s in spans[root:]:
        if s.start > end:
            break
        if s.sid == root or s.parent in inside:
            inside.add(s.sid)
            out.append(s)
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(spans: list[Span], extra: dict[str, float]) -> dict[str, float]:
    """Per-layer figures from the spans of a traced run.

    A time or count is summed over the spans of one operation (one solve,
    one pipeline pass or one instance's set-up) and the median is taken over
    the operations that reached that layer; a layer the workload never
    reaches reads 0.  ``extra`` carries figures measured outside the spans.
    """
    own = self_times(spans)
    per_op: dict[str, dict[str, list]] = {}
    for s in spans:
        if s.op is None:
            continue
        per_op.setdefault(s.name, {}).setdefault(s.op, []).append(s)

    def groups(name, kind):
        ops = per_op.get(name, {})
        return [v for op, v in ops.items() if kind is None or op.split("/", 1)[0] == kind]

    def total_s(name, only=None, kind=None):
        return _median([sum(x.duration for x in v if only is None or only(x)) for v in groups(name, kind)])

    def count(name):
        return _median([len(v) for v in groups(name, None)])

    by_id = {s.sid: s for s in spans}

    def under_init(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == "solver.init":
                return True
            p = by_id[p].parent
        return False

    # figures per solve call; a pipeline's solve is the same call on the same instance
    solves = [s for s in spans if s.name == "solver.solve"]
    y_steps, y_trials, y_stalls, proj_n, proj_s, self_s = [], [], [], [], [], []
    for root in solves:
        tree = subtree(spans, root.sid)
        sweep_y = [s for s in tree if s.name == "solver.update_Y" and not under_init(s)]
        y_steps.append(sum(s.attrs["steps"] for s in sweep_y))
        y_stalls.append(sum(s.attrs["stalled"] for s in sweep_y))
        sweep_ids = {s.sid for s in sweep_y}
        y_trials.append(
            sum(1 for s in tree if s.name == "projection.project" and s.parent in sweep_ids)
        )
        proj = [s for s in tree if s.name == "projection.project"]
        proj_n.append(len(proj))
        proj_s.append(sum(s.duration for s in proj))
        self_s.append(own[root.sid])
    lap_spans = [s for s in spans if s.name in ("assignment.update_X", "assignment.discretize", "frontend.lap")]

    out = {
        "synthetic.generate_s": total_s("synthetic.generate"),
        "serialize.save_problem_s": total_s("serialize.save_problem"),
        "frontend.scores_s": total_s("frontend.scores"),
        "frontend.lap_calls": count("frontend.lap"),
        "frontend.lap_s": total_s("frontend.lap"),
        "model.validate_s": total_s("model.validate", kind="pipeline"),
        "model.assemble_s": total_s("model.assemble"),
        "serialize.load_problem_s": total_s("serialize.load_problem"),
        "serialize.write_outputs_s": total_s("serialize.write_outputs"),
        "solver.solve_s": _median([s.duration for s in solves]),
        "solver.init_s": total_s("solver.init"),
        "solver.update_Y_s": total_s("solver.update_Y", lambda s: not under_init(s)),
        "solver.y_steps": _median(y_steps),
        "solver.y_trials": _median(y_trials),
        "solver.y_accept_ratio": _median([a / b for a, b in zip(y_steps, y_trials) if b]),
        "solver.y_stalls": _median(y_stalls),
        "solver.update_X_s": total_s("solver.update_X"),
        "solver.update_Z_s": total_s("solver.update_Z"),
        "solver.self_s": _median(self_s),
        "projection.calls": _median(proj_n),
        "projection.s": _median(proj_s),
        "projection.us_per_call": 1e6 * sum(proj_s) / max(1, sum(proj_n)),
        "assignment.update_X.calls": count("assignment.update_X"),
        "assignment.update_X.s": total_s("assignment.update_X"),
        "assignment.discretize.calls": count("assignment.discretize"),
        "assignment.discretize.s": total_s("assignment.discretize"),
        "assignment.us_per_call": 1e6 * sum(s.duration for s in lap_spans) / max(1, len(lap_spans)),
        "metrics.pair_stats_s": total_s("metrics.pair_stats"),
        "metrics.cycle_check_s": total_s("metrics.cycle_check"),
        "reconstruct.factorize_s": total_s("reconstruct.factorize"),
        "cli.solve_s": total_s("cli.solve"),
        "cli.eval_s": total_s("cli.eval"),
        "cli.reconstruct_s": total_s("cli.reconstruct"),
    }
    for layer in RSS_LAYERS:
        out[f"{layer}.rss_rise_mb"] = sum(
            s.attrs.get("rss_rise_mb", 0.0)
            for s in spans
            if s.name.split(".", 1)[0] == layer and _outermost_of_layer(s, by_id, layer)
        )
    out.update(extra)
    return out


def self_time_gap(spans: list[Span]) -> float:
    """Largest gap, over traced solves, between the summed self times and the wall time."""
    own = self_times(spans)
    gap = 0.0
    for root in spans:
        if root.name == "solver.solve":
            total = sum(own[s.sid] for s in subtree(spans, root.sid))
            gap = max(gap, abs(total - root.duration))
    return gap


def unit_of(name: str) -> str:
    """Unit of a per-layer figure, read from its name."""
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("objective"):
        return "objective"
    return "count"


def _outermost_of_layer(s: Span, by_id: dict[int, Span], layer: str) -> bool:
    """True when no ancestor of ``s`` belongs to the same layer, so rises are not counted twice."""
    p = s.parent
    while p is not None:
        if by_id[p].name.split(".", 1)[0] == layer:
            return False
        p = by_id[p].parent
    return True
