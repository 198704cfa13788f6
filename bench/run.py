"""Benchmark of multimatch: one workload per process, timed per call, checked.

    python3 bench/run.py --workload crowd --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end figures, with ``--trace 1`` the per-layer figures of a
run whose layer boundaries are wrapped in spans (see ``spans.py``).
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: extra threads burn CPU on these
# small products without making a solve faster, and make timings wander.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import spans as tracing
from workloads import WORKLOADS, build_instance

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "work"

SETUP_SECONDS = 4.0  # set-up is repeated until it has taken this long ...
SETUP_MAX_REPEATS = 50  # ... or this many times

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "pipeline_s": "s",
    "recall": "ratio",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import multimatch from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "multimatch" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'multimatch'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import multimatch
    from multimatch import cli, frontend, metrics, model, serialize, solver  # noqa: F401

    if Path(multimatch.__file__).resolve().parent != src / "multimatch":
        sys.exit(f"error: imported multimatch from {multimatch.__file__}, not {src}")
    return multimatch


def calibrate() -> float:
    """Fixed work that no multimatch change can move: machine speed at this moment."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(160, 160))
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    for _ in range(20):
        np.linalg.svd(a)
    return time.perf_counter() - start


class Bench:
    """Runs one workload: set-up, then whole rounds of one pipeline per instance and a re-solve."""

    def __init__(self, mm, workload, seed: int, tracer: tracing.Tracer, work: Path):
        self.mm = mm
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.work = work
        self.config = mm.SolverConfig(k=workload.universe, seed=0)
        self.instances = []
        self.setup_s: list[float] = []
        self.solve_s: list[float] = []
        self.pipeline_s: list[float] = []
        self.recall: dict[int, float] = {}
        self.labels: dict[int, list[np.ndarray]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.problem_mb: list[float] = []
        self.solve_stats: dict[int, dict] = {}
        # Time the multimatch.solve call that `multimatch solve` makes: the
        # CLI looks the function up in its module at call time.
        self._cli_solve = mm.cli.solve
        mm.cli.solve = self._timed_cli_solve
        self.cli_state = None

    # -- operations -------------------------------------------------------

    def setup(self) -> None:
        """Build every instance; rebuild the same inputs while that stays cheap.

        Each rebuild writes identical files, so the repeats only add
        samples to the median of ``setup_s`` on the fast workloads.
        """
        spent = 0.0
        for rep in range(SETUP_MAX_REPEATS):
            built = []
            for t in range(self.w.instances):
                gc.collect()
                with self.tracer.span("bench.setup", op=f"setup/{t}/{rep}") as span:
                    built.append(build_instance(self.mm, self.w, self.seed, t, self.work))
                self.setup_s.append(span.duration)
                spent += span.duration
            self.instances = built
            if spent > SETUP_SECONDS:
                break

    def _timed_cli_solve(self, *args, **kwargs):
        start = time.perf_counter()
        state = self._cli_solve(*args, **kwargs)
        self.solve_s.append(time.perf_counter() - start)
        self.cli_state = state
        return state

    def run_op(self, kind: str, inst, rnd: int, body, check) -> None:
        """Time ``body`` as one operation, then check its output untimed."""
        self.attempted += 1
        gc.collect()
        try:
            with self.tracer.span(f"bench.{kind}", op=f"{kind}/{inst.index}/{rnd}") as span:
                out = body(inst)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        if kind == "pipeline":
            self.pipeline_s.append(span.duration)
        with self.tracer.span("bench.check"):
            try:
                check(inst, out)
            except checks.CheckFailed as exc:
                print(f"check failed: {kind} instance {inst.index}: {exc}", file=sys.stderr)
                self.failed += 1
                self.checks_failed += 1

    def pipeline(self, inst):
        """The user path from files: [descriptors ->] solve -> eval -> reconstruct."""
        mm, w = self.mm, self.w
        scores = None
        if w.descriptor_dim:
            scores = mm.frontend.scores_from_descriptors(inst.features)
            mm.serialize.save_problem(inst.problem, inst.features, scores, {"k": w.universe})
        commands = {
            "solve": ["solve", "--problem", inst.problem, "--out", inst.labeling],
            "eval": ["eval", "--labeling", inst.labeling, "--truth", inst.truth_file, "--problem", inst.problem],
            "reconstruct": ["reconstruct", "--problem", inst.problem, "--labeling", inst.labeling, "--out", inst.cloud],
        }
        codes, outputs = {}, {}
        self.cli_state = None
        for name, argv in commands.items():
            buf = io.StringIO()
            with self.tracer.span(f"cli.{name}"), contextlib.redirect_stdout(buf):
                codes[name] = mm.cli.main([str(a) for a in argv])
            outputs[name] = buf.getvalue()
        return scores, codes, outputs, self.cli_state

    def check_pipeline(self, inst, out) -> None:
        scores, codes, outputs, state = out
        w = self.w
        if scores is not None and inst.solver_instance is None:
            try:
                inst.solver_instance = self.mm.model.validate_instance(inst.features, scores, self.config)
            except self.mm.MatchingError as exc:
                raise checks.CheckFailed(f"frontend scores do not validate: {exc}") from exc
        checks.check_exit_codes(codes)
        labels = checks.read_labeling(inst.labeling, inst.sizes, w.universe)
        self.recall[inst.index] = checks.recall_by_count(labels, inst.truth, w.universe, w.universe)
        self.problem_mb.append(inst.problem.stat().st_size / 1e6)
        reported = _value_after(outputs["eval"], "recall")
        checks.check_recall(reported, labels, inst.truth, w.universe, w.universe)
        coords = [f.coordinates for f in inst.features]
        checks.check_rms(_value_after(outputs["reconstruct"], "reprojection_rms"), labels, coords, w.universe)
        if scores is not None:
            for (i, j), block in scores.blocks.items():
                checks.check_frontend_block(block, inst.features[i].descriptors, inst.features[j].descriptors)
        self._same_as_before(inst.index, labels)
        if state is None:
            raise checks.CheckFailed("`multimatch solve` made no multimatch.solve call")
        self.check_solve(inst, state)
        trace = state.objective_trace
        self.solve_stats[inst.index] = {
            "init_steps": sum(1 for r in trace if r.stage == "init") - 1,
            "sweeps": sum(1 for r in trace if r.stage != "init" and r.iteration > 0),
            "final_objective": trace[-1].total,
        }

    def solve(self, inst):
        return self.mm.solver.solve(inst.solver_instance, self.config)

    def check_solve(self, inst, state) -> None:
        """Solver properties, and the same labeling as the instance's earlier outputs."""
        trace = state.objective_trace
        labels = checks.labels_from_assignments(state.labeling.assignments, self.w.universe)
        checks.check_monotone_trace([(r.stage, r.total) for r in trace])
        checks.check_cycle_term(trace[-1].cycle, inst.solver_instance.scores.blocks, inst.sizes, state.y)
        self._same_as_before(inst.index, labels)

    def _same_as_before(self, index: int, labels) -> None:
        if index in self.labels:
            checks.check_same_labels(self.labels[index], labels)
        else:
            self.labels[index] = labels

    # -- the run ------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        """Whole rounds while the next round fits in ``seconds``.

        A round is one pipeline per instance, then one more library solve
        of the instance whose solve took the fewest init steps, which must
        reproduce that instance's labeling.  The cheapest instance keeps a
        slow local minimum from being solved twice.
        """
        start = time.perf_counter()
        rnd = 0
        while True:
            round_start = time.perf_counter()
            for inst in self.instances:
                self.run_op("pipeline", inst, rnd, self.pipeline, self.check_pipeline)
            if self.solve_stats:
                again = min(self.solve_stats, key=lambda t: (self.solve_stats[t]["init_steps"], t))
                self.run_op("repeat", self.instances[again], rnd, self.solve, self.check_solve)
            else:
                self.attempted += 1  # no pipeline produced a solve to repeat
                self.failed += 1
            rnd += 1
            now = time.perf_counter()
            if (now - start) + (now - round_start) > seconds:
                break


def _value_after(text: str, key: str) -> float:
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] == key:
            return float(parts[1])
    raise checks.CheckFailed(f"no {key!r} line in CLI output")


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mm = import_package()
    calib = [calibrate()]
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(
            tracer,
            {name: getattr(mm, name) for name in ("synthetic", "cli", "solver", "serialize", "assignment", "frontend", "metrics")},
        )
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(mm, WORKLOADS[args.workload], args.seed, tracer, work)
        bench.setup()
        bench.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calib.append(calibrate())
    stats = list(bench.solve_stats.values())
    if not bench.solve_s or not bench.recall:
        print("error: no solve or pipeline operation produced an output to check", file=sys.stderr)
        return 1

    if args.trace:
        extra = {
            "serialize.problem_mb": _median(bench.problem_mb),
            "solver.init_steps": _median([s["init_steps"] for s in stats]),
            "solver.sweeps": _median([s["sweeps"] for s in stats]),
            "solver.final_objective": _median([s["final_objective"] for s in stats]),
            "bench.calib_s": _median(calib),
        }
        values = tracing.per_layer(tracer.spans, extra)
        gap = tracing.self_time_gap(tracer.spans)
        if gap > 1e-6:
            print(f"self times miss their solve's wall time by {gap:.3g} s", file=sys.stderr)
            bench.checks_failed += 1
        tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json")
        metrics = {name: {"value": v, "unit": tracing.unit_of(name)} for name, v in values.items()}
    else:
        values = {
            "setup_s": _median(bench.setup_s),
            "solve_s": _median(bench.solve_s),
            "pipeline_s": _median(bench.pipeline_s),
            "recall": float(np.mean(list(bench.recall.values()))),
            "peak_rss_mb": tracing.peak_rss_mb(),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    result = {
        "correct": bench.checks_failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    samples = {"setup_s": bench.setup_s, "solve_s": bench.solve_s, "pipeline_s": bench.pipeline_s, "calib_s": calib}
    with open(WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "samples": samples}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
