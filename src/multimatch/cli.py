"""Command-line pipeline: synthesize, solve, evaluate, reconstruct.

Exit codes: 0 success, 1 usage error, 2 parse or validation error,
3 solved with warnings (a continuation stage hit its sweep limit, a line
search stalled, a Y update used all its inner steps, or a projection
stopped at its round cap).
All commands are deterministic given identical inputs; ``synth`` also
given its seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import metrics, serialize
from .errors import MatchingError
from .model import SolverConfig, validate_instance
from .reconstruct import affine_factorize
from .solver import assemble_measurements, solve
from .synthetic import generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_SOLVER_WARNING = 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help (0) and usage errors
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except MatchingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multimatch",
        description="Select and consistently label repeatable features across images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a planted problem with ground truth")
    synth.add_argument("--n", type=int, required=True, help="number of images")
    synth.add_argument("--universe", type=int, required=True, help="planted scene points")
    synth.add_argument("--outliers", type=int, default=0, help="outlier candidates per image")
    synth.add_argument("--sigma", type=float, default=0.0, help="coordinate noise std dev")
    synth.add_argument("--corrupt", type=float, default=0.0, help="match corruption rate")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", default="problem.json", help="problem file path")
    synth.add_argument("--truth-out", default=None, help="ground-truth path (default: <out>.truth.json)")
    synth.set_defaults(func=_cmd_synth)

    slv = sub.add_parser("solve", help="solve a problem file")
    slv.add_argument("--problem", required=True)
    slv.add_argument("--out", default="labeling.json", help="labeling output path")
    slv.add_argument("--trace", default=None, help="trace CSV path (default: <out>.trace.csv)")
    # dests are SolverConfig fields, not all of which have a flag; a flag left
    # out is None and falls back to solver_defaults, then to SolverConfig's defaults
    slv.add_argument("--k", type=int, help="selected features per image")
    slv.add_argument("--lambda", dest="lam", type=float, help="geometric weight")
    slv.add_argument("--r", type=int, help="rank bound of the geometric fit")
    slv.add_argument("--rho", dest="rho_schedule", type=_floats, help="comma-separated coupling schedule")
    slv.set_defaults(func=_cmd_solve)

    ev = sub.add_parser("eval", help="score a labeling against ground truth")
    ev.add_argument("--labeling", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--problem", default=None, help="enables the measurement-rank diagnostic")
    ev.add_argument("--rank", type=int, default=SolverConfig.r, help="rank bound for the diagnostic")
    ev.set_defaults(func=_cmd_eval)

    rec = sub.add_parser("reconstruct", help="factor a labeling into motion and shape")
    rec.add_argument("--problem", required=True)
    rec.add_argument("--labeling", required=True)
    rec.add_argument("--out", default="cloud.txt", help="point-cloud output path")
    rec.set_defaults(func=_cmd_reconstruct)
    return parser


def _cmd_synth(args) -> int:
    planted = generate(
        args.n,
        args.universe,
        outliers_per_image=args.outliers,
        coord_noise_sigma=args.sigma,
        match_corruption_rate=args.corrupt,
        seed=args.seed,
    )
    instance = planted.instance
    serialize.save_problem(args.out, instance.features, instance.scores, {"k": planted.universe_size})
    truth_path = args.truth_out or _with_suffix(args.out, ".truth.json")
    serialize.save_truth(
        truth_path,
        planted.truth_labels,
        [f.image_id for f in instance.features],
        planted.universe_size,
    )
    print(f"wrote {args.out} and {truth_path}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    features, scores, file_settings = serialize.load_problem(args.problem)
    flags = {f.name: v for f in fields(SolverConfig) if (v := getattr(args, f.name, None)) is not None}
    settings = {**file_settings, **flags}
    if "k" not in settings:
        raise MatchingError("k is required (flag --k or solver_defaults in the problem file)")
    config = SolverConfig(**settings)
    instance = validate_instance(features, scores, config)
    state = solve(instance, config)
    serialize.save_labeling(args.out, state.labeling, [f.image_id for f in features])
    trace_path = args.trace or _with_suffix(args.out, ".trace.csv")
    serialize.save_trace(trace_path, state.objective_trace)
    final = state.objective_trace[-1]
    print(
        f"solved: k={config.k} final_total={final.total:.6g} "
        f"cycle={final.cycle:.6g} geo={final.geo:.6g} -> {args.out}"
    )
    for warning in state.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_SOLVER_WARNING if state.warnings else EXIT_OK


def _cmd_eval(args) -> int:
    if args.rank < 1:  # before any file is read or any line printed
        raise MatchingError("rank bound must be at least 1")
    # no array is sized by the labeling's candidate counts; the truth's
    # labels are, so they are checked first against the problem's counts,
    # or without a problem against the labeling's
    features = None if args.problem is None else serialize.load_features(args.problem)
    lab_ids, labeling = _load_labeling(args.labeling, features)
    if features is None:
        truth_ids, truth_labels, _ = serialize.load_truth(args.truth, dict(zip(lab_ids, labeling.sizes)), "labeling")
    else:
        truth_ids, truth_labels, _ = serialize.load_truth(args.truth, {f.image_id: f.p for f in features})
    truth = _align(truth_ids, truth_labels, lab_ids, "ground truth")
    coords = None if features is None else _labeled_coords(features, lab_ids)
    instance_id = Path(args.labeling).stem
    stats = metrics.pair_stats(labeling, truth)
    print(f"recall {stats.recall!r} {instance_id}")
    print(f"precision {stats.precision!r} {instance_id}")
    if stats.vacuous:
        print(f"vacuous 1 {instance_id}")
    if coords is not None:
        diag = metrics.rank_diagnostic(assemble_measurements(labeling, coords), args.rank)
        print(f"rank_tail_ratio {diag.tail_energy_ratio!r} {instance_id}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    features = serialize.load_features(args.problem)
    lab_ids, labeling = _load_labeling(args.labeling, features)
    coords = _labeled_coords(features, lab_ids)
    m_tilde = assemble_measurements(labeling, coords)
    result = affine_factorize(m_tilde)
    serialize.save_point_cloud(args.out, result.shape)
    print(f"reprojection_rms {result.reprojection_rms!r} -> {args.out}")
    if result.degenerate:
        print("warning: centered measurements are rank-deficient", file=sys.stderr)
    return EXIT_OK


def _align(ids, values, wanted_ids, what):
    index = dict(zip(ids, values))
    missing = [i for i in wanted_ids if i not in index]
    if missing:
        raise MatchingError(f"{what} lacks images {missing}")
    return [index[i] for i in wanted_ids]


def _labeled_coords(features, lab_ids):
    """The problem's coordinates of the labeled images, in the labeling's order."""
    return _align([f.image_id for f in features], [f.coordinates for f in features], lab_ids, "problem")


def _load_labeling(path, features):
    """The labeling at ``path``; with the problem's ``features``, only over its images and candidate counts."""
    return serialize.load_labeling(path, None if features is None else {f.image_id: f.p for f in features})


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _with_suffix(path, suffix: str) -> str:
    p = Path(path)
    return str(p.with_name(p.stem + suffix))


if __name__ == "__main__":
    sys.exit(main())
