"""Command-line pipeline: synthesize, solve, evaluate, reconstruct.

Exit codes: 0 success, 1 usage error, 2 parse or validation error,
3 solved with warnings (a continuation stage hit its sweep limit, a line
search stalled, or the start's descent used all its inner steps).
All commands are deterministic given identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys
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

BUILTIN_DEFAULTS = {"lambda": 1.0, "r": 4, "rho_schedule": (1.0, 10.0, 100.0), "seed": 0}


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
    slv.add_argument("--k", type=int, default=None, help="selected features per image")
    slv.add_argument("--lambda", dest="lam", type=float, default=None, help="geometric weight")
    slv.add_argument("--r", type=int, default=None, help="rank bound of the geometric fit")
    slv.add_argument("--rho", default=None, help="comma-separated coupling schedule")
    slv.add_argument("--seed", type=int, default=None)
    slv.add_argument("--max-sweeps", type=int, default=100)
    slv.add_argument("--max-inner", type=int, default=500)
    slv.set_defaults(func=_cmd_solve)

    ev = sub.add_parser("eval", help="score a labeling against ground truth")
    ev.add_argument("--labeling", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--problem", default=None, help="enables the measurement-rank diagnostic")
    ev.add_argument("--rank", type=int, default=4, help="rank bound for the diagnostic")
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
    defaults = dict(BUILTIN_DEFAULTS)
    defaults["k"] = planted.universe_size
    defaults["rho_schedule"] = list(defaults["rho_schedule"])
    instance = planted.instance
    serialize.save_problem(args.out, instance.features, instance.scores, defaults)
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
    features, scores, file_defaults = serialize.load_problem(args.problem)
    merged = {**BUILTIN_DEFAULTS, **file_defaults}
    if args.k is not None:
        merged["k"] = args.k
    if args.lam is not None:
        merged["lambda"] = args.lam
    if args.r is not None:
        merged["r"] = args.r
    if args.rho is not None:
        merged["rho_schedule"] = tuple(float(v) for v in args.rho.split(","))
    if args.seed is not None:
        merged["seed"] = args.seed
    if merged.get("k") is None:
        raise MatchingError("k is required (flag --k or solver_defaults in the problem file)")
    config = SolverConfig(
        k=int(merged["k"]),
        r=int(merged["r"]),
        lam=float(merged["lambda"]),
        rho_schedule=tuple(merged["rho_schedule"]),
        seed=int(merged["seed"]),
        max_sweeps=args.max_sweeps,
        max_inner=args.max_inner,
    )
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
    lab_ids, labeling = serialize.load_labeling(args.labeling)
    truth_ids, truth_labels, _ = serialize.load_truth(args.truth)
    truth = _align(truth_ids, truth_labels, lab_ids, "ground truth")
    for pred, true in zip(labeling.labels(), truth):
        if len(pred) != len(true):
            raise MatchingError("candidate counts disagree between labeling and truth")
    instance_id = Path(args.labeling).stem
    stats = metrics.pair_stats(labeling, truth)
    print(f"recall {stats.recall!r} {instance_id}")
    print(f"precision {stats.precision!r} {instance_id}")
    if stats.vacuous:
        print(f"vacuous 1 {instance_id}")
    if args.problem is not None:
        features, _, _ = serialize.load_problem(args.problem)
        coords = _aligned_coords(features, lab_ids)
        m_tilde = assemble_measurements(labeling, coords)
        diag = metrics.rank_diagnostic(m_tilde, args.rank)
        print(f"rank_tail_ratio {diag.tail_energy_ratio!r} {instance_id}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    features, _, _ = serialize.load_problem(args.problem)
    lab_ids, labeling = serialize.load_labeling(args.labeling)
    coords = _aligned_coords(features, lab_ids)
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


def _aligned_coords(features, wanted_ids):
    return _align([f.image_id for f in features], [f.coordinates for f in features], wanted_ids, "problem")


def _with_suffix(path, suffix: str) -> str:
    p = Path(path)
    return str(p.with_name(p.stem + suffix))


if __name__ == "__main__":
    sys.exit(main())
