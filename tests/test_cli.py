import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multimatch
from multimatch import pair_stats, recall
from multimatch.cli import main
from multimatch.serialize import load_labeling, load_truth


def run(args):
    return main([str(a) for a in args])


def synth_args(out, truth, seed=1, n=6, universe=5, outliers=3, sigma=0.0, corrupt=0.0):
    return [
        "synth", "--n", n, "--universe", universe, "--outliers", outliers,
        "--sigma", sigma, "--corrupt", corrupt, "--seed", seed,
        "--out", out, "--truth-out", truth,
    ]


def test_synth_writes_files_and_is_deterministic(tmp_path):
    p1, t1 = tmp_path / "a.json", tmp_path / "a.truth.json"
    p2, t2 = tmp_path / "b.json", tmp_path / "b.truth.json"
    assert run(synth_args(p1, t1)) == 0
    assert run(synth_args(p2, t2)) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    code = run(["synth", "--universe", 5])
    assert code == 1
    code = run(["nonsense"])
    assert code == 1


def test_solve_noiseless_reaches_full_recall(tmp_path, capsys):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth, seed=3))
    labeling = tmp_path / "lab.json"
    trace = tmp_path / "trace.csv"
    code = run(["solve", "--problem", problem, "--out", labeling, "--trace", trace])
    assert code == 0
    ids, lab = load_labeling(labeling)
    tids, tlabels, _ = load_truth(truth)
    assert ids == tids
    assert recall(lab, tlabels) == 1.0
    assert trace.read_text().startswith("stage,iteration,cycle,geo,coupling,total")


def test_solve_lambda_zero_reports_zero_geo(tmp_path):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth, seed=5))
    labeling = tmp_path / "lab.json"
    trace = tmp_path / "trace.csv"
    assert run(["solve", "--problem", problem, "--out", labeling,
                "--trace", trace, "--lambda", 0]) == 0
    rows = trace.read_text().strip().splitlines()[1:]
    geo_vals = [float(r.split(",")[3]) for r in rows]
    assert all(v == 0.0 for v in geo_vals)


def test_solve_infeasible_k_is_validation_error(tmp_path, capsys):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth))
    code = run(["solve", "--problem", problem, "--out", tmp_path / "l.json", "--k", 99])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_solve_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["solve", "--problem", bad, "--out", tmp_path / "l.json"]) == 2


def test_solve_malformed_entry_is_parse_error(tmp_path):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth))
    doc = json.loads(problem.read_text())
    doc["pairwise"][0]["entries"] += [-1, 0, 1.0]
    problem.write_text(json.dumps(doc))
    assert run(["solve", "--problem", problem, "--out", tmp_path / "l.json"]) == 2


def test_solve_rejects_a_version_1_problem(tmp_path, capsys):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth))
    doc = json.loads(problem.read_text())
    for rec in doc["pairwise"]:  # the entries as [row, col, value] triples, as version 1 wrote them
        flat = rec["entries"]
        rec["entries"] = [flat[a : a + 3] for a in range(0, len(flat), 3)]
    problem.write_text(json.dumps({**doc, "format_version": 1}))
    capsys.readouterr()
    assert run(["solve", "--problem", problem, "--out", tmp_path / "l.json"]) == 2
    assert "unsupported format version 1" in capsys.readouterr().err


def test_self_pair_and_repeated_image_id_are_parse_errors(tmp_path):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    labeling = tmp_path / "l.json"
    run(synth_args(problem, truth))
    assert run(["solve", "--problem", problem, "--out", labeling]) == 0
    doc = json.loads(problem.read_text())
    bad = tmp_path / "bad.json"
    first = doc["images"][0]["id"]
    self_pair = {"i": first, "j": first, "entries": [0, 1, 1.0]}
    bad.write_text(json.dumps({**doc, "pairwise": [self_pair]}))
    assert run(["solve", "--problem", bad, "--out", tmp_path / "x.json"]) == 2
    bad.write_text(json.dumps({**doc, "images": doc["images"] + doc["images"][-1:]}))
    assert run(["reconstruct", "--problem", bad, "--labeling", labeling,
                "--out", tmp_path / "c.txt"]) == 2


def test_solve_warning_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(multimatch.solver, "MAX_SWEEPS", 1)
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth, seed=9, corrupt=0.4, sigma=0.02))
    assert run(["solve", "--problem", problem, "--out", tmp_path / "l.json"]) == 3
    assert "warning: max sweeps (1) reached at rho=1\n" in capsys.readouterr().err


def test_solve_init_step_cap_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(multimatch.solver, "MAX_INNER", 1)
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth, seed=9, corrupt=0.4, sigma=0.02))
    assert run(["solve", "--problem", problem, "--out", tmp_path / "l.json"]) == 3
    err = capsys.readouterr().err
    assert "warning: max inner steps (1) reached at init\n" in err
    capped = [line for line in err.splitlines() if line.startswith("warning: max inner steps")]
    assert len(capped) == 4  # init, then one line per rho stage
    assert capped[1].startswith("warning: max inner steps (1) reached in ")
    assert capped[1].endswith(" sweeps at rho=1")


def test_solve_projection_round_cap_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(multimatch.projection, "PROJECTION_MAX_ITER", 1)
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth, seed=9, corrupt=0.4, sigma=0.02))
    assert run(["solve", "--problem", problem, "--out", tmp_path / "l.json"]) == 3
    assert "warning: projection reached its 1-round cap in " in capsys.readouterr().err


def test_eval_matches_library_metrics(tmp_path, capsys):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth, seed=7, corrupt=0.2, sigma=0.01))
    labeling = tmp_path / "lab.json"
    run(["solve", "--problem", problem, "--out", labeling])
    capsys.readouterr()
    assert run(["eval", "--labeling", labeling, "--truth", truth,
                "--problem", problem]) == 0
    out = capsys.readouterr().out
    metrics = {}
    for line in out.strip().splitlines():
        name, value, _ = line.split()
        metrics[name] = float(value)

    ids, lab = load_labeling(labeling)
    _, tlabels, _ = load_truth(truth)
    stats = pair_stats(lab, tlabels)
    assert metrics["recall"] == stats.recall
    assert metrics["precision"] == stats.precision
    assert "rank_tail_ratio" in metrics


def test_eval_mismatched_ids_is_error(tmp_path, capsys):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth, seed=2))
    labeling = tmp_path / "lab.json"
    run(["solve", "--problem", problem, "--out", labeling])
    doc = json.loads(truth.read_text())
    doc["images"] = doc["images"][:-1]
    truth2 = tmp_path / "t2.json"
    truth2.write_text(json.dumps(doc))
    assert run(["eval", "--labeling", labeling, "--truth", truth2]) == 2


def test_reconstruct_noiseless_run(tmp_path, capsys):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth, seed=4, n=6, universe=6, outliers=3))
    labeling = tmp_path / "lab.json"
    run(["solve", "--problem", problem, "--out", labeling])
    capsys.readouterr()
    cloud = tmp_path / "cloud.txt"
    assert run(["reconstruct", "--problem", problem, "--labeling", labeling,
                "--out", cloud]) == 0
    out = capsys.readouterr().out
    rms = float(out.split()[1])
    assert rms < 1e-9
    lines = cloud.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 7  # header + one row per selected label


def test_reconstruct_small_k_fails(tmp_path):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth, seed=4, universe=3, n=4))
    labeling = tmp_path / "lab.json"
    run(["solve", "--problem", problem, "--out", labeling])
    assert run(["reconstruct", "--problem", problem, "--labeling", labeling,
                "--out", tmp_path / "c.txt"]) == 2


def test_console_entrypoint_runs():
    # the child imports the same multimatch as this process, installed or not
    src = str(Path(multimatch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "multimatch.cli", "--help"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout


def test_flag_overrides_file_defaults(tmp_path):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth, seed=6))
    # file default k is the universe size (5); --k 4 must win
    labeling = tmp_path / "lab.json"
    assert run(["solve", "--problem", problem, "--out", labeling, "--k", 4]) == 0
    _, lab = load_labeling(labeling)
    assert lab.k == 4


def test_solve_without_flags_uses_solver_config_defaults(tmp_path):
    planted = multimatch.generate(8, 5, outliers_per_image=3, coord_noise_sigma=0.02,
                                  match_corruption_rate=0.3, seed=4)
    problem, labeling = tmp_path / "p.json", tmp_path / "lab.json"
    instance = planted.instance
    multimatch.serialize.save_problem(problem, instance.features, instance.scores, {"k": 5})
    assert run(["solve", "--problem", problem, "--out", labeling]) == 0
    features, scores, defaults = multimatch.serialize.load_problem(problem)
    assert defaults == {"k": 5}
    config = multimatch.SolverConfig(k=5)
    expected = multimatch.solve(multimatch.validate_instance(features, scores, config), config)
    _, lab = load_labeling(labeling)
    assert np.array_equal(lab.index, expected.labeling.index)


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A synthesized problem, its ground truth and a labeling solved from it."""
    d = tmp_path_factory.mktemp("solved")
    problem, truth, labeling = d / "p.json", d / "t.json", d / "lab.json"
    assert run(synth_args(problem, truth, seed=2)) == 0
    assert run(["solve", "--problem", problem, "--out", labeling]) == 0
    return problem, truth, labeling


def _with_solver_defaults(problem, settings, out):
    doc = json.loads(problem.read_text())
    out.write_text(json.dumps({**doc, "solver_defaults": settings}))
    return out


@pytest.mark.parametrize("argv, code, message", [
    (lambda p, t, l, d: ["solve", "--problem", p, "--rho", "1,,2"], 1, "argument --rho"),
    (lambda p, t, l, d: ["solve", "--problem", p, "--seed", -1], 2, "seed must be nonnegative"),
    (lambda p, t, l, d: ["solve", "--problem", p, "--lambda", "nan"], 2, "geometric weight must be a finite number"),
    (lambda p, t, l, d: ["solve", "--problem", _with_solver_defaults(p, {"k": 5, "lambda": float("nan")}, d / "nan.json")],
     2, "geometric weight must be a finite number"),
    (lambda p, t, l, d: ["solve", "--problem", _with_solver_defaults(p, {"k": 5, "lamda": 0.0}, d / "typo.json")],
     2, "unknown solver defaults: ['lamda']"),
    (lambda p, t, l, d: ["synth", "--n", 1, "--universe", 3, "--out", d / "bad.json"], 2, "need at least two images"),
    (lambda p, t, l, d: ["eval", "--labeling", l, "--truth", t, "--problem", p, "--rank", 0],
     2, "rank bound must be at least 1"),
], ids=["rho-list", "seed", "lambda-flag", "lambda-file", "unknown-key", "synth-n", "eval-rank"])
def test_bad_input_exits_with_its_code(solved, tmp_path, capsys, monkeypatch, argv, code, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a rejected input reached the solver")

    monkeypatch.setattr(multimatch.cli, "solve", no_solve)
    monkeypatch.chdir(tmp_path)  # default output paths land here
    problem, truth, labeling = solved
    capsys.readouterr()
    assert run(argv(problem, truth, labeling, tmp_path)) == code
    assert message in capsys.readouterr().err
