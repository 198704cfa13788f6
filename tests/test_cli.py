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


def test_solve_refuses_an_image_id_that_is_not_a_string(tmp_path, capsys):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    labeling = tmp_path / "l.json"
    run(synth_args(problem, truth))
    doc = json.loads(problem.read_text())
    doc["images"][0]["id"] = 7
    problem.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["solve", "--problem", problem, "--out", labeling]) == 2
    assert "image id must be a JSON string, got 7" in capsys.readouterr().err
    assert not labeling.exists()


def test_solve_refuses_a_repeated_images_member(tmp_path, capsys):
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    labeling = tmp_path / "l.json"
    run(synth_args(problem, truth))
    doc = json.loads(problem.read_text())
    moved = [{**rec, "coordinates": (np.array(rec["coordinates"]) + 100).tolist()} for rec in doc["images"]]
    problem.write_text(problem.read_text().rstrip()[:-1] + ', "images": ' + json.dumps(moved) + "}")
    capsys.readouterr()
    assert run(["solve", "--problem", problem, "--out", labeling]) == 2
    assert 'member "images" is listed twice' in capsys.readouterr().err
    assert not labeling.exists()


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


def test_solve_inner_step_cap_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(multimatch.solver, "MAX_INNER", 1)
    problem, truth = tmp_path / "p.json", tmp_path / "t.json"
    run(synth_args(problem, truth, seed=9, corrupt=0.4, sigma=0.02))
    trace = tmp_path / "trace.csv"
    assert run(["solve", "--problem", problem, "--out", tmp_path / "l.json", "--trace", trace]) == 3
    err = capsys.readouterr().err
    assert " at init" not in err  # the start is not a descent
    capped = [line for line in err.splitlines() if line.startswith("warning: max inner steps")]
    # the stages that ran, in order: init, then a leading run of the rho schedule
    stages = list(dict.fromkeys(row.split(",")[0] for row in trace.read_text().splitlines()[1:]))
    assert stages[0] == "init" and stages[1:] == ["rho=1", "rho=10", "rho=100"][: len(stages) - 1]
    assert len(stages) > 1
    assert len(capped) == len(stages) - 1  # one line per rho stage that ran
    for line, stage in zip(capped, stages[1:]):
        assert line.startswith("warning: max inner steps (1) reached in ")
        assert line.endswith(f" sweeps at {stage}")


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


def test_eval_refuses_a_truth_of_other_candidate_counts(solved, tmp_path, capsys):
    problem, truth, labeling = solved
    doc = json.loads(truth.read_text())
    doc["images"][1]["p"] += 1
    truth2 = tmp_path / "t2.json"
    truth2.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["eval", "--labeling", labeling, "--truth", truth2]) == 2
    image = doc["images"][1]
    # the labeling's counts are read first, and the truth is checked against them as it loads
    assert f"image {image['id']}: the ground truth has {image['p']} candidates, the labeling {image['p'] - 1}" in capsys.readouterr().err


def _recounted(labeling, out, counts):
    """Copy ``labeling`` to ``out`` with the images' candidate counts changed by ``counts``.

    An image whose count goes down gets candidates 0, 1, ... for its labels,
    so the labeling stays valid on its own.
    """
    doc = json.loads(labeling.read_text())
    for rec, change in zip(doc["images"], counts):
        rec["p"] += change
        if change < 0:
            rec["pairs"] = [[c, label] for c, (_, label) in enumerate(rec["pairs"])]
    out.write_text(json.dumps(doc))
    return doc


@pytest.mark.parametrize("counts", [(2,), (1, -1)], ids=["one image", "shifted columns"])
@pytest.mark.parametrize("command", ["eval", "reconstruct"])
def test_a_labeling_of_other_candidate_counts_than_the_problem_exits_2(solved, tmp_path, capsys, command, counts):
    problem, truth, labeling = solved
    bad = tmp_path / "bad.json"
    doc = _recounted(labeling, bad, counts)
    argv = {
        "eval": ["eval", "--labeling", bad, "--truth", truth, "--problem", problem],
        "reconstruct": ["reconstruct", "--problem", problem, "--labeling", bad, "--out", tmp_path / "cloud.txt"],
    }[command]
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    first = doc["images"][0]
    message = f"image {first['id']}: the labeling has {first['p']} candidates, the problem {first['p'] - counts[0]}"
    assert message in captured.err
    assert captured.out == "" and not (tmp_path / "cloud.txt").exists()


@pytest.mark.skipif(sys.platform != "linux", reason="address-space limits are enforced on Linux")
@pytest.mark.parametrize("command", ["eval", "eval-agreeing", "reconstruct"])
def test_a_sidecar_p_past_the_memory_exits_2(solved, tmp_path, command):
    import resource

    problem, truth, labeling = solved
    doc = json.loads(labeling.read_text())
    image = doc["images"][0]
    p, image["p"] = image["p"], 35184372088832  # 2**45 candidates: 256 TiB of labels
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    big_truth = tmp_path / "huge.truth.json"  # a truth that agrees with the labeling's count
    truth_doc = json.loads(truth.read_text())
    truth_doc["images"][0]["p"] = image["p"]
    big_truth.write_text(json.dumps(truth_doc))
    argv = {
        "eval": ["eval", "--labeling", bad, "--truth", truth],
        "eval-agreeing": ["eval", "--labeling", bad, "--truth", big_truth],
        "reconstruct": ["reconstruct", "--problem", problem, "--labeling", bad, "--out", tmp_path / "cloud.txt"],
    }[command]

    def limit_address_space():  # in the child only: 4 GiB
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    src = str(Path(multimatch.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "multimatch.cli", *map(str, argv)], capture_output=True, text=True,
                          env=env, preexec_fn=limit_address_space, timeout=120)
    assert proc.returncode == 2, proc.stderr
    # the labeling allocates nothing by its count; the truth's count is refused
    # before the truth is allocated: against the labeling's without a problem
    message = {
        "eval": f"image {image['id']}: the ground truth has {p} candidates, the labeling {image['p']}",
        "eval-agreeing": f"{big_truth}: ground-truth document needs more memory than is available",
        "reconstruct": f"image {image['id']}: the labeling has {image['p']} candidates, the problem {p}",
    }[command]
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["eval", "reconstruct"])
def test_a_sidecar_p_that_fits_is_refused_before_it_is_allocated(solved, tmp_path, capsys, command):
    import tracemalloc

    problem, truth, labeling = solved
    doc = json.loads(labeling.read_text())
    image = doc["images"][0]
    p, image["p"] = image["p"], 10**8  # 800 MB per array of labels
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(doc))
    argv = {
        "eval": ["eval", "--labeling", bad, "--truth", truth, "--problem", problem],
        "reconstruct": ["reconstruct", "--problem", problem, "--labeling", bad, "--out", tmp_path / "cloud.txt"],
    }[command]
    capsys.readouterr()
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        assert run(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 << 20
    assert f"image {image['id']}: the labeling has {10**8} candidates, the problem {p}" in capsys.readouterr().err


@pytest.mark.parametrize("inflated, problem_given", [
    pytest.param("truth", True, id="True"),
    pytest.param("truth", False, id="False"),
    # plain eval: the labeling's counts are read, not allocated, and the truth checked against them
    pytest.param("labeling", False, id="labeling"),
])
def test_a_truth_p_is_refused_before_it_is_allocated(solved, tmp_path, capsys, inflated, problem_given):
    import tracemalloc

    problem, truth, labeling = solved
    paths = {"truth": truth, "labeling": labeling}
    doc = json.loads(paths[inflated].read_text())
    image = doc["images"][0]
    p, image["p"] = image["p"], 10**8  # 800 MB per array of labels
    paths[inflated] = tmp_path / f"big.{inflated}.json"
    paths[inflated].write_text(json.dumps(doc))
    argv = ["eval", "--labeling", paths["labeling"], "--truth", paths["truth"], *(["--problem", problem] if problem_given else [])]
    capsys.readouterr()
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        assert run(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 << 20
    truth_p, other_p = (10**8, p) if inflated == "truth" else (p, 10**8)
    counted_by = "problem" if problem_given else "labeling"
    assert f"image {image['id']}: the ground truth has {truth_p} candidates, the {counted_by} {other_p}" in capsys.readouterr().err


def test_plain_eval_decodes_each_sidecar_once(solved, capsys, monkeypatch):
    problem, truth, labeling = solved
    decoded = []
    document = multimatch.serialize._document

    def counted(path, *args, **kwargs):
        decoded.append(Path(path))
        return document(path, *args, **kwargs)

    monkeypatch.setattr(multimatch.serialize, "_document", counted)
    assert run(["eval", "--labeling", labeling, "--truth", truth]) == 0
    assert sorted(decoded) == sorted([labeling, truth])
    plain = capsys.readouterr().out
    assert run(["eval", "--labeling", labeling, "--truth", truth, "--problem", problem]) == 0
    assert capsys.readouterr().out.startswith(plain)


def test_plain_eval_refuses_counts_whose_total_passes_int64(solved, tmp_path, capsys):
    # the two documents agree, so only the truth's allocation can refuse them
    problem, truth, labeling = solved
    paths = []
    for src in (labeling, truth):
        doc = json.loads(src.read_text())
        doc["images"][0]["p"] = doc["images"][1]["p"] = 2**62
        paths.append(tmp_path / src.name)
        paths[-1].write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["eval", "--labeling", paths[0], "--truth", paths[1]]) == 2
    err = capsys.readouterr().err
    assert f"{paths[1]}: malformed ground-truth document" in err and "Traceback" not in err


def _repeat_member(src, out, records, key):
    """Copy the document at ``src`` to ``out`` with its first ``records`` entry listing ``key`` twice."""
    doc = json.loads(src.read_text())
    record = json.dumps(doc[records][0])
    text = json.dumps(doc)
    assert text.count(record) == 1
    out.write_text(text.replace(record, f"{record[:-1]}, {json.dumps(key)}: {json.dumps(doc[records][0][key])}}}"))
    return out


@pytest.mark.parametrize("command, records, key", [
    ("solve", "images", "coordinates"),  # load_problem
    ("solve", "pairwise", "entries"),  # load_problem
    ("reconstruct", "images", "coordinates"),  # load_features
    ("eval-labeling", "images", "pairs"),  # load_labeling
    ("eval-truth", "images", "pairs"),  # load_truth
])
def test_a_member_repeated_inside_a_record_exits_2(solved, tmp_path, capsys, monkeypatch, command, records, key):
    def no_solve(*args, **kwargs):
        raise AssertionError("a rejected input reached the solver")

    monkeypatch.setattr(multimatch.cli, "solve", no_solve)
    problem, truth, labeling = solved
    bad = tmp_path / "bad.json"
    argv = {
        "solve": lambda: ["solve", "--problem", _repeat_member(problem, bad, records, key), "--out", tmp_path / "l.json"],
        "reconstruct": lambda: ["reconstruct", "--problem", _repeat_member(problem, bad, records, key),
                                "--labeling", labeling, "--out", tmp_path / "cloud.txt"],
        "eval-labeling": lambda: ["eval", "--labeling", _repeat_member(labeling, bad, records, key), "--truth", truth],
        "eval-truth": lambda: ["eval", "--labeling", labeling, "--truth", _repeat_member(truth, bad, records, key)],
    }[command]()
    capsys.readouterr()
    assert run(argv) == 2
    assert f'member "{key}" is listed twice' in capsys.readouterr().err
    assert not (tmp_path / "l.json").exists() and not (tmp_path / "cloud.txt").exists()


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


def _not_utf8(path):
    path.write_bytes(b'{"format_version": 2, "images": \xff}')
    return path


def _nested(path, depth=100_000):
    """A document whose images member is ``depth`` nested arrays: deeper than the JSON decoder recurses."""
    path.write_text('{"format_version": 2, "images": ' + "[" * depth + "]" * depth + "}")
    return path


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
    (lambda p, t, l, d: ["eval", "--labeling", l, "--truth", t, "--rank", 0], 2, "rank bound must be at least 1"),
    (lambda p, t, l, d: ["solve", "--problem", _not_utf8(d / "latin.json")],
     2, "latin.json: 'utf-8' codec can't decode byte 0xff"),
    (lambda p, t, l, d: ["solve", "--problem", _nested(d / "deep.json")],
     2, "deep.json: malformed problem document (maximum recursion depth exceeded"),
    (lambda p, t, l, d: ["eval", "--labeling", l, "--truth", t, "--problem", _nested(d / "deep.json")],
     2, "deep.json: malformed problem document (maximum recursion depth exceeded"),
    (lambda p, t, l, d: ["eval", "--labeling", _nested(d / "deep.json"), "--truth", t],
     2, "deep.json: malformed labeling document (maximum recursion depth exceeded"),
    (lambda p, t, l, d: ["eval", "--labeling", l, "--truth", _nested(d / "deep.json")],
     2, "deep.json: malformed ground-truth document (maximum recursion depth exceeded"),
], ids=["rho-list", "seed", "lambda-flag", "lambda-file", "unknown-key", "synth-n", "eval-rank", "eval-rank-plain",
        "not-utf8", "nested-problem", "nested-problem-eval", "nested-labeling", "nested-truth"])
def test_bad_input_exits_with_its_code(solved, tmp_path, capsys, monkeypatch, argv, code, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a rejected input reached the solver")

    monkeypatch.setattr(multimatch.cli, "solve", no_solve)
    monkeypatch.chdir(tmp_path)  # default output paths land here
    problem, truth, labeling = solved
    capsys.readouterr()
    assert run(argv(problem, truth, labeling, tmp_path)) == code
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""  # refused before any result line is printed
