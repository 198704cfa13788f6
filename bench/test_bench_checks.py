"""Each benchmark check accepts a correct output and rejects a broken one."""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import spans

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _write_labeling(path, k, images):
    doc = {"format_version": 1, "k": k, "images": [{"id": f"img{i}", "p": p, "pairs": pairs} for i, (p, pairs) in enumerate(images)]}
    path.write_text(json.dumps(doc))


def test_labeling_file_accepts_partial_permutation(tmp_path):
    path = tmp_path / "lab.json"
    _write_labeling(path, 2, [(3, [[0, 1], [2, 0]]), (2, [[1, 0], [0, 1]])])
    labels = checks.read_labeling(path, (3, 2), 2)
    assert [lab.tolist() for lab in labels] == [[1, -1, 0], [1, 0]]


@pytest.mark.parametrize(
    "pairs",
    [
        [[0, 1], [0, 0]],  # one candidate carries two labels (repeated row)
        [[0, 1], [2, 1]],  # one label on two candidates
        [[0, 1]],  # a label left unused
        [[0, 1], [3, 0]],  # candidate out of range
    ],
)
def test_labeling_file_rejects_broken_rows(tmp_path, pairs):
    path = tmp_path / "lab.json"
    _write_labeling(path, 2, [(3, pairs), (2, [[1, 0], [0, 1]])])
    with pytest.raises(checks.CheckFailed):
        checks.read_labeling(path, (3, 2), 2)


def test_labeling_file_rejects_malformed_json(tmp_path):
    path = tmp_path / "lab.json"
    path.write_text('{"k": 2, "images": [')
    with pytest.raises(checks.CheckFailed):
        checks.read_labeling(path, (3, 2), 2)


def test_assignments_reject_repeated_row():
    good = np.array([[1, 0], [0, 1], [0, 0]])
    assert checks.labels_from_assignments([good], 2)[0].tolist() == [0, 1, -1]
    with pytest.raises(checks.CheckFailed):
        checks.labels_from_assignments([np.array([[1, 1], [0, 0], [0, 0]])], 2)
    with pytest.raises(checks.CheckFailed):
        checks.labels_from_assignments([np.array([[1, 0], [1, 0], [0, 1]])], 2)


def test_same_labels_rejects_a_difference():
    a = [np.array([0, 1, -1]), np.array([1, 0])]
    checks.check_same_labels(a, [x.copy() for x in a])
    with pytest.raises(checks.CheckFailed):
        checks.check_same_labels(a, [np.array([1, 0, -1]), np.array([1, 0])])


def _recall_by_enumeration(pred, truth):
    n_true = n_correct = 0
    for i, j in itertools.combinations(range(len(pred)), 2):
        n_true += len(set(truth[i][truth[i] >= 0]) & set(truth[j][truth[j] >= 0]))
        for lab in set(pred[i][pred[i] >= 0]) & set(pred[j][pred[j] >= 0]):
            a = int(np.flatnonzero(pred[i] == lab)[0])
            b = int(np.flatnonzero(pred[j] == lab)[0])
            n_correct += truth[i][a] >= 0 and truth[i][a] == truth[j][b]
    return n_correct / n_true


def test_recall_count_matches_pair_enumeration():
    rng = np.random.default_rng(3)
    k, universe, p = 3, 4, 6
    for _ in range(20):
        pred, truth = [], []
        for _ in range(5):
            lab = np.full(p, -1)
            lab[rng.choice(p, k, replace=False)] = rng.permutation(k)
            pred.append(lab)
            tru = np.full(p, -1)
            tru[rng.choice(p, universe, replace=False)] = rng.permutation(universe)
            truth.append(tru)
        own = checks.recall_by_count(pred, truth, k, universe)
        assert own == pytest.approx(_recall_by_enumeration(pred, truth), abs=1e-15)
        checks.check_recall(own, pred, truth, k, universe)
        with pytest.raises(checks.CheckFailed):
            checks.check_recall(own + 0.01, pred, truth, k, universe)


def test_trace_rejects_increase_within_stage_only():
    checks.check_monotone_trace([("init", 5.0), ("init", 4.0), ("rho=1", 9.0), ("rho=1", 8.0)])
    with pytest.raises(checks.CheckFailed):
        checks.check_monotone_trace([("init", 5.0), ("init", 5.5)])
    with pytest.raises(checks.CheckFailed):
        checks.check_monotone_trace([("rho=1", 9.0), ("rho=1", 8.0), ("rho=1", 8.0 + 1e-6)])


def test_cycle_term_matches_full_matrix_and_rejects_a_wrong_value():
    rng = np.random.default_rng(0)
    sizes = (2, 3, 2)
    blocks = {(0, 1): rng.random((2, 3)), (0, 2): rng.random((2, 2)), (1, 2): rng.random((3, 2))}
    for i, p in enumerate(sizes):
        blocks[(i, i)] = np.eye(p)
    offs = np.concatenate(([0], np.cumsum(sizes)))
    w = np.zeros((7, 7))
    for (i, j), b in blocks.items():
        w[offs[i] : offs[i + 1], offs[j] : offs[j + 1]] = b
        w[offs[j] : offs[j + 1], offs[i] : offs[i + 1]] = b.T
    y = rng.random((7, 2))
    value = 0.25 * float(((w - y @ y.T) ** 2).sum())
    checks.check_cycle_term(value, blocks, sizes, y)
    with pytest.raises(checks.CheckFailed):
        checks.check_cycle_term(value * (1 + 1e-6), blocks, sizes, y)


def test_rms_rejects_a_wrong_residual():
    rng = np.random.default_rng(1)
    n, k = 4, 5
    coords = [rng.random((2, 6)) for _ in range(n)]
    labels = [np.array([0, 1, 2, 3, 4, -1]) for _ in range(n)]
    meas = np.vstack([c[:, :k] for c in coords])
    centered = meas - meas.mean(axis=1, keepdims=True)
    u, s, vt = np.linalg.svd(centered)
    rank3 = (u[:, :3] * s[:3]) @ vt[:3]
    rms = float(np.linalg.norm(centered - rank3) / np.sqrt(2 * n * k))
    checks.check_rms(rms, labels, coords, k)
    with pytest.raises(checks.CheckFailed):
        checks.check_rms(rms * 1.001, labels, coords, k)


def test_frontend_block_rejects_permuted_and_partial_matchings():
    rng = np.random.default_rng(2)
    d_i = rng.normal(size=(8, 4))
    d_j = rng.normal(size=(8, 5))
    d_i /= np.linalg.norm(d_i, axis=0)
    d_j /= np.linalg.norm(d_j, axis=0)
    sim = np.clip(d_i.T @ d_j, 0, 1)
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(sim, maximize=True)
    best = np.zeros_like(sim)
    best[rows, cols] = 1.0
    checks.check_frontend_block(best, d_i, d_j)
    with pytest.raises(checks.CheckFailed):
        checks.check_frontend_block(best[[1, 0, 2, 3]], d_i, d_j)  # two rows swapped
    partial = best.copy()
    partial[rows[0], cols[0]] = 0.0
    with pytest.raises(checks.CheckFailed):
        checks.check_frontend_block(partial, d_i, d_j)


def test_exit_codes_reject_nonzero():
    checks.check_exit_codes({"solve": 0, "eval": 0})
    with pytest.raises(checks.CheckFailed):
        checks.check_exit_codes({"solve": 3, "eval": 0})


def test_checks_accept_a_real_solve(tmp_path):
    mm = pytest.importorskip("multimatch")
    from multimatch import serialize

    planted = mm.generate(4, 4, outliers_per_image=2, coord_noise_sigma=0.01, match_corruption_rate=0.2, seed=5)
    inst = planted.instance
    state = mm.solve(inst, mm.SolverConfig(k=4, seed=0))
    labels = checks.labels_from_assignments(state.labeling.assignments, 4)
    trace = state.objective_trace
    checks.check_monotone_trace([(r.stage, r.total) for r in trace])
    checks.check_cycle_term(trace[-1].cycle, inst.scores.blocks, inst.layout.sizes, state.y)
    checks.check_recall(mm.recall(labels, planted.truth_labels), labels, planted.truth_labels, 4, 4)
    coords = inst.coordinates
    rms = mm.affine_factorize(mm.assemble_measurements(state.labeling, coords)).reprojection_rms
    checks.check_rms(rms, labels, coords, 4)
    path = tmp_path / "lab.json"
    serialize.save_labeling(path, state.labeling, [f.image_id for f in inst.features])
    checks.check_same_labels(labels, checks.read_labeling(path, inst.layout.sizes, 4))


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()
    with tracer.span("solver.solve", op="solve/0/0"):
        with tracer.span("solver.init"):
            with tracer.span("projection.project"):
                pass
        with tracer.span("solver.update_X"):
            pass
    own = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own.values()) == pytest.approx(root.duration, abs=1e-12)
    assert spans.self_time_gap(tracer.spans) < 1e-9
    assert [s.op for s in tracer.spans] == ["solve/0/0"] * 4
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
