import json

import numpy as np
import pytest

from multimatch import ParseError, SelectionLabeling, generate
from multimatch.serialize import (
    load_features,
    load_labeling,
    load_problem,
    load_truth,
    problem_document,
    save_labeling,
    save_problem,
    save_trace,
    save_truth,
)
from multimatch.solver import TraceRecord


@pytest.fixture
def planted():
    return generate(3, 3, outliers_per_image=2, coord_noise_sigma=0.01,
                    match_corruption_rate=0.2, seed=17)


def test_problem_roundtrip_identical_instance(tmp_path, planted):
    path = tmp_path / "problem.json"
    inst = planted.instance
    save_problem(path, inst.features, inst.scores, {"k": 3, "lambda": 1.0})
    features, scores, defaults = load_problem(path)
    assert [f.image_id for f in features] == [f.image_id for f in inst.features]
    for fa, fb in zip(features, inst.features):
        assert np.array_equal(fa.coordinates, fb.coordinates)
    for (i, j), blk in inst.scores.blocks.items():
        if i != j:
            assert np.array_equal(scores.blocks[(i, j)], blk)
    assert defaults == {"k": 3, "lambda": 1.0}
    # serialize -> parse -> serialize is a fixed point
    text1 = problem_document(features, scores, defaults)
    features2, scores2, defaults2 = load_problem(path)
    text2 = problem_document(features2, scores2, defaults2)
    assert text1 == text2


def test_problem_document_is_deterministic(planted):
    inst = planted.instance
    a = problem_document(inst.features, inst.scores)
    b = problem_document(inst.features, inst.scores)
    assert a == b


def test_problem_document_puts_one_record_per_line(planted):
    inst = planted.instance
    text = problem_document(inst.features, inst.scores, {"k": 3})
    doc = json.loads(text)
    lines = text.splitlines()
    assert [json.loads(line.rstrip(",")) for line in lines if line.startswith('{"id"')] == doc["images"]
    assert [json.loads(line.rstrip(",")) for line in lines if line.startswith('{"i"')] == doc["pairwise"]
    assert [line for line in lines if not line.startswith('{"')] == [
        "{", '"format_version": 1,', '"images": [', "],", '"pairwise": [', "],", '"solver_defaults": {"k": 3}', "}",
    ]


def test_problem_roundtrip_with_descriptors(tmp_path, rng):
    from multimatch import FeatureSet
    from conftest import scores_from_blocks

    desc = rng.normal(size=(4, 3))
    desc /= np.linalg.norm(desc, axis=0)
    feats = [
        FeatureSet("a", rng.random((2, 3)), desc),
        FeatureSet("b", rng.random((2, 2))),
    ]
    scores = scores_from_blocks({(0, 1): rng.integers(0, 2, size=(3, 2)).astype(float)}, (3, 2))
    path = tmp_path / "p.json"
    save_problem(path, feats, scores)
    features, scores2, _ = load_problem(path)
    assert np.array_equal(features[0].descriptors, desc)
    assert features[1].descriptors is None
    assert np.array_equal(scores2.blocks[(0, 1)], scores.blocks[(0, 1)])


def test_truth_roundtrip(tmp_path, planted):
    path = tmp_path / "truth.json"
    ids = [f.image_id for f in planted.instance.features]
    save_truth(path, planted.truth_labels, ids, planted.universe_size)
    got_ids, labels, u = load_truth(path)
    assert got_ids == ids and u == 3
    for a, b in zip(labels, planted.truth_labels):
        assert np.array_equal(a, b)


def test_labeling_roundtrip(tmp_path, rng):
    from conftest import random_labeling

    lab = random_labeling(rng, [4, 5], 3)
    path = tmp_path / "lab.json"
    save_labeling(path, lab, ["x", "y"])
    ids, loaded = load_labeling(path)
    assert ids == ["x", "y"]
    assert loaded.k == 3
    for a, b in zip(loaded.assignments, lab.assignments):
        assert np.array_equal(a, b)


def test_trace_is_csv(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace(path, [TraceRecord("init", 0, 1.5, 0.0, 0.0, 1.5),
                      TraceRecord("rho=1", 1, 1.0, 0.25, 0.01, 1.26)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "stage,iteration,cycle,geo,coupling,total"
    assert lines[1].startswith("init,0,")
    assert len(lines) == 3


def _two_image_problem(pairwise):
    images = [{"id": "a", "coordinates": [[0, 1, 2], [0, 1, 2]]},
              {"id": "b", "coordinates": [[0, 1, 2], [2, 1, 0]]}]
    return {"format_version": 1, "images": images, "pairwise": pairwise}


MALFORMED_PAIRWISE = [
    [{"i": "a", "j": "b", "entries": [[-1, 0, 1.0]]}],  # negative index
    [{"i": "a", "j": "b", "entries": [[0, 3, 1.0]]}],  # past the block
    [{"i": "a", "j": "b", "entries": [[1.7, 0, 1.0]]}],  # not an integer
    [{"i": "a", "j": "b", "entries": [[0, 1, 0.3], [0, 1, 0.9]]}],  # repeated (row, col)
    [{"i": "a", "j": "b", "entries": [[0, 1, 0.3]]},
     {"i": "a", "j": "b", "entries": [[1, 1, 0.9]]}],  # pair listed twice
    [{"i": "a", "j": "b", "entries": [[0, 1], [1, 1, 0.9, 0]]}],  # not triples
    [{"i": "a", "j": "a", "entries": [[0, 1, 0.5]]}],  # an image paired with itself
]


def test_load_problem_rejects_bad_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(ParseError):
        load_problem(bad)
    bad.write_text(json.dumps({"format_version": 99, "images": []}))
    with pytest.raises(ParseError):
        load_problem(bad)
    bad.write_text(json.dumps({"format_version": 1}))
    with pytest.raises(ParseError):
        load_problem(bad)
    with pytest.raises(ParseError):
        load_problem(tmp_path / "missing.json")
    for images in ([], [{"id": "a", "coordinates": [[0], [0]]}] * 2):  # none, an id twice
        bad.write_text(json.dumps({"format_version": 1, "images": images}))
        with pytest.raises(ParseError):
            load_problem(bad)
    for pairwise in MALFORMED_PAIRWISE:
        bad.write_text(json.dumps(_two_image_problem(pairwise)))
        with pytest.raises(ParseError):
            load_problem(bad)


def test_load_features_reads_only_image_records(tmp_path, planted):
    path = tmp_path / "problem.json"
    inst = planted.instance
    save_problem(path, inst.features, inst.scores)
    features = load_features(path)
    assert [f.image_id for f in features] == [f.image_id for f in inst.features]
    for fa, fb in zip(features, inst.features):
        assert np.array_equal(fa.coordinates, fb.coordinates)
    for pairwise in MALFORMED_PAIRWISE:  # pairwise entries are not parsed
        path.write_text(json.dumps(_two_image_problem(pairwise)))
        assert [f.image_id for f in load_features(path)] == ["a", "b"]
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(ParseError):
        load_features(bad)
    with pytest.raises(ParseError):
        load_features(tmp_path / "missing.json")
    bad.write_text(json.dumps({"format_version": 99, "images": []}))
    with pytest.raises(ParseError):
        load_features(bad)
    for images in ([], [{"id": "a", "coordinates": [[0], [0]]}] * 2, [{"id": "a"}]):
        bad.write_text(json.dumps({"format_version": 1, "images": images}))
        with pytest.raises(ParseError):
            load_features(bad)


def test_load_features_stops_after_the_image_records(tmp_path):
    images = '[{"id": "a", "coordinates": [[0, 1], [0, 1]]}]'
    path = tmp_path / "problem.json"
    for text in (
        '{"format_version": 1, "images": ' + images + ', "pairwise": [not json',
        ' {\n"images" :' + images + ' ,\t"format_version": 1}  ',
        '{"format_version": 1, "other": {"images": 0}, "images": ' + images + "}",
    ):
        path.write_text(text)
        assert [f.image_id for f in load_features(path)] == ["a"]
        assert load_features(path)[0].coordinates.tolist() == [[0, 1], [0, 1]]
    for text in (
        '{"format_version": 1, "images": [{"id": "a", "coordinates": [[0, 1], [0 1]]}]}',
        '{"format_version": 1 "images": ' + images + "}",
        '{"format_version": 1, 2: ' + images + "}",
        '{"format_version": 1, "pairwise": []}',
        '{"format_version": 1} trailing',
        '{"format_version": 1,',
        "[1, 2]",
        "",
    ):
        path.write_text(text)
        with pytest.raises(ParseError):
            load_features(path)


def test_load_problem_keeps_both_directions_of_a_pair(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_two_image_problem([
        {"i": "a", "j": "b", "entries": [[0, 1, 0.3], [2, 0, 1.0]]},
        {"i": "b", "j": "a", "entries": [[1, 0, 0.5]]},
    ])))
    _, scores, _ = load_problem(path)
    assert np.array_equal(scores.blocks[(0, 1)], [[0, 0.3, 0], [0, 0, 0], [1.0, 0, 0]])
    assert np.array_equal(scores.blocks[(1, 0)], [[0, 0, 0], [0.5, 0, 0], [0, 0, 0]])


def test_load_labeling_rejects_empty_images(tmp_path):
    path = tmp_path / "lab.json"
    path.write_text(json.dumps({"format_version": 1, "k": 2, "images": []}))
    with pytest.raises(ParseError):
        load_labeling(path)


def _pairs_doc(pairs_per_image, **extra):
    images = [{"id": f"i{t}", "p": 3, "pairs": pairs} for t, pairs in enumerate(pairs_per_image)]
    return json.dumps({"format_version": 1, **extra, "images": images})


def test_sidecars_reject_malformed_pairs(tmp_path):
    path = tmp_path / "doc.json"
    bad_pairs = ([[-1, 0], [0, 1]], [[3, 0], [0, 1]], [[0.5, 0], [1, 1]],  # candidate index
                 [[0, 0], [0, 1]], [[0, 0.7], [1, 1]], [[0, 0], [1, 1], [2, -5]])  # repeat, label
    for bad in bad_pairs:
        path.write_text(_pairs_doc([[[0, 0], [1, 1]], bad], k=2))
        with pytest.raises(ParseError):
            load_labeling(path)
        path.write_text(_pairs_doc([[[0, 0], [1, 1]], bad], universe_size=2))
        with pytest.raises(ParseError):
            load_truth(path)


def test_load_labeling_rejects_invalid_labeling(tmp_path):
    path = tmp_path / "lab.json"
    path.write_text(_pairs_doc([[[0, 0], [1, 1]], [[0, 0], [2, 0]]], k=2))  # label 0 twice
    with pytest.raises(ParseError):
        load_labeling(path)
    path.write_text(_pairs_doc([[[0, 0], [1, 1]], [[0, 0]]], k=2))  # label 1 unused
    with pytest.raises(ParseError):
        load_labeling(path)
    path.write_text(_pairs_doc([[[0, 0], [1, 1]], [[2, 1], [0, 0]]], k=2))
    _, lab = load_labeling(path)
    assert [l.tolist() for l in lab.labels()] == [[0, 1, -1], [0, -1, 1]]


def test_load_truth_rejects_invalid_labels(tmp_path):
    path = tmp_path / "truth.json"
    for bad in ([[0, 0], [1, 0]], [[0, 2]]):  # label repeated, label past the universe
        path.write_text(_pairs_doc([[[0, 0], [1, 1]], bad], universe_size=2))
        with pytest.raises(ParseError):
            load_truth(path)
