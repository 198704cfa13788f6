import itertools
import json

import numpy as np
import pytest

from multimatch import ParseError, SelectionLabeling, generate
from multimatch.serialize import (
    FORMAT_VERSION,
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
        "{", f'"format_version": {FORMAT_VERSION},', '"images": [', "],", '"pairwise": [', "],", '"solver_defaults": {"k": 3}', "}",
    ]


def _reference_problem_document(features, scores, defaults):
    """The problem document rendered entry by entry, as the format describes it."""

    def listed(name, records):
        if not records:
            return f'"{name}": []'
        return f'"{name}": [\n' + ",\n".join(json.dumps(r) for r in records) + "\n]"

    images = []
    for f in features:
        rec = {"id": f.image_id, "coordinates": [[float(x) for x in row] for row in f.coordinates]}
        if f.descriptors is not None:
            rec["descriptors"] = [[float(x) for x in row] for row in f.descriptors]
        images.append(rec)
    offsets = np.concatenate(([0], np.cumsum(scores.sizes)))
    dense = scores.matrix.toarray()
    pairwise = []
    for i, j in itertools.permutations(range(len(features)), 2):
        block = dense[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]]
        entries = [x for r, c in zip(*np.nonzero(block)) for x in (int(r), int(c), float(block[r, c]))]
        if entries:
            pairwise.append({"i": features[i].image_id, "j": features[j].image_id, "entries": entries})
    fields = [f'"format_version": {FORMAT_VERSION}', listed("images", images), listed("pairwise", pairwise)]
    if defaults:
        order = ("k", "lambda", "r", "rho_schedule", "seed")
        fields.append('"solver_defaults": ' + json.dumps({k: defaults[k] for k in order if k in defaults}))
    return "{\n" + ",\n".join(fields) + "\n}\n"


def test_problem_document_matches_entry_by_entry_rendering(rng):
    from multimatch import FeatureSet
    from conftest import scores_from_blocks

    sizes = (3, 1, 4, 2)
    features = []
    for i, p in enumerate(sizes):
        desc = None
        if i % 2 == 0:
            desc = rng.normal(size=(5, p))
            desc /= np.linalg.norm(desc, axis=0)
        features.append(FeatureSet(f"im{i}", rng.normal(scale=100.0, size=(2, p)), desc))
    blocks = {}
    for i, j in [(0, 1), (0, 2), (2, 0), (3, 1), (2, 3)]:
        block = rng.random((sizes[i], sizes[j])) * (rng.random((sizes[i], sizes[j])) < 0.6)
        block[0, 0] = 0.1 + 0.2  # a value whose shortest repr has 17 digits
        blocks[(i, j)] = block
    defaults = {"seed": 3, "rho_schedule": [1.0, 10.0], "k": 1, "lambda": 0.5}
    for blocks_kept, defaults_kept in ((blocks, defaults), ({}, {})):
        scores = scores_from_blocks(blocks_kept, sizes)
        expected = _reference_problem_document(features, scores, defaults_kept)
        assert problem_document(features, scores, defaults_kept) == expected


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
    return {"format_version": FORMAT_VERSION, "images": images, "pairwise": pairwise}


OUTSIDE = r"pair \(a, b\): an entry index lies outside the block"
NOT_TRIPLES = r"a pairwise entry is not a \[row, col, value\] triple"

# (pairwise records, the ParseError each must raise)
MALFORMED_PAIRWISE = [
    ([{"i": "a", "j": "b", "entries": [-1, 0, 1.0]}], OUTSIDE),  # negative index
    ([{"i": "a", "j": "b", "entries": [0, 3, 1.0]}], OUTSIDE),  # past the block
    ([{"i": "a", "j": "b", "entries": [1.7, 0, 1.0]}], r"pair \(a, b\): an entry index is not an integer"),
    ([{"i": "a", "j": "b", "entries": [0, 1, 0.3, 0, 1, 0.9]}],
     r"pair \(a, b\): an entry \(row, col\) is listed twice"),
    ([{"i": "a", "j": "b", "entries": [0, 1, 0.3]},
      {"i": "a", "j": "b", "entries": [1, 1, 0.9]}], "an image pair is listed twice"),
    ([{"i": "a", "j": "b", "entries": [0, 1, 1, 1, 0.9]}], NOT_TRIPLES),
    ([{"i": "a", "j": "b", "entries": [[0, 1, 0.3]]}], NOT_TRIPLES),  # a triple of the old nested form
    ([{"i": "a", "j": "b", "entries": [[0, 1, 0.3], [1, 1, 0.9], [2, 0, 1.0]]}],
     "pairwise entries: expected JSON numbers, found array"),  # three nested triples
    ([{"i": "a", "j": "b", "entries": ["0", 1, 0.3]}], "pairwise entries: expected JSON numbers, found string"),
    ([{"i": "a", "j": "b", "entries": [0, 1, True]}], "pairwise entries: expected JSON numbers, found boolean"),
    ([{"i": "a", "j": "b", "entries": [0, 1, None]}], "pairwise entries: expected JSON numbers, found null"),
    ([{"i": "a", "j": "a", "entries": [0, 1, 0.5]}], "a record pairs an image with itself"),
]


def test_load_problem_rejects_bad_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(ParseError):
        load_problem(bad)
    bad.write_text(json.dumps({"format_version": 99, "images": []}))
    with pytest.raises(ParseError):
        load_problem(bad)
    bad.write_text(json.dumps({"format_version": FORMAT_VERSION}))
    with pytest.raises(ParseError):
        load_problem(bad)
    with pytest.raises(ParseError):
        load_problem(tmp_path / "missing.json")
    for images in ([], [{"id": "a", "coordinates": [[0], [0]]}] * 2):  # none, an id twice
        bad.write_text(json.dumps({"format_version": FORMAT_VERSION, "images": images}))
        with pytest.raises(ParseError):
            load_problem(bad)
    for pairwise, message in MALFORMED_PAIRWISE:
        bad.write_text(json.dumps(_two_image_problem(pairwise)))
        with pytest.raises(ParseError, match=message):
            load_problem(bad)


def test_load_problem_rejects_a_version_1_document(tmp_path):
    path = tmp_path / "p.json"
    doc = _two_image_problem([{"i": "a", "j": "b", "entries": [[0, 1, 0.3], [2, 0, 1.0]]}])
    path.write_text(json.dumps({**doc, "format_version": 1}))
    with pytest.raises(ParseError, match="unsupported format version 1"):
        load_problem(path)


@pytest.mark.parametrize("field, image", [
    ("coordinates", {"coordinates": [["0", 1], [0, 1]]}),
    ("coordinates", {"coordinates": [[0, True], [0, 1]]}),
    ("coordinates", {"coordinates": [[0, 1], [None, 1]]}),
    ("descriptors", {"coordinates": [[0, 1], [0, 1]], "descriptors": [[1, 0], ["0", 1]]}),
    ("descriptors", {"coordinates": [[0, 1], [0, 1]], "descriptors": [[1, 0], [False, 1]]}),
])
def test_loaders_reject_image_values_that_are_not_numbers(tmp_path, field, image):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION, "images": [{"id": "a", **image}]}))
    for load in (load_problem, load_features):
        with pytest.raises(ParseError, match=f"{field} of image a: expected JSON numbers"):
            load(path)


@pytest.mark.parametrize("defaults, message", [
    ({"k": 4.7}, "solver default k must be an integer"),
    ({"k": "4"}, "solver default k must be an integer"),
    ({"r": True}, "solver default r must be an integer"),
    ({"seed": 1.0}, "solver default seed must be an integer"),
    ({"lambda": "0.5"}, "solver default lambda: expected JSON numbers, found string"),
    ({"rho_schedule": ["1", 10]}, "solver default rho_schedule: expected JSON numbers, found string"),
])
def test_load_problem_rejects_solver_defaults_of_the_wrong_type(tmp_path, defaults, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**_two_image_problem([]), "solver_defaults": defaults}))
    with pytest.raises(ParseError, match=message):
        load_problem(path)


def test_load_features_reads_only_image_records(tmp_path, planted):
    path = tmp_path / "problem.json"
    inst = planted.instance
    save_problem(path, inst.features, inst.scores)
    features = load_features(path)
    assert [f.image_id for f in features] == [f.image_id for f in inst.features]
    for fa, fb in zip(features, inst.features):
        assert np.array_equal(fa.coordinates, fb.coordinates)
    for pairwise, _ in MALFORMED_PAIRWISE:  # pairwise entries are not parsed
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
        bad.write_text(json.dumps({"format_version": FORMAT_VERSION, "images": images}))
        with pytest.raises(ParseError):
            load_features(bad)


def test_load_features_stops_after_the_image_records(tmp_path):
    images = '[{"id": "a", "coordinates": [[0, 1], [0, 1]]}]'
    version = f'"format_version": {FORMAT_VERSION}'
    path = tmp_path / "problem.json"
    for text in (
        "{" + version + ', "images": ' + images + ', "pairwise": [not json',
        ' {\n"images" :' + images + " ,\t" + version + "}  ",
        "{" + version + ', "other": {"images": 0}, "images": ' + images + "}",
    ):
        path.write_text(text)
        assert [f.image_id for f in load_features(path)] == ["a"]
        assert load_features(path)[0].coordinates.tolist() == [[0, 1], [0, 1]]
    for text in (
        "{" + version + ', "images": [{"id": "a", "coordinates": [[0, 1], [0 1]]}]}',
        "{" + version + ' "images": ' + images + "}",
        "{" + version + ", 2: " + images + "}",
        "{" + version + ', "pairwise": []}',
        "{" + version + "} trailing",
        "{" + version + ",",
        "[1, 2]",
        "",
    ):
        path.write_text(text)
        with pytest.raises(ParseError):
            load_features(path)


def test_load_problem_keeps_both_directions_of_a_pair(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_two_image_problem([
        {"i": "a", "j": "b", "entries": [0, 1, 0.3, 2, 0, 1.0]},
        {"i": "b", "j": "a", "entries": [1, 0, 0.5]},
    ])))
    _, scores, _ = load_problem(path)
    assert np.array_equal(scores.blocks[(0, 1)], [[0, 0.3, 0], [0, 0, 0], [1.0, 0, 0]])
    assert np.array_equal(scores.blocks[(1, 0)], [[0, 0, 0], [0.5, 0, 0], [0, 0, 0]])


def test_load_labeling_rejects_empty_images(tmp_path):
    path = tmp_path / "lab.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION, "k": 2, "images": []}))
    with pytest.raises(ParseError):
        load_labeling(path)


def _pairs_doc(pairs_per_image, **extra):
    images = [{"id": f"i{t}", "p": 3, "pairs": pairs} for t, pairs in enumerate(pairs_per_image)]
    return json.dumps({"format_version": FORMAT_VERSION, **extra, "images": images})


def test_sidecars_reject_malformed_pairs(tmp_path):
    path = tmp_path / "doc.json"
    bad_pairs = ([[-1, 0], [0, 1]], [[3, 0], [0, 1]], [[0.5, 0], [1, 1]],  # candidate index
                 [[0, 0], [0, 1]], [[0, 0.7], [1, 1]], [[0, 0], [1, 1], [2, -5]],  # repeat, label
                 [["0", 0], [1, 1]], [[True, 0], [1, 1]], [[0, None], [1, 1]])  # not numbers
    for bad in bad_pairs:
        path.write_text(_pairs_doc([[[0, 0], [1, 1]], bad], k=2))
        with pytest.raises(ParseError):
            load_labeling(path)
        path.write_text(_pairs_doc([[[0, 0], [1, 1]], bad], universe_size=2))
        with pytest.raises(ParseError):
            load_truth(path)


def test_sidecars_put_one_image_record_per_line(tmp_path, rng):
    from conftest import random_labeling

    truth, lab = tmp_path / "truth.json", tmp_path / "lab.json"
    save_truth(truth, [np.array([1, -1, 0]), np.array([-1, 0])], ["x", "y"], 2)
    save_labeling(lab, random_labeling(rng, [4, 5], 3), ["x", "y"])
    assert json.loads(truth.read_text()) == {
        "format_version": FORMAT_VERSION, "universe_size": 2, "images": [
            {"id": "x", "p": 3, "pairs": [[0, 1], [1, -1], [2, 0]]},
            {"id": "y", "p": 2, "pairs": [[0, -1], [1, 0]]},
        ],
    }
    for path in (truth, lab):
        text = path.read_text()
        lines = text.splitlines()
        records = [json.loads(line.rstrip(",")) for line in lines if line.startswith('{"id"')]
        assert records == json.loads(text)["images"] and len(records) == 2


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
