import hashlib
import itertools
import json

import numpy as np
import pytest

from multimatch import FeatureSet, NonFiniteEntry, ParseError, SelectionLabeling, generate
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
    save_problem(path, inst.features, inst.scores, {"k": 3, "lam": 1.0})
    features, scores, defaults = load_problem(path)
    assert [f.image_id for f in features] == [f.image_id for f in inst.features]
    for fa, fb in zip(features, inst.features):
        assert np.array_equal(fa.coordinates, fb.coordinates)
    for (i, j), blk in inst.scores.blocks.items():
        if i != j:
            assert np.array_equal(scores.blocks[(i, j)], blk)
    assert defaults == {"k": 3, "lam": 1.0}
    assert '"solver_defaults": {"k": 3, "lambda": 1.0}' in path.read_text()
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


def _reference_problem_document(features, scores, settings):
    """The problem document rendered entry by entry, as the format describes it.

    ``settings`` are keyed by SolverConfig field name; the file spells ``lam`` ``lambda``.
    """

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
    if settings:
        keys = {"k": "k", "lam": "lambda", "r": "r", "rho_schedule": "rho_schedule", "seed": "seed"}
        fields.append('"solver_defaults": ' + json.dumps({keys[name]: settings[name] for name in keys if name in settings}))
    return "{\n" + ",\n".join(fields) + "\n}\n"


def test_problem_document_matches_entry_by_entry_rendering(rng):
    from conftest import scores_from_blocks

    sizes = (3, 1, 4, 2, 12)  # image 4's indices reach two digits
    # ids the pairwise records spell as JSON strings: a quote, a backslash,
    # the text of a record boundary, and characters escaped as \uXXXX
    ids = ["im0", 'say "im1"', "im\\2", ']}, {"i": "im3', "caf\u00e9 \u753b\u50cf"]
    features = []
    for i, p in enumerate(sizes):
        desc = None
        if i % 2 == 0:
            desc = rng.normal(size=(5, p))
            desc /= np.linalg.norm(desc, axis=0)
        features.append(FeatureSet(ids[i], rng.normal(scale=100.0, size=(2, p)), desc))
    blocks = {}
    for i, j in [(0, 1), (0, 2), (2, 0), (3, 1), (2, 3), (4, 0), (1, 4), (4, 2)]:
        block = rng.random((sizes[i], sizes[j])) * (rng.random((sizes[i], sizes[j])) < 0.6)
        block[0, 0] = 0.1 + 0.2  # a value whose shortest repr has 17 digits
        blocks[(i, j)] = block
    # the smallest subnormal, a value near the largest float, a negative and a whole number
    blocks[(4, 2)][[10, 11, 11, 5], [3, 0, 2, 1]] = 5e-324, 1e308, -1.5, 2.0
    blocks[(1, 4)][0, 9:] = 1.0
    defaults = {"seed": 3, "rho_schedule": [1.0, 10.0], "k": 1, "lam": 0.5}
    for blocks_kept, defaults_kept in ((blocks, defaults), ({}, {})):
        scores = scores_from_blocks(blocks_kept, sizes)
        expected = _reference_problem_document(features, scores, defaults_kept)
        assert problem_document(features, scores, defaults_kept) == expected


def test_problem_document_keeps_its_digest():
    # the problem file's bytes for a seeded corrupted instance; a change to
    # this digest changes every problem file written and must be named in CHANGES.md
    inst = generate(30, 6, outliers_per_image=3, coord_noise_sigma=0.01,
                    match_corruption_rate=0.2, seed=11).instance
    features = [FeatureSet(f.image_id, np.round(f.coordinates, 10)) for f in inst.features]
    text = problem_document(features, inst.scores, {"k": 6})
    assert hashlib.sha256(text.encode()).hexdigest() == "b38c4502507d2874b9ab580196117b3ba903c1bce185cc252957ae82ccd9c611"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_document_refuses_non_finite_scores(tmp_path, bad):
    # JSON has no token for them: the writer names the first block holding
    # one, in the written order, instead of writing a file every reader refuses
    from conftest import scores_from_blocks

    block, later = np.full((2, 3), 0.5), np.eye(3)
    block[1, 2] = later[2, 0] = bad
    features = [FeatureSet(f"im{i}", np.zeros((2, p))) for i, p in enumerate((3, 2, 3))]
    scores = scores_from_blocks({(0, 2): np.full((3, 3), 0.25), (2, 0): later, (1, 2): block}, (3, 2, 3))
    with pytest.raises(NonFiniteEntry, match=r"block \(1, 2\) contains non-finite scores"):
        problem_document(features, scores)
    with pytest.raises(NonFiniteEntry):
        save_problem(tmp_path / "problem.json", features, scores)
    assert not (tmp_path / "problem.json").exists()


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
    # a truth file that lists its outliers as -1 pairs reads the same
    doc = json.loads(path.read_text())
    for rec, lab in zip(doc["images"], planted.truth_labels):
        rec["pairs"] = [[c, int(label)] for c, label in enumerate(lab)]
    path.write_text(json.dumps(doc))
    assert all(np.array_equal(a, b) for a, b in zip(load_truth(path)[1], planted.truth_labels))


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
     r"pair \(a, b\): an entry row must be a JSON number, got \[0, 1, 0.3\]"),  # three nested triples
    ([{"i": "a", "j": "b", "entries": ["0", 1, 0.3]}], r'pair \(a, b\): an entry row must be a JSON number, got "0"'),
    ([{"i": "a", "j": "b", "entries": [0, 1, True]}], r"pair \(a, b\): an entry value must be a JSON number, got true"),
    ([{"i": "a", "j": "b", "entries": [0, 1.5, 0.3, 0, False, 1]}],
     r"pair \(a, b\): an entry column must be a JSON number, got false"),
    ([{"i": "a", "j": "b", "entries": [0, 1, None]}], r"pair \(a, b\): an entry value must be a JSON number, got null"),
    ([{"i": "a", "j": "a", "entries": [0, 1, 0.5]}], "a record pairs an image with itself"),
    ({}, "pairwise must be a JSON array, got {}"),  # not read as no pairs
    ("", 'pairwise must be a JSON array, got ""'),
    (5, "pairwise must be a JSON array, got 5"),
    (None, "pairwise must be a JSON array, got null"),
    ([{"i": "a", "j": "b", "entries": [0, 1, 0.5]}, 5], r"pairwise\[1\] must be a JSON object, got 5"),
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


def _members(*pairs):
    """A JSON object's text from (key, value) members in order, a key possibly repeated."""
    return "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in pairs) + "}"


def test_readers_refuse_a_repeated_top_level_member(tmp_path):
    doc = _two_image_problem([{"i": "a", "j": "b", "entries": [0, 1, 0.5]}])
    images = doc["images"]
    moved = [{**rec, "coordinates": (np.array(rec["coordinates"]) + 100).tolist()} for rec in images]
    path = tmp_path / "p.json"
    for key, value in [("images", moved), ("pairwise", []), ("format_version", FORMAT_VERSION),
                       ("solver_defaults", {"k": 3})]:
        path.write_text(_members(*doc.items(), ("solver_defaults", {"k": 2}), (key, value)))
        with pytest.raises(ParseError, match=rf'malformed problem document \(member "{key}" is listed twice\)'):
            load_problem(path)
    # load_features stops once format_version and images are read: it refuses a repeat before then
    version = ("format_version", FORMAT_VERSION)
    for members, key in [
        ((("images", images), ("images", moved), version), "images"),
        ((version, version, ("images", images)), "format_version"),
    ]:
        path.write_text(_members(*members))
        with pytest.raises(ParseError, match=f'member "{key}" is listed twice'):
            load_features(path)
    path.write_text(_members(*doc.items(), ("images", moved)))  # after its last member: not read
    assert [f.coordinates.tolist() for f in load_features(path)] == [rec["coordinates"] for rec in images]
    sidecar = json.loads(_pairs_doc([[[0, 0], [1, 1]], [[2, 1], [0, 0]]], k=2))
    path.write_text(_members(*sidecar.items(), ("k", 3)))
    with pytest.raises(ParseError, match='member "k" is listed twice'):
        load_labeling(path)


def test_load_problem_rejects_a_version_1_document(tmp_path):
    path = tmp_path / "p.json"
    doc = _two_image_problem([{"i": "a", "j": "b", "entries": [[0, 1, 0.3], [2, 0, 1.0]]}])
    path.write_text(json.dumps({**doc, "format_version": 1}))
    with pytest.raises(ParseError, match="unsupported format version 1"):
        load_problem(path)


@pytest.mark.parametrize("version", [2.0, "2", True, None])
def test_readers_refuse_a_format_version_that_is_not_a_json_integer(tmp_path, version):
    # 2.0 == 2 and True == 1 in Python: only the JSON type tells them apart
    path = tmp_path / "doc.json"
    got = json.dumps(version)
    for reader, doc in [(load_problem, _two_image_problem([])), (load_features, _two_image_problem([])),
                        (load_labeling, json.loads(_pairs_doc([[[0, 0], [1, 1]], [[0, 0], [1, 1]]], k=2)))]:
        path.write_text(json.dumps({**doc, "format_version": version}))
        with pytest.raises(ParseError, match=rf"\(format_version must be a JSON integer, got {got}\)"):
            reader(path)


@pytest.mark.parametrize("field, image", [
    ("coordinates", {"coordinates": [["0", 1], [0, 1]]}),
    ("coordinates", {"coordinates": [[0, True], [0, 1]]}),
    ("coordinates", {"coordinates": [[0, 1], [None, 1]]}),
    ("descriptors", {"coordinates": [[0, 1], [0, 1]], "descriptors": [[1, 0], ["0", 1]]}),
    ("descriptors", {"coordinates": [[0, 1], [0, 1]], "descriptors": [[1, 0], [False, 1]]}),
])
def test_loaders_reject_image_values_that_are_not_numbers(tmp_path, field, image):
    spelled = json.dumps(next(v for row in image[field] for v in row if type(v) not in (int, float)))
    path = tmp_path / "p.json"
    good = {"id": "a", "coordinates": [[0, 1], [0, 1]], "descriptors": [[1, 0], [0, 1]]}
    # the faulty image is the second: the one pass over all images names it
    path.write_text(json.dumps({"format_version": FORMAT_VERSION, "images": [good, {"id": "b", **image}]}))
    for load in (load_problem, load_features):
        with pytest.raises(ParseError, match=f"{field} of image b must be a JSON number, got {spelled}"):
            load(path)


@pytest.mark.parametrize("field", ["coordinates", "descriptors"])
@pytest.mark.parametrize("value, spelled", [(5, "5"), (True, "true"), ([[0, 1], 5], "5"), ([[0, 1], "01"], '"01"')])
def test_loaders_reject_image_values_that_are_not_arrays_of_rows(tmp_path, field, value, spelled):
    path = tmp_path / "p.json"
    good = {"id": "a", "coordinates": [[0, 1], [0, 1]], "descriptors": [[1, 0], [0, 1]]}
    path.write_text(json.dumps({"format_version": FORMAT_VERSION, "images": [good, {**good, "id": "b", field: value}]}))
    for load in (load_problem, load_features):
        with pytest.raises(ParseError, match=f"{field} of image b must be a JSON array, got {spelled}"):
            load(path)


@pytest.mark.parametrize("defaults, message", [
    ({"k": 4.7}, "solver default k must be a JSON integer, got 4.7"),
    ({"k": "4"}, 'solver default k must be a JSON integer, got "4"'),
    ({"r": True}, "solver default r must be a JSON integer, got true"),
    ({"seed": 1.0}, "solver default seed must be a JSON integer, got 1.0"),
    ({"lambda": "0.5"}, 'solver default lambda must be a JSON number, got "0.5"'),
    ({"rho_schedule": ["1", 10]}, r'solver default rho_schedule\[0\] must be a JSON number, got "1"'),
    ([["k", 2]], r'solver_defaults must be a JSON object, got \[\["k", 2\]\]'),
    ({"rho_schedule": 5}, "solver default rho_schedule must be a JSON array, got 5"),
    ({"rho_schedule": "1,10"}, 'solver default rho_schedule must be a JSON array, got "1,10"'),
    ({"rho_schedule": [1, 10, "100"]}, r'solver default rho_schedule\[2\] must be a JSON number, got "100"'),
    ({"rho_schedule": [1, False]}, r"solver default rho_schedule\[1\] must be a JSON number, got false"),
])
def test_load_problem_rejects_solver_defaults_of_the_wrong_type(tmp_path, defaults, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**_two_image_problem([]), "solver_defaults": defaults}))
    with pytest.raises(ParseError, match=message):
        load_problem(path)


NOT_STRINGS = [(None, "null"), (True, "true"), (7, "7")]


@pytest.mark.parametrize("value, spelled", NOT_STRINGS)
@pytest.mark.parametrize("field", ["id", "i", "j"])
def test_load_problem_refuses_image_ids_that_are_not_strings(tmp_path, field, value, spelled):
    doc = _two_image_problem([{"i": "a", "j": "b", "entries": [0, 1, 0.5]}])
    if field == "id":
        doc["images"][0]["id"] = value
    else:
        doc["pairwise"][0][field] = value
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    what = "image id" if field == "id" else f"pairwise {field}"
    loads = (load_problem, load_features) if field == "id" else (load_problem,)
    for load in loads:
        with pytest.raises(ParseError, match=f"{what} must be a JSON string, got {spelled}"):
            load(path)


@pytest.mark.parametrize("value, spelled", NOT_STRINGS)
def test_sidecars_refuse_image_ids_that_are_not_strings(tmp_path, value, spelled):
    path = tmp_path / "doc.json"
    for load, size in ((load_labeling, {"k": 2}), (load_truth, {"universe_size": 2})):
        doc = json.loads(_pairs_doc([[[0, 0], [1, 1]], [[2, 1], [0, 0]]], **size))
        doc["images"][1]["id"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"image id must be a JSON string, got {spelled}"):
            load(path)


def test_solver_defaults_reject_unknown_keys(tmp_path, planted):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**_two_image_problem([]), "solver_defaults": {"k": 2, "lamda": 0.0}}))
    with pytest.raises(ParseError, match=r"unknown solver defaults: \['lamda'\]"):
        load_problem(path)
    inst = planted.instance
    with pytest.raises(ParseError, match=r"unknown solver defaults: \['lambda'\]"):
        problem_document(inst.features, inst.scores, {"k": 2, "lambda": 0.0})


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
    # outliers are the candidates left unlisted
    assert json.loads(truth.read_text()) == {
        "format_version": FORMAT_VERSION, "universe_size": 2, "images": [
            {"id": "x", "p": 3, "pairs": [[0, 1], [2, 0]]},
            {"id": "y", "p": 2, "pairs": [[1, 0]]},
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


def test_load_labeling_reads_k_0_with_an_image_of_no_candidates(tmp_path):
    path = tmp_path / "lab.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION, "k": 0, "images": [
        {"id": "x", "p": 2, "pairs": []}, {"id": "y", "p": 0, "pairs": []}, {"id": "z", "p": 1, "pairs": []}]}))
    ids, lab = load_labeling(path)
    assert ids == ["x", "y", "z"]
    assert lab.index.shape == (3, 0) and lab.sizes == (2, 0, 1)
    assert [l.tolist() for l in lab.labels()] == [[-1, -1], [], [-1]]
    assert [a.shape for a in lab.assignments] == [(2, 0), (0, 0), (1, 0)]


def test_load_truth_rejects_invalid_labels(tmp_path):
    path = tmp_path / "truth.json"
    for bad in ([[0, 0], [1, 0]], [[0, 2]]):  # label repeated, label past the universe
        path.write_text(_pairs_doc([[[0, 0], [1, 1]], bad], universe_size=2))
        with pytest.raises(ParseError):
            load_truth(path)


def _three_image_problem(pairwise):
    sizes = {"a": 3, "b": 3, "c": 2}
    images = [{"id": name, "coordinates": [list(range(p)), list(range(p))]} for name, p in sizes.items()]
    return {"format_version": FORMAT_VERSION, "images": images, "pairwise": pairwise}


_AB = {"i": "a", "j": "b", "entries": [0, 1, 0.5, 2, 2, 0.25]}

# one fault each, in the record after a well-formed one: (pairwise records, the ParseError text)
SINGLE_FAULT_PROBLEMS = {
    "self pair": ([_AB, {"i": "c", "j": "c", "entries": [0, 1, 0.5]}], "a record pairs an image with itself"),
    "repeated pair": ([_AB, {"i": "b", "j": "c", "entries": [0, 1, 0.5]}, {"i": "b", "j": "c", "entries": []}],
                      "an image pair is listed twice"),
    "unknown id": ([_AB, {"i": "b", "j": "zz", "entries": [0, 1, 0.5]}], r"pair \(b, zz\): j is not a listed image id"),
    "unknown first id": ([_AB, {"i": "zz", "j": "zz", "entries": [0, 1, 0.5]}], r"pair \(zz, zz\): i is not a listed image id"),
    "fractional index": ([_AB, {"i": "b", "j": "c", "entries": [0, 1, 0.5, 1.5, 0, 0.2]}],
                         r"pair \(b, c\): an entry index is not an integer"),
    "infinite index": ([_AB, {"i": "b", "j": "c", "entries": [0, 1, 0.5, 1, float("inf"), 0.2]}],
                       r"pair \(b, c\): an entry index is not an integer"),
    "index past the block": ([_AB, {"i": "b", "j": "c", "entries": [0, 1, 0.5, 1, 2, 0.2]}],
                             r"pair \(b, c\): an entry index lies outside the block"),
    "negative index": ([_AB, {"i": "c", "j": "b", "entries": [1, 2, 0.5, -1, 0, 0.2]}],
                       r"pair \(c, b\): an entry index lies outside the block"),
    "repeated entry": ([_AB, {"i": "b", "j": "c", "entries": [0, 1, 0.5, 2, 0, 0.2, 0, 1, 0.3]}],
                       r"pair \(b, c\): an entry \(row, col\) is listed twice"),
}


@pytest.mark.parametrize("fault", SINGLE_FAULT_PROBLEMS)
def test_load_problem_names_the_faulty_record(tmp_path, fault):
    pairwise, message = SINGLE_FAULT_PROBLEMS[fault]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_three_image_problem(pairwise)))
    with pytest.raises(ParseError, match=message):
        load_problem(path)


def _sidecar(y_pairs, **size):
    images = [{"id": "x", "p": 3, "pairs": [[0, 0], [1, 1]]}, {"id": "y", "p": 3, "pairs": y_pairs},
              {"id": "z", "p": 2, "pairs": [[1, 0], [0, 1]]}]
    return json.dumps({"format_version": FORMAT_VERSION, **size, "images": images})


CANDIDATES = r"image y: candidates must be distinct indices in \[0, 3\)"
LABELING_LABELS = r"image y: labels must be -1 or the values in \[0, 2\), each once"
TRUTH_LABELS = r"image y: labels must be -1 or distinct values in \[0, 2\)"

# one fault each, in image y's pairs: (pairs, the ParseError text of load_labeling, of load_truth)
SINGLE_FAULT_SIDECARS = {
    "candidate past the image": ([[3, 1], [0, 0]], CANDIDATES, CANDIDATES),
    "negative candidate": ([[-1, 1], [0, 0]], CANDIDATES, CANDIDATES),
    "repeated candidate": ([[0, 1], [0, 0]], CANDIDATES, CANDIDATES),
    "label below -1": ([[2, -2], [0, 0]], *["image y: labels must be -1 or nonnegative"] * 2),
    "fractional candidate": ([[2.5, 1], [0, 0]], *["image y: candidates and labels must be integers"] * 2),
    "fractional label": ([[2, 0.5], [0, 0]], *["image y: candidates and labels must be integers"] * 2),
    "string candidate": ([["2", 1], [0, 0]], *['image y: a candidate must be a JSON number, got "2"'] * 2),
    "boolean label": ([[2, 1], [0, True]], *["image y: a label must be a JSON number, got true"] * 2),
    "label past the size": ([[2, 2], [0, 0]], LABELING_LABELS, TRUTH_LABELS),
    "label repeated": ([[2, 0], [0, 0]], LABELING_LABELS, TRUTH_LABELS),
    "label missing": ([[0, 0]], LABELING_LABELS, None),
}


@pytest.mark.parametrize("fault", SINGLE_FAULT_SIDECARS)
def test_sidecars_name_the_faulty_image(tmp_path, fault):
    pairs, labeling_message, truth_message = SINGLE_FAULT_SIDECARS[fault]
    path = tmp_path / "doc.json"
    path.write_text(_sidecar(pairs, k=2))
    with pytest.raises(ParseError, match=labeling_message):
        load_labeling(path)
    path.write_text(_sidecar(pairs, universe_size=2))
    if truth_message is None:  # a ground truth may leave a label unused
        assert load_truth(path)[1][1].tolist() == [0, -1, -1]
    else:
        with pytest.raises(ParseError, match=truth_message):
            load_truth(path)


@pytest.mark.parametrize("image, message", [
    ({"id": "y", "p": -1, "pairs": []}, "image y: p must be nonnegative, got -1"),
    ({"id": "y", "p": 3, "pairs": 5}, "image y: pairs must be a JSON array, got 5"),
    ({"id": "y", "p": 3, "pairs": [[2, 1, 0], [0, 0]]}, r"image y: a pair must be \[candidate, label\], got \[2, 1, 0\]"),
    ({"id": "y", "p": 3, "pairs": [[2, 1], 0]}, r"image y: a pair must be \[candidate, label\], got 0"),
    ({"id": "y", "p": 3, "pairs": [[2, 1], [0]]}, r"image y: a pair must be \[candidate, label\], got \[0\]"),
    ({"id": "y", "p": 3, "pairs": [[2, 1e20], [0, 0]]}, "image y: labels must be -1 or nonnegative integers below 2"),
])
def test_sidecars_explain_malformed_shapes(tmp_path, image, message):
    path = tmp_path / "doc.json"
    for size in ({"k": 2}, {"universe_size": 2}):
        doc = json.loads(_sidecar([[0, 0], [1, 1]], **size))
        doc["images"][1] = image
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=message):
            (load_labeling if "k" in size else load_truth)(path)


@pytest.mark.parametrize("images, message", [
    ({"a": 1}, r'images must be a JSON array, got \{"a": 1\}'),
    ("", 'images must be a JSON array, got ""'),
    ([5], r"images\[0\] must be a JSON object, got 5"),
])
def test_readers_refuse_images_that_are_not_an_array_of_objects(tmp_path, images, message):
    path = tmp_path / "doc.json"
    problem = _three_image_problem([_AB])
    for load, doc in ((load_problem, problem), (load_features, problem),
                      (load_labeling, json.loads(_sidecar([[0, 0], [1, 1]], k=2))),
                      (load_truth, json.loads(_sidecar([[0, 0], [1, 1]], universe_size=2)))):
        path.write_text(json.dumps({**doc, "images": images}))
        with pytest.raises(ParseError, match=message):
            load(path)


@pytest.mark.parametrize("entries, spelled", [(5, "5"), ("0, 1, 0.5", '"0, 1, 0.5"'), ({"0": 1}, r'\{"0": 1\}')])
def test_load_problem_explains_entries_that_are_not_an_array(tmp_path, entries, spelled):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_three_image_problem([_AB, {"i": "b", "j": "c", "entries": entries}])))
    with pytest.raises(ParseError, match=rf"pair \(b, c\): entries must be a JSON array, got {spelled}"):
        load_problem(path)


def _without(doc, path):
    """``doc`` with the member at ``path`` (keys and list indices) removed."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    del doc[last]


@pytest.mark.parametrize("path, message", [
    (("pairwise", 1, "entries"), r"pair \(b, c\): entries is missing"),
    (("pairwise", 1, "j"), r"pairwise\[1\]: j is missing"),
    (("images", 1, "coordinates"), "image b: coordinates is missing"),
    (("images", 2, "id"), r"images\[2\]: id is missing"),
    (("images",), "top level: images is missing"),
])
def test_load_problem_names_the_record_missing_a_member(tmp_path, path, message):
    doc = _three_image_problem([_AB, {"i": "b", "j": "c", "entries": [0, 1, 0.5]}])
    _without(doc, path)
    file = tmp_path / "p.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=rf"^{file}: malformed problem document \({message}\)$"):
        load_problem(file)


@pytest.mark.parametrize("path, message", [
    (("images", 1, "p"), "image y: p is missing"),
    (("images", 1, "pairs"), "image y: pairs is missing"),
    (("images", 0, "id"), r"images\[0\]: id is missing"),
    (("k",), "top level: k is missing"),
])
def test_load_labeling_names_the_record_missing_a_member(tmp_path, path, message):
    doc = json.loads(_sidecar([[0, 0], [1, 1]], k=2))
    _without(doc, path)
    file = tmp_path / "lab.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=rf"^{file}: malformed labeling document \({message}\)$"):
        load_labeling(file)


def test_load_labeling_checks_the_problem_counts_first(tmp_path):
    file = tmp_path / "lab.json"
    file.write_text(_sidecar([[0, 0], [1, 1]], k=2))
    ids, lab = load_labeling(file, {"x": 3, "y": 3, "z": 2, "w": 5})  # an image the labeling leaves out is fine
    assert ids == ["x", "y", "z"] and lab.sizes == (3, 3, 2)
    with pytest.raises(ParseError, match=r"image y: the labeling has 3 candidates, the problem 4"):
        load_labeling(file, {"x": 3, "y": 4, "z": 2})
    with pytest.raises(ParseError, match=r"problem lacks images \['z'\]"):
        load_labeling(file, {"x": 3, "y": 3})


@pytest.mark.parametrize("p", [2**45, 10**30])
def test_load_labeling_sizes_nothing_by_p(tmp_path, p):
    import tracemalloc

    doc = json.loads(_sidecar([[2, 1], [0, 0]], k=2))
    doc["images"][1]["p"] = p
    file = tmp_path / "lab.json"
    file.write_text(json.dumps(doc))
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        ids, lab = load_labeling(file)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 << 20
    assert ids == ["x", "y", "z"] and lab.sizes == (3, p, 2)
    assert lab.index.tolist() == [[0, 1], [0, 2], [1, 0]]
    # a candidate that a p past 2**63 allows would not fit an index
    doc["images"][1]["pairs"] = [[2**63, 1], [0, 0]]
    file.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=rf"image y: candidates must be distinct indices in \[0, {min(p, 2**63)}\)"):
        load_labeling(file)


def test_load_truth_checks_the_given_counts_first(tmp_path):
    file = tmp_path / "truth.json"
    file.write_text(_sidecar([[0, 0], [1, 1]], universe_size=2))
    ids, labels, universe = load_truth(file, {"x": 3, "y": 3, "z": 2, "w": 5})
    assert ids == ["x", "y", "z"] and [lab.size for lab in labels] == [3, 3, 2] and universe == 2
    with pytest.raises(ParseError, match=r"image y: the ground truth has 3 candidates, the labeling 4"):
        load_truth(file, {"x": 3, "y": 4, "z": 2}, "labeling")
    with pytest.raises(ParseError, match=r"problem lacks images \['z'\]"):
        load_truth(file, {"x": 3, "y": 3})
