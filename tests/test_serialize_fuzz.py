"""Property tests of the document loaders against oracles built from the documents.

The problem loader is checked against a dense matrix of its entries, the
labeling and ground-truth loaders against labels read off their pairs.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from multimatch import ParseError, SolverConfig, validate_instance
from multimatch.serialize import FORMAT_VERSION, load_labeling, load_problem, load_truth
from conftest import dense_merge_oracle

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

IDS = ("a", "b", "c")


@st.composite
def problem_documents(draw):
    """Two- or three-image documents, about a third of them malformed.

    Records cover distinct image pairs in either orientation, and each
    record's flat run of (row, col, value) entries covers distinct cells,
    some indices written as floats (1.0, -0.0).  Flaws drawn one in twelve
    each: a self-pair record, a pair listed twice, a repeated entry, a
    negative, fractional or past-the-block index, a run cut short of a
    whole entry, and a string or boolean in place of a number.
    """
    n = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    images = [
        {"id": IDS[t], "coordinates": [list(range(p)), list(range(p))]} for t, p in enumerate(sizes)
    ]

    def flaw():
        return draw(st.integers(0, 11)) == 6

    ordered = [(i, j) for i in range(n) for j in range(n) if i != j]
    keys = draw(st.permutations(ordered))[: draw(st.integers(1, 3))]
    if keys and flaw():
        keys.append(keys[0])
    if flaw():
        i = draw(st.integers(0, n - 1))
        keys.append((i, i))
    pairwise = []
    for i, j in keys:
        cells = [(r, c) for r in range(sizes[i]) for c in range(sizes[j])]
        entries = [
            x
            for r, c in draw(st.lists(st.sampled_from(cells), unique=True, max_size=3))
            for x in (draw(st.sampled_from([r, float(r)] if r else [0, -0.0])), c, draw(st.floats(0.0, 1.0)))
        ]
        if entries and flaw():
            entries += entries[:3]
        if flaw():
            entries += [draw(st.sampled_from([-1, sizes[i], 0.5])), 0, 1.0]
        if flaw():
            entries += [0, 0, 1.0][: draw(st.integers(1, 2))]
        if entries and flaw():
            at = draw(st.integers(0, len(entries) - 1))
            entries[at] = draw(st.sampled_from([str(entries[at]), True, False]))
        pairwise.append({"i": IDS[i], "j": IDS[j], "entries": entries})
    return {"format_version": FORMAT_VERSION, "images": images, "pairwise": pairwise}, sizes


def entry_oracle(doc, sizes):
    """Dense raw scores and the blocks holding entries, or None where loading must fail."""
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    dense = np.zeros((offsets[-1], offsets[-1]))
    blocks, seen = {}, set()
    for rec in doc["pairwise"]:
        i, j = IDS.index(rec["i"]), IDS.index(rec["j"])
        if i == j or (i, j) in seen:
            return None
        seen.add((i, j))
        run = rec["entries"]
        if len(run) % 3 or not all(type(x) in (int, float) for x in run):
            return None
        for r, c, v in zip(run[0::3], run[1::3], run[2::3]):
            if r != int(r) or c != int(c) or not (0 <= r < sizes[i] and 0 <= c < sizes[j]):
                return None
            r, c = int(r), int(c)
            if (i, j, r, c) in seen:
                return None
            seen.add((i, j, r, c))
            blocks.setdefault((i, j), np.zeros((sizes[i], sizes[j])))[r, c] = v
            dense[offsets[i] + r, offsets[j] + c] = v
    return dense, blocks


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(problem_documents())
def test_load_problem_matches_entry_oracle(case):
    doc, sizes = case
    expected = entry_oracle(doc, sizes)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        if expected is None:
            with pytest.raises(ParseError):
                load_problem(path)
            return
        features, scores, _ = load_problem(path)
    dense, blocks = expected
    assert np.array_equal(scores.matrix.toarray(), dense)
    inst = validate_instance(features, scores, SolverConfig(k=1))
    assert np.array_equal(inst.scores.matrix.toarray(), dense_merge_oracle(blocks, sizes))


def _bad_size(draw, value):
    """``value`` written as something other than a JSON integer."""
    return draw(st.sampled_from([value + 0.9, float(value), str(value)]))


SIDECAR_FLAWS = (
    "p_type", "size_type", "size_bool", "p_negative", "few_candidates", "label_redrawn",
    "candidate_repeated", "candidate_invalid", "label_below_minus_one", "pair_type", "id_repeated",
    "no_images",
)


@st.composite
def sidecar_documents(draw):
    """Labeling or ground-truth documents of one to three images, half of them flawed.

    Candidates and labels may be written as integral floats.  A flawed
    document carries one flaw: a size that is not a JSON integer (image
    ``p``, labeling ``k`` or ``universe_size`` written fractional, as an
    integral float or a string), a size of 0 or 1 written as a boolean, a
    negative ``p``, too few
    candidates to carry every label, a label redrawn from [-1, size] (so
    it may repeat or pass the size), a repeated, fractional, negative or
    past-the-image candidate, a label below -1, a candidate or label
    written as a string or boolean, a repeated image id or an empty image
    list.  Some flaws leave a valid document, such as missing
    labels in a ground truth.
    """
    kind = draw(st.sampled_from(["labeling", "truth"]))
    flaw = draw(st.sampled_from((None,) * len(SIDECAR_FLAWS) + SIDECAR_FLAWS))
    size = draw(st.integers(0, 1 if flaw == "size_bool" else 3))
    images = []
    for t in range(draw(st.integers(1, 3))):
        p = draw(st.integers(size, 3))
        count = draw(st.integers(0, p)) if flaw == "few_candidates" else p
        cands = draw(st.permutations(range(p)))[:count]
        labels = draw(st.permutations(range(size)))[:count]
        labels += [-1] * (count - len(labels))
        pairs = [[draw(st.sampled_from([c, float(c)])), label] for c, label in zip(cands, labels)]
        images.append({"id": IDS[t], "p": p, "pairs": pairs})
    image = draw(st.sampled_from(images))
    pairs = image["pairs"]
    if flaw == "p_type":
        image["p"] = _bad_size(draw, image["p"])
    elif flaw == "p_negative":
        image["p"] = -1
    elif flaw == "label_redrawn" and pairs:
        pairs[-1][1] = draw(st.integers(-1, size))
    elif flaw == "candidate_repeated" and pairs:
        pairs.append(list(pairs[0]))
    elif flaw == "candidate_invalid":
        pairs.append([draw(st.sampled_from([-1, image["p"], 0.5])), -1])
    elif flaw == "label_below_minus_one" and pairs:
        pairs[0][1] = -2
    elif flaw == "pair_type" and pairs:
        pair = draw(st.sampled_from(pairs))
        at = draw(st.integers(0, 1))
        pair[at] = draw(st.sampled_from([str(pair[at]), True, False]))
    elif flaw == "id_repeated":
        images[-1]["id"] = IDS[0]
    elif flaw == "no_images":
        images = []
    key = "k" if kind == "labeling" else "universe_size"
    if flaw == "size_type":
        size = _bad_size(draw, size)
    elif flaw == "size_bool":
        size = bool(size)
    doc = {"format_version": FORMAT_VERSION, key: size, "images": images}
    return kind, doc


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def sidecar_oracle(kind, doc):
    """(ids, labels, size) the loader must return, or None where it must fail."""
    key = "k" if kind == "labeling" else "universe_size"
    size, images = doc[key], doc["images"]
    ids = [rec["id"] for rec in images]
    if not images or len(set(ids)) < len(ids) or not _is_int(size):
        return None
    labels = []
    for rec in images:
        p = rec["p"]
        if not _is_int(p) or p < 0:
            return None
        if not all(type(x) in (int, float) for pair in rec["pairs"] for x in pair):
            return None
        lab = np.full(p, -1)
        cands = [c for c, _ in rec["pairs"]]
        if len(set(cands)) < len(cands):
            return None
        for c, label in rec["pairs"]:
            if c != int(c) or not 0 <= c < p or label < -1:
                return None
            lab[int(c)] = label
        used = lab[lab >= 0]
        if np.unique(used).size < used.size or (used >= size).any():
            return None
        if kind == "labeling" and (used.size != size or p < size):
            return None  # every label exactly once, and k <= p
        labels.append(lab)
    return ids, labels, size


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(sidecar_documents())
def test_sidecar_loaders_match_pair_oracle(case):
    kind, doc = case
    expected = sidecar_oracle(kind, doc)
    load = load_labeling if kind == "labeling" else load_truth
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sidecar.json"
        path.write_text(json.dumps(doc))
        if expected is None:
            with pytest.raises(ParseError):
                load(path)
            return
        loaded = load(path)
    ids, labels, size = expected
    if kind == "labeling":
        got_ids, labeling = loaded
        got_labels, got_size = labeling.labels(), labeling.k
    else:
        got_ids, got_labels, got_size = loaded
    assert got_ids == ids and got_size == size and type(got_size) is int
    assert len(got_labels) == len(labels)
    for a, b in zip(got_labels, labels):
        assert np.array_equal(a, b)
