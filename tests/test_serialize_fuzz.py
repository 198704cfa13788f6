"""Property test of the problem loader against a dense oracle built from the entries."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from multimatch import ParseError, SolverConfig, validate_instance
from multimatch.serialize import load_problem
from conftest import dense_merge_oracle

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

IDS = ("a", "b", "c")


@st.composite
def problem_documents(draw):
    """Two- or three-image documents, about one in four of them malformed.

    Records cover distinct image pairs in either orientation and entries
    distinct cells, some indices written as floats (1.0, -0.0).  Flaws
    drawn one in twelve each: a self-pair record, a pair listed twice, a
    repeated entry, and a negative, fractional or past-the-block index.
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
            [draw(st.sampled_from([r, float(r)] if r else [0, -0.0])), c, draw(st.floats(0.0, 1.0))]
            for r, c in draw(st.lists(st.sampled_from(cells), unique=True, max_size=3))
        ]
        if entries and flaw():
            entries.append(list(entries[0]))
        if flaw():
            entries.append([draw(st.sampled_from([-1, sizes[i], 0.5])), 0, 1.0])
        pairwise.append({"i": IDS[i], "j": IDS[j], "entries": entries})
    return {"format_version": 1, "images": images, "pairwise": pairwise}, sizes


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
        for r, c, v in rec["entries"]:
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
