import json
import tempfile
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp

from multimatch import (
    BlockLayout,
    DimensionMismatch,
    FeatureSet,
    InfeasibleK,
    MatchingError,
    NonFiniteEntry,
    PairwiseScores,
    ParseError,
    SelectionLabeling,
    SolverConfig,
    assemble_block,
    validate_instance,
)
from multimatch.serialize import FORMAT_VERSION, load_labeling, save_labeling
from conftest import (
    dense_merge_oracle,
    pair_matrix,
    random_labeling,
    random_scores,
    scores_from_blocks,
    toy_features,
)


def test_validate_accepts_consistent_dimensions(rng):
    features = toy_features([3, 3], rng)
    scores = random_scores(rng, [3, 3])
    inst = validate_instance(features, scores, SolverConfig(k=2))
    assert inst.m == 6 and inst.n == 2
    assert np.array_equal(inst.scores.blocks[(0, 0)], np.eye(3))


def test_validate_rejects_infeasible_k(rng):
    features = toy_features([3, 3], rng)
    scores = random_scores(rng, [3, 3])
    with pytest.raises(InfeasibleK):
        validate_instance(features, scores, SolverConfig(k=4))


def test_validate_rejects_no_images_and_repeated_ids(rng):
    config = SolverConfig(k=1)
    with pytest.raises(DimensionMismatch, match="at least one image is required"):
        validate_instance([], PairwiseScores(sp.csr_matrix((0, 0)), BlockLayout(())), config)
    features = toy_features([2, 2], rng)
    features[1].image_id = features[0].image_id
    with pytest.raises(MatchingError, match="image ids must be unique"):
        validate_instance(features, random_scores(rng, [2, 2]), config)


def test_validate_rejects_bad_block_shape(rng):
    features = toy_features([3, 3], rng)
    with pytest.raises(DimensionMismatch):
        PairwiseScores(sp.csr_matrix(rng.random((6, 5))), BlockLayout((3, 3)))
    scores = PairwiseScores(sp.csr_matrix(rng.random((5, 5))), BlockLayout((3, 2)))
    with pytest.raises(DimensionMismatch):
        validate_instance(features, scores, SolverConfig(k=2))


def test_validate_rejects_non_finite(rng):
    features = toy_features([2, 2], rng)
    block = np.array([[0.5, np.nan], [0.1, 0.2]])
    scores = scores_from_blocks({(0, 1): block}, (2, 2))
    with pytest.raises(NonFiniteEntry):
        validate_instance(features, scores, SolverConfig(k=1))


def test_validate_rejects_out_of_range_scores(rng):
    features = toy_features([2, 2], rng)
    scores = scores_from_blocks({(0, 1): np.full((2, 2), 1.5)}, (2, 2))
    with pytest.raises(MatchingError):
        validate_instance(features, scores, SolverConfig(k=1))


def test_validate_symmetrizes_and_forces_identity_diagonal(rng):
    features = toy_features([2, 2], rng)
    fwd = rng.random((2, 2))
    rev = rng.random((2, 2))
    scores = scores_from_blocks(
        {(0, 1): fwd, (1, 0): rev, (0, 0): rng.random((2, 2))}, (2, 2)
    )
    inst = validate_instance(features, scores, SolverConfig(k=1))
    assert np.allclose(inst.scores.blocks[(0, 1)], 0.5 * (fwd + rev.T))
    assert np.array_equal(inst.scores.blocks[(0, 0)], np.eye(2))
    w = assemble_block(inst.scores).toarray()
    assert np.array_equal(w[2:, :2], w[:2, 2:].T)


def test_feature_set_checks_unit_descriptors():
    coords = np.zeros((2, 2))
    good = np.array([[1.0, 0.0], [0.0, 1.0]])
    FeatureSet("a", coords, good)
    with pytest.raises(MatchingError):
        FeatureSet("a", coords, 2.0 * good)


@pytest.mark.parametrize("coords, descs, error, message", [
    (np.zeros(3), None, DimensionMismatch, r"a: coordinates must be 2 x p, got \(3,\)"),
    (np.zeros((3, 2)), None, DimensionMismatch, r"a: coordinates must be 2 x p, got \(3, 2\)"),
    (np.zeros((2, 0)), None, DimensionMismatch, "a: at least one candidate required"),
    ([[0.0, np.nan], [0.0, 1.0]], None, NonFiniteEntry, "a: non-finite coordinate"),
    (np.zeros((2, 2)), np.eye(3), DimensionMismatch, "a: descriptors must have one column per candidate"),
    (np.zeros((2, 2)), np.ones(2), DimensionMismatch, "a: descriptors must have one column per candidate"),
    (np.zeros((2, 2)), [[1.0, np.inf], [0.0, 0.0]], NonFiniteEntry, "a: non-finite descriptor"),
], ids=["coords-1d", "coords-3-rows", "no-candidates", "nan-coordinate", "descriptor-columns", "descriptors-1d",
        "inf-descriptor"])
def test_feature_set_refuses_malformed_arrays(coords, descs, error, message):
    with pytest.raises(error, match=message):
        FeatureSet("a", coords, descs)


def test_assemble_single_image_is_identity():
    features = toy_features([2])
    scores = PairwiseScores(sp.csr_matrix((2, 2)), BlockLayout((2,)))
    inst = validate_instance(features, scores, SolverConfig(k=1))
    w = assemble_block(inst.scores).toarray()
    assert np.array_equal(w, np.eye(2))


def test_assemble_two_singletons():
    features = toy_features([1, 1])
    scores = scores_from_blocks({(0, 1): np.array([[0.7]])}, (1, 1))
    inst = validate_instance(features, scores, SolverConfig(k=1))
    w = assemble_block(inst.scores).toarray()
    assert np.array_equal(w, np.array([[1.0, 0.7], [0.7, 1.0]]))


def test_assemble_matches_index_arithmetic_oracle(rng):
    sizes = [2, 2, 2]
    features = toy_features(sizes, rng)
    scores = random_scores(rng, sizes)
    inst = validate_instance(features, scores, SolverConfig(k=2))
    w = assemble_block(inst.scores).toarray()

    # Independent oracle: place blocks by cumulative-sum offsets.
    offsets = [0, 2, 4]
    expected = np.zeros((6, 6))
    for i in range(3):
        expected[offsets[i] : offsets[i] + 2, offsets[i] : offsets[i] + 2] = np.eye(2)
    for i in range(3):
        for j in range(i + 1, 3):
            blk = inst.scores.blocks[(i, j)]
            expected[offsets[i] : offsets[i] + 2, offsets[j] : offsets[j] + 2] = blk
            expected[offsets[j] : offsets[j] + 2, offsets[i] : offsets[i] + 2] = blk.T
    assert np.array_equal(w, expected)
    assert np.array_equal(w, w.T)


def test_assemble_then_extract_roundtrips(rng):
    sizes = [3, 2, 4]
    features = toy_features(sizes, rng)
    inst = validate_instance(features, random_scores(rng, sizes), SolverConfig(k=2))
    w = assemble_block(inst.scores).toarray()
    layout = inst.layout
    for (i, j), blk in inst.scores.blocks.items():
        sl_i, sl_j = layout.block_slice(i), layout.block_slice(j)
        assert np.array_equal(w[sl_i, sl_j], blk)


def test_validate_canonical_form_matches_dense_merge_oracle(rng):
    # mixed orientations, diagonal blocks given and replaced, pairs with
    # no entries, and single images
    def sparse(a, b):
        return rng.random((a, b)) * (rng.random((a, b)) < 0.6)

    for case in range(40):
        n = int(rng.integers(1, 5))
        sizes = [int(p) for p in rng.integers(1, 4, size=n)]
        blocks = {}
        for i in range(n):
            if rng.random() < 0.3:
                blocks[(i, i)] = rng.random((sizes[i], sizes[i]))
            for j in range(i + 1, n):
                kind = rng.integers(4)  # none, forward, reversed, both
                if kind in (1, 3):
                    blocks[(i, j)] = sparse(sizes[i], sizes[j])
                if kind in (2, 3):
                    blocks[(j, i)] = sparse(sizes[j], sizes[i])
        inst = validate_instance(
            toy_features(sizes, rng), scores_from_blocks(blocks, sizes), SolverConfig(k=1)
        )
        w = inst.scores.matrix
        assert np.array_equal(w.toarray(), dense_merge_oracle(blocks, sizes)), case
        layout = BlockLayout(tuple(sizes))
        coo = w.tocoo()
        assert (layout.locate(coo.row)[0] <= layout.locate(coo.col)[0]).all()
        assert w.has_canonical_format and (w.data > 0).all() and (w.data <= 1).all()
        for i in range(n):
            assert np.array_equal(inst.scores.blocks[(i, i)], np.eye(sizes[i]))


def test_layout_offsets_and_split():
    layout = BlockLayout((3, 2, 4))
    assert layout.offsets == (0, 3, 5)
    assert layout.m == 9 and layout.n == 3
    stacked = np.arange(18).reshape(9, 2)
    parts = layout.split(stacked)
    assert [p.shape[0] for p in parts] == [3, 2, 4]
    assert np.array_equal(np.vstack(parts), stacked)
    image, local = layout.locate(np.arange(9))
    assert image.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 2]
    assert local.tolist() == [0, 1, 2, 0, 1, 0, 1, 2, 3]
    # any partition is a layout: no images, and images of no rows
    empty = BlockLayout(())
    assert (empty.n, empty.m, empty.offsets, empty.split(np.zeros((0, 2)))) == (0, 0, (), [])
    layout = BlockLayout((0, 3, 0, 2))
    assert layout.offsets == (0, 0, 3, 3) and layout.m == 5
    assert [p.shape[0] for p in layout.split(np.arange(5))] == [0, 3, 0, 2]
    assert layout.locate(np.arange(5))[0].tolist() == [1, 1, 1, 3, 3]


def test_labeling_pair_products_are_partial_permutations(rng):
    for _ in range(20):
        sizes = rng.integers(2, 6, size=3)
        k = int(rng.integers(1, min(sizes) + 1))
        lab = random_labeling(rng, sizes, k)
        lab.validate()
        for i in range(3):
            for j in range(3):
                prod = pair_matrix(lab, i, j)
                assert prod.min() >= 0
                assert prod.sum(axis=0).max() <= 1
                assert prod.sum(axis=1).max() <= 1


def test_labeling_triplet_consistency_by_construction(rng):
    sizes = [4, 5, 3]
    lab = random_labeling(rng, sizes, 3)
    for i in range(3):
        for z in range(3):
            for j in range(3):
                direct = pair_matrix(lab, i, j)
                composed = pair_matrix(lab, i, z) @ pair_matrix(lab, z, j)
                assert np.array_equal(direct, composed)


def _reloaded(lab):
    """``lab`` written by :func:`save_labeling` and read back by :func:`load_labeling`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lab.json"
        save_labeling(path, lab, [f"i{t}" for t in range(lab.n)])
        return load_labeling(path)[1]


def _load_labels(labels, k):
    """Load per-image label arrays (-1 for unselected candidates) written as a labeling document."""
    images = [
        {"id": f"i{t}", "p": len(lab), "pairs": [[c, int(lab[c])] for c in np.flatnonzero(np.asarray(lab) >= 0).tolist()]}
        for t, lab in enumerate(labels)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lab.json"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION, "k": k, "images": images}))
        return load_labeling(path)[1]


def test_labeling_labels_roundtrip(rng):
    lab = random_labeling(rng, [4, 3], 2)
    rebuilt = _reloaded(lab)
    for a, b in zip(lab.assignments, rebuilt.assignments):
        assert np.array_equal(a, b)


def test_labeling_validate_rejects_bad_column_sums():
    # the all-zero 3 x 2 assignment: neither label has a candidate
    bad = SelectionLabeling([[-1, -1]], BlockLayout((3,)))
    with pytest.raises(MatchingError):
        bad.validate()


@st.composite
def labelings(draw, spare=0):
    """A valid labeling: n images, k labels, p_i >= k + spare candidates."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(k + spare, k + spare + 3), min_size=n, max_size=n))
    return SelectionLabeling([draw(st.permutations(range(p)))[:k] for p in sizes], BlockLayout(sizes))


def _assignment_oracle(lab):
    """Per-image binary p_i x k matrices, one entry set at a time."""
    blocks = []
    for row, p in zip(lab.index.tolist(), lab.sizes):
        a = np.zeros((p, lab.k), dtype=int)
        for label, candidate in enumerate(row):
            a[candidate, label] = 1
        blocks.append(a)
    return blocks


_fuzz = hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)


@_fuzz
@hypothesis.given(labelings())
def test_labeling_forms_agree_with_assignment_oracle(lab):
    lab.validate()
    blocks = _assignment_oracle(lab)
    assert all(np.array_equal(a, b) for a, b in zip(lab.assignments, blocks))
    assert np.array_equal(lab.stacked(), np.vstack(blocks))
    for a, lab_i in zip(blocks, lab.labels()):
        rows, cols = np.nonzero(a)
        expected = np.full(a.shape[0], -1)
        expected[rows] = cols
        assert np.array_equal(lab_i, expected)
    for i in range(lab.n):
        for j in range(lab.n):
            assert np.array_equal(pair_matrix(lab, i, j), blocks[i] @ blocks[j].T)
    rebuilt = _reloaded(lab)
    assert np.array_equal(rebuilt.index, lab.index) and rebuilt.sizes == lab.sizes


@_fuzz
@hypothesis.given(
    labelings(spare=1), st.sampled_from(["repeated", "relabeled", "missing", "out of range"]), st.data()
)
def test_load_labeling_rejects_broken_label_sets(lab, fault, data):
    labels = [lab_i.copy() for lab_i in lab.labels()]
    i = data.draw(st.integers(0, lab.n - 1))
    l = data.draw(st.integers(0, lab.k - 1))
    unselected = int(np.flatnonzero(labels[i] < 0)[0])
    if fault == "repeated":
        labels[i][unselected] = l
    elif fault == "relabeled":  # label l twice and another label missing, k entries in all
        hypothesis.assume(lab.k > 1)
        labels[i][lab.index[i, (l + 1) % lab.k]] = l
    elif fault == "missing":
        labels[i][lab.index[i, l]] = -1
    else:
        labels[i][unselected] = lab.k
    with pytest.raises(ParseError, match=rf"image i{i}: labels must be -1 or the values in \[0, {lab.k}\), each once"):
        _load_labels(labels, lab.k)


@_fuzz
@hypothesis.given(labelings(), st.data())
def test_validate_rejects_broken_rows(lab, data):
    i = data.draw(st.integers(0, lab.n - 1))
    l = data.draw(st.integers(0, lab.k - 1))
    outside = lab.index.copy()
    outside[i, l] = data.draw(st.sampled_from([-1, lab.sizes[i]]))
    with pytest.raises(MatchingError):
        SelectionLabeling(outside, lab.layout).validate()
    short = list(lab.sizes)
    short[i] = lab.k - 1
    with pytest.raises(InfeasibleK):
        SelectionLabeling(lab.index, BlockLayout(short)).validate()
    if lab.k > 1:
        repeated = lab.index.copy()
        repeated[i, l] = repeated[i, (l + 1) % lab.k]
        with pytest.raises(MatchingError, match="multiple labels"):
            SelectionLabeling(repeated, lab.layout).validate()


def test_solver_config_validation():
    with pytest.raises(MatchingError):
        SolverConfig(k=2, rho_schedule=(1.0, 1.0))
    with pytest.raises(MatchingError):
        SolverConfig(k=2, rho_schedule=())
    with pytest.raises(InfeasibleK):
        SolverConfig(k=0)
    with pytest.raises(MatchingError):
        SolverConfig(k=2, lam=-0.5)
    with pytest.raises(MatchingError, match="rank bound must be at least 1"):
        SolverConfig(k=2, r=0)
    cfg = SolverConfig(k=2)
    assert cfg.lam == 1.0 and cfg.r == 4 and cfg.rho_schedule == (1.0, 10.0, 100.0)


@pytest.mark.parametrize("settings", [
    {"k": 4.7}, {"k": True}, {"k": "3"}, {"k": 3, "r": 2.9}, {"k": 3, "seed": -1},
    {"k": 3, "seed": 1.5}, {"k": 3, "lam": np.nan}, {"k": 3, "lam": np.inf}, {"k": 3, "lam": True},
    {"k": 3, "rho_schedule": (np.nan,)}, {"k": 3, "rho_schedule": (1.0, np.inf)}, {"k": 3, "lam": 10**400},
    {"k": 3, "rho_schedule": 5},
])
def test_solver_config_rejects_instead_of_casting(settings):
    with pytest.raises(MatchingError):
        SolverConfig(**settings)


@pytest.mark.parametrize("image_id", [None, True, 7])
def test_feature_set_refuses_an_image_id_that_is_not_a_string(image_id):
    with pytest.raises(MatchingError, match="image id must be a string"):
        FeatureSet(image_id, np.zeros((2, 3)))


def test_solver_config_keeps_numpy_numbers_as_given():
    cfg = SolverConfig(k=np.int64(3), r=np.int32(2), lam=np.float64(0.5), rho_schedule=[1, 10], seed=np.uint8(7))
    assert (cfg.k, cfg.r, cfg.lam, cfg.rho_schedule, cfg.seed) == (3, 2, 0.5, (1, 10), 7)


def test_validate_matches_block_by_block_csr_oracle(rng):
    # lower-only pairs, pairs in both orientations, explicit zeros and
    # scores within SCORE_RANGE_SLACK of [0, 1]
    from multimatch.model import SCORE_RANGE_SLACK
    from conftest import canonical_csr_oracle

    values = [0.0, 1.0, -0.5 * SCORE_RANGE_SLACK, 1.0 + 0.5 * SCORE_RANGE_SLACK, 1e-300, 5e-324]

    def block(a, b):
        v = np.where(rng.random((a, b)) < 0.3, rng.choice(values, size=(a, b)), rng.random((a, b)))
        return v * (rng.random((a, b)) < 0.7)  # zeros stored explicitly

    for case in range(60):
        n = int(rng.integers(1, 6))
        sizes = [int(p) for p in rng.integers(1, 5, size=n)]
        blocks = {}
        for i in range(n):
            if rng.random() < 0.2:
                blocks[(i, i)] = block(sizes[i], sizes[i])
            for j in range(i + 1, n):
                kind = rng.integers(4)  # none, upper only, lower only, both
                if kind in (1, 3):
                    blocks[(i, j)] = block(sizes[i], sizes[j])
                if kind in (2, 3):
                    blocks[(j, i)] = block(sizes[j], sizes[i])
        raw = scores_from_blocks(blocks, sizes)
        w = validate_instance(toy_features(sizes, rng), raw, SolverConfig(k=1)).scores.matrix
        indptr, indices, data = canonical_csr_oracle(raw.matrix, sizes)
        assert np.array_equal(w.indptr, indptr), case
        assert np.array_equal(w.indices, indices), case
        assert np.array_equal(w.data, data), case


def test_validate_names_the_faulty_block(rng):
    sizes = (2, 3, 2)
    features = toy_features(sizes, rng)
    good = {(0, 1): rng.random((2, 3)), (2, 0): rng.random((2, 2)), (1, 2): rng.random((3, 2))}

    def validate(blocks):
        validate_instance(features, scores_from_blocks({**good, **blocks}, sizes), SolverConfig(k=1))

    # a non-finite score names its block as stored, a score out of range the upper block it folds into
    with pytest.raises(NonFiniteEntry, match=r"block \(2, 1\) contains non-finite scores"):
        validate({(2, 1): np.full((2, 3), np.inf)})
    with pytest.raises(MatchingError, match=r"block \(0, 2\) has scores outside \[0, 1\]"):
        validate({(2, 0): np.full((2, 2), 1.1)})
    # 0.5 * (1.1 + 1.0) is out of range too: the two orientations are averaged before the check
    with pytest.raises(MatchingError, match=r"block \(1, 2\) has scores outside \[0, 1\]"):
        validate({(2, 1): np.full((2, 3), 1.1), (1, 2): np.ones((3, 2))})


def test_labeling_checks_name_the_first_faulty_image():
    layout = BlockLayout((3, 3, 3))
    with pytest.raises(DimensionMismatch, match=r"index must be 3 x k, got \(2, 2\)"):
        SelectionLabeling([[0, 1], [2, 0]], layout)
    with pytest.raises(DimensionMismatch, match=r"index must be 3 x k, got \(3,\)"):
        SelectionLabeling([0, 1, 2], layout)
    with pytest.raises(MatchingError, match="image 1: some candidate carries multiple labels"):
        SelectionLabeling([[0, 1], [2, 2], [5, 1]], layout).validate()
    with pytest.raises(MatchingError, match=r"image 1: a chosen candidate lies outside \[0, 3\)"):
        SelectionLabeling([[0, 1], [0, 3], [1, 1]], layout).validate()
    with pytest.raises(InfeasibleK, match="image 1: k=2 exceeds p=1"):
        SelectionLabeling([[0, 1], [0, 0], [5, 1]], BlockLayout((3, 1, 3))).validate()
    # a label used twice (image 1) is named before a label missing (image 2)
    labels = [[0, 1, -1], [0, 0, -1], [0, -1, -1]]
    with pytest.raises(ParseError, match=r"image i1: labels must be -1 or the values in \[0, 2\), each once"):
        _load_labels(labels, 2)
