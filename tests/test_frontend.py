import numpy as np
import pytest

from multimatch import (
    DimensionMismatch,
    FeatureSet,
    MatchingError,
    pairwise_match,
    scores_from_descriptors,
    similarity,
    validate_instance,
    SolverConfig,
)


def unit_columns(rng, d, p):
    v = rng.normal(size=(d, p))
    return v / np.linalg.norm(v, axis=0)


def test_similarity_identity_on_identical_sets(rng):
    d = unit_columns(rng, 8, 5)
    s = similarity(d, d)
    assert np.allclose(np.diag(s), 1.0)
    assert s.min() >= 0.0 and s.max() <= 1.0


def test_similarity_orthogonal_descriptors():
    a = np.eye(4)[:, :2]
    b = np.eye(4)[:, 2:]
    assert np.array_equal(similarity(a, b), np.zeros((2, 2)))


def test_similarity_matches_dot_product_oracle(rng):
    a = unit_columns(rng, 6, 4)
    b = unit_columns(rng, 6, 3)
    s = similarity(a, b)
    for i in range(4):
        for j in range(3):
            expected = min(max(float(a[:, i] @ b[:, j]), 0.0), 1.0)
            assert s[i, j] == pytest.approx(expected, abs=1e-12)


def test_similarity_rejects_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        similarity(unit_columns(rng, 4, 3), unit_columns(rng, 5, 3))


def test_pairwise_match_identical_sets_yield_identity(rng):
    d = unit_columns(rng, 16, 6)
    assert np.array_equal(pairwise_match(d, d), np.eye(6, dtype=int))


def test_pairwise_match_rectangular_cardinality(rng):
    a = unit_columns(rng, 8, 2)
    b = unit_columns(rng, 8, 3)
    w = pairwise_match(a, b)
    assert w.shape == (2, 3)
    assert w.sum() == 2
    assert w.sum(axis=0).max() <= 1 and w.sum(axis=1).max() <= 1


def test_pairwise_match_transpose_symmetry(rng):
    a = unit_columns(rng, 10, 4)
    b = unit_columns(rng, 10, 6)
    assert np.array_equal(pairwise_match(a, b), pairwise_match(b, a).T)


def test_pairwise_match_recovers_planted_permutation():
    # noisy copies of the same descriptor set under a planted permutation
    recovered = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        base = unit_columns(rng, 32, 12)
        perm = rng.permutation(12)
        noisy = base[:, perm] + rng.normal(0, 0.05, size=(32, 12))
        noisy = noisy / np.linalg.norm(noisy, axis=0)
        w = pairwise_match(base, noisy)
        correct = sum(w[perm[t], t] == 1 for t in range(12))
        recovered.append(correct / 12)
    assert np.mean(recovered) >= 0.99


def test_scores_from_descriptors_build_valid_instance(rng):
    features = []
    for i in range(3):
        coords = rng.uniform(0, 5, size=(2, 4))
        features.append(FeatureSet(f"im{i}", coords, unit_columns(rng, 8, 4)))
    scores = scores_from_descriptors(features)
    assert set(scores.blocks) == {(0, 1), (0, 2), (1, 2)}
    inst = validate_instance(features, scores, SolverConfig(k=2))
    assert inst.m == 12


def test_scores_from_descriptors_with_unequal_sizes_match_a_pairwise_loop(rng):
    # both orientations of the (4, 6) shape meet in one stack
    sizes = (4, 6, 4, 5, 6, 3)
    features = [
        FeatureSet(f"im{i}", rng.uniform(0, 5, size=(2, p)), unit_columns(rng, 8, p))
        for i, p in enumerate(sizes)
    ]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    expected = np.zeros((offsets[-1], offsets[-1]))
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            block = pairwise_match(features[i].descriptors, features[j].descriptors)
            expected[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]] = block
    scores = scores_from_descriptors(features)
    assert scores.sizes == sizes
    assert np.array_equal(scores.matrix.toarray(), expected)


def test_scores_from_descriptors_requires_descriptors(rng):
    features = [FeatureSet("a", rng.random((2, 3)))]
    with pytest.raises(MatchingError):
        scores_from_descriptors(features)
