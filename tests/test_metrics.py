import itertools

import numpy as np
import pytest

from multimatch import (
    MatchingError,
    SelectionLabeling,
    cycle_check,
    generate,
    pair_stats,
    pck,
    precision,
    rank_diagnostic,
    recall,
    scores_pair_stats,
    selected_inlier_fraction,
)
from conftest import pair_matrix, random_labeling


def hand_counted_stats(pred_labels, true_labels):
    """Independent triple-loop oracle over candidate pairs."""
    n = len(pred_labels)
    n_true = n_pred = n_correct = 0
    for i, j in itertools.combinations(range(n), 2):
        for a in range(len(pred_labels[i])):
            for b in range(len(pred_labels[j])):
                true_match = (
                    true_labels[i][a] >= 0 and true_labels[i][a] == true_labels[j][b]
                )
                pred_match = (
                    pred_labels[i][a] >= 0 and pred_labels[i][a] == pred_labels[j][b]
                )
                n_true += true_match
                n_pred += pred_match
                n_correct += true_match and pred_match
    return n_true, n_pred, n_correct


def test_recall_precision_perfect_prediction(rng):
    lab = random_labeling(rng, [4, 5, 3], 2)
    truth = lab.labels()
    assert recall(lab, truth) == 1.0
    assert precision(lab, truth) == 1.0


def test_recall_zero_for_disjoint_prediction():
    truth = [np.array([0, 1, -1]), np.array([0, 1, -1])]
    pred = [np.array([-1, 0, 1]), np.array([0, -1, 1])]
    # predicted pairs exist (cand1<->cand0, cand2<->cand2) but none are true
    assert recall(pred, truth) == 0.0
    assert precision(pred, truth) == 0.0


def test_half_correct_four_image_example():
    # four images, two labels; image 3's labels are swapped, so exactly the
    # three pairs involving image 3 lose both their correspondences
    truth = [np.array([0, 1, -1])] * 4
    pred = [np.array([0, 1, -1])] * 3 + [np.array([1, 0, -1])]
    stats = pair_stats(pred, truth)
    oracle = hand_counted_stats(pred, truth)
    assert (stats.true_pairs, stats.predicted_pairs, stats.correct_pairs) == oracle
    assert stats.precision == 0.5
    assert stats.recall == 0.5


def test_metrics_match_hand_enumeration_on_random_labelings(rng):
    for _ in range(20):
        sizes = [int(rng.integers(2, 5)) for _ in range(4)]
        k = int(rng.integers(1, min(sizes) + 1))
        pred = random_labeling(rng, sizes, k).labels()
        true = random_labeling(rng, sizes, min(sizes)).labels()
        stats = pair_stats(pred, true)
        assert (stats.true_pairs, stats.predicted_pairs, stats.correct_pairs) == (
            hand_counted_stats(pred, true)
        )


def random_label_arrays(rng, sizes, universe):
    """Per-image labels drawn without repeats from [0, universe), about a third of them -1."""
    out = []
    for p in sizes:
        lab = rng.choice(universe, size=p, replace=False)
        lab[rng.random(p) < 0.35] = -1
        out.append(lab)
    return out


def test_pair_stats_match_pair_enumeration_on_random_label_arrays(rng):
    for _ in range(30):
        sizes = [int(p) for p in rng.integers(1, 6, size=int(rng.integers(1, 6)))]
        pred = random_label_arrays(rng, sizes, max(sizes) + int(rng.integers(0, 3)))
        true = random_label_arrays(rng, sizes, max(sizes) + int(rng.integers(0, 3)))
        stats = pair_stats(pred, true)
        assert (stats.true_pairs, stats.predicted_pairs, stats.correct_pairs) == (
            hand_counted_stats(pred, true)
        )


def test_scores_pair_stats_match_block_enumeration():
    for seed in range(3):
        planted = generate(7, 5, outliers_per_image=3, match_corruption_rate=0.4, seed=seed)
        truth = planted.truth_labels
        blocks = planted.instance.scores.blocks
        n_pred = n_correct = 0
        for i, j in itertools.combinations(range(7), 2):
            for a, b in zip(*np.nonzero(blocks[(i, j)] >= 0.5)):
                n_pred += 1
                n_correct += truth[i][a] >= 0 and truth[i][a] == truth[j][b]
        stats = scores_pair_stats(planted.instance.scores, truth)
        n_true = hand_counted_stats(truth, truth)[0]
        assert (stats.true_pairs, stats.predicted_pairs, stats.correct_pairs) == (
            n_true, n_pred, n_correct
        )


def test_precision_vacuous_for_empty_prediction():
    truth = [np.array([0, 1]), np.array([0, 1])]
    empty = [np.array([-1, -1]), np.array([-1, -1])]
    stats = pair_stats(empty, truth)
    assert stats.precision == 1.0
    assert stats.vacuous


def test_metrics_invariant_under_label_permutation(rng):
    sizes = [5, 4, 4]
    lab = random_labeling(rng, sizes, 3)
    truth = random_labeling(rng, sizes, 3).labels()
    base = pair_stats(lab, truth)
    perm = rng.permutation(3)
    shuffled = SelectionLabeling(lab.index[:, perm], lab.layout)
    after = pair_stats(shuffled, truth)
    assert (base.recall, base.precision) == (after.recall, after.precision)


def test_scores_pair_stats_grades_raw_input():
    planted = generate(6, 5, outliers_per_image=3, match_corruption_rate=0.4, seed=3)
    stats = scores_pair_stats(planted.instance.scores, planted.truth_labels)
    assert 0.0 < stats.precision < 1.0
    clean = generate(6, 5, outliers_per_image=3, seed=3)
    assert scores_pair_stats(clean.instance.scores, clean.truth_labels).precision == 1.0


def test_scores_pair_stats_refuses_shifted_truth_counts():
    planted = generate(3, 4, outliers_per_image=1, match_corruption_rate=0.2, seed=5)
    truth = planted.truth_labels  # five candidates per image
    # counts (6, 4, 5) total the layout's 15 but shift every candidate after image 0's
    shifted = [np.append(truth[0], -1), truth[1][:-1], truth[2]]
    with pytest.raises(MatchingError, match="image 0: the truth has 6 candidates, the scores 5"):
        scores_pair_stats(planted.instance.scores, shifted)


def test_scores_pair_stats_refuses_a_truth_missing_an_image():
    planted = generate(3, 4, outliers_per_image=1, match_corruption_rate=0.2, seed=5)
    with pytest.raises(MatchingError, match="the truth covers 2 images, the scores 3"):
        scores_pair_stats(planted.instance.scores, planted.truth_labels[:2])


def test_selected_inlier_fraction():
    truth = [np.array([0, -1, 1]), np.array([-1, 0, 1])]
    pred = [np.array([0, 1, -1]), np.array([-1, 0, 1])]
    # image 0 selects candidates 0 (inlier) and 1 (outlier); image 1 selects two inliers
    assert selected_inlier_fraction(pred, truth) == pytest.approx(3 / 4)


def test_selected_inlier_fraction_refuses_mismatched_images():
    truth = [np.array([0, -1, 1]), np.array([-1, 0, 1])]
    # a third predicted image that the truth lacks
    with pytest.raises(MatchingError, match="the prediction covers 3 images, the truth 2"):
        selected_inlier_fraction([*truth, np.array([0, 1])], truth)
    # a truth image shorter than the prediction's, whose selected candidate lies past its end
    with pytest.raises(MatchingError, match="image 1: the prediction has 4 candidates, the truth 3"):
        selected_inlier_fraction([truth[0], np.array([-1, 0, -1, 1])], truth)


def test_pck_perfect_and_boundary():
    pts = np.array([[0.0, 3.0], [0.0, 4.0]])
    assert pck(pts, pts, h=10, w=20, alpha=0.5) == 1.0
    truth = np.zeros((2, 1))
    pred = np.array([[3.0], [4.0]])  # distance exactly 5 = 0.25 * max(10, 20)
    assert pck(pred, truth, h=10, w=20, alpha=0.25) == 1.0
    assert pck(pred, truth, h=10, w=20, alpha=0.24) == 0.0


def test_pck_validates_inputs():
    pts = np.zeros((2, 3))
    with pytest.raises(ValueError):
        pck(pts, np.zeros((2, 2)), 10, 10, 0.1)
    with pytest.raises(ValueError):
        pck(pts, pts, 0, 10, 0.1)
    with pytest.raises(ValueError):
        pck(pts, pts, 10, 10, 1.5)


def test_cycle_check_detects_corrupted_block(rng):
    lab = random_labeling(rng, [3, 3, 3], 2)
    blocks = {
        (i, j): pair_matrix(lab, i, j) for i in range(3) for j in range(3) if i != j
    }
    bad = blocks[(0, 1)].copy()
    r, c = np.nonzero(bad)
    bad[r[0], c[0]] = 0.0
    bad[(r[0] + 1) % 3, c[0]] = 1.0  # flip one match
    blocks[(0, 1)] = bad
    blocks[(1, 0)] = bad.T
    assert cycle_check(blocks) >= 1.0


def test_cycle_check_identity_blocks():
    blocks = {(i, j): np.eye(3) for i in range(3) for j in range(3) if i != j}
    assert cycle_check(blocks) == 0.0


def test_rank_diagnostic_rigid_scene():
    planted = generate(7, 9, seed=2)
    diag = rank_diagnostic(planted.true_measurement(), 4)
    assert diag.tail_energy_ratio < 1e-12
    assert diag.singular_values.shape == (9,)


def test_rank_diagnostic_gaussian_has_large_tail(rng):
    # Monte-Carlo reference: full-rank Gaussian matrices keep a visible
    # share of their energy beyond rank 4
    ratios = []
    for _ in range(50):
        ratios.append(rank_diagnostic(rng.normal(size=(20, 10)), 4).tail_energy_ratio)
    ratios = np.array(ratios)
    assert ratios.min() > 0.05
    assert ratios.mean() > 0.15


def test_rank_diagnostic_zero_matrix_convention():
    diag = rank_diagnostic(np.zeros((6, 4)), 4)
    assert diag.tail_energy_ratio == 0.0
    assert (diag.singular_values == 0).all()


@pytest.mark.parametrize("r", [0, -1])
def test_rank_diagnostic_rejects_a_rank_below_one(r):
    with pytest.raises(MatchingError, match="rank bound must be at least 1"):
        rank_diagnostic(np.ones((6, 4)), r)
