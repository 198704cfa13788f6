"""Evaluation: correspondence recall/precision, keypoint transfer accuracy,
cycle-consistency violation, and measurement-rank diagnostics.

Correspondence metrics compare induced candidate pairs, never label ids,
so any permutation of the predicted label set leaves them unchanged.
Degenerate denominators (no true pairs for recall, no predicted pairs for
precision) score 1.0 and raise the ``vacuous`` flag instead of erroring,
which keeps batch evaluation robust.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import MatchingError
from .model import PairwiseScores, SelectionLabeling

STRONG_SCORE = 0.5  # an input score entry at least this high counts as a predicted pair


@dataclass(frozen=True)
class MatchStats:
    """Pair counts between a prediction and the ground truth."""

    true_pairs: int
    predicted_pairs: int
    correct_pairs: int

    @property
    def recall(self) -> float:
        return 1.0 if self.true_pairs == 0 else self.correct_pairs / self.true_pairs

    @property
    def precision(self) -> float:
        return 1.0 if self.predicted_pairs == 0 else self.correct_pairs / self.predicted_pairs

    @property
    def vacuous(self) -> bool:
        return self.true_pairs == 0 or self.predicted_pairs == 0


def _as_labels(x) -> list[np.ndarray]:
    if isinstance(x, SelectionLabeling):
        return x.labels()
    return [np.asarray(lab, dtype=int) for lab in x]


def _pair_count(labels: np.ndarray) -> int:
    """Sum of C(count, 2) over the distinct values of nonnegative codes."""
    counts = np.bincount(labels)
    return int((counts * (counts - 1) // 2).sum())


def _aligned_labels(predicted, truth) -> tuple[np.ndarray, np.ndarray]:
    """Both labelings' labels laid image after image, once their images' candidate counts agree."""
    pred, true = _as_labels(predicted), _as_labels(truth)
    if len(pred) != len(true):
        raise MatchingError(f"the prediction covers {len(pred)} images, the truth {len(true)}")
    for i, (a, b) in enumerate(zip(pred, true)):
        if len(a) != len(b):
            raise MatchingError(f"image {i}: the prediction has {len(a)} candidates, the truth {len(b)}")
    empty = np.empty(0, dtype=int)  # keeps a labeling of no images readable
    return np.concatenate([empty, *pred]), np.concatenate([empty, *true])


def pair_stats(predicted, truth) -> MatchStats:
    """Count induced pairs over all image pairs (i < j) against the truth.

    Both arguments are selection labelings or per-image label arrays
    (-1 marks unlabeled candidates), with no label repeated in one image.
    A predicted pair is correct when both candidates carry the same
    non-negative truth label; a label shared by c images makes C(c, 2) pairs.
    Raises :class:`MatchingError`, naming the first image at fault by its
    position, unless both give the same candidate count for every image.
    """
    pred, true = _aligned_labels(predicted, truth)
    joint = (pred >= 0) & (true >= 0)
    joint_codes = pred[joint] * (true.max(initial=0) + 1) + true[joint]
    return MatchStats(
        _pair_count(true[true >= 0]), _pair_count(pred[pred >= 0]), _pair_count(joint_codes)
    )


def recall(predicted, truth) -> float:
    """Correct induced pairs over ground-truth pairs."""
    return pair_stats(predicted, truth).recall


def precision(predicted, truth) -> float:
    """Correct induced pairs over predicted pairs (1.0 when none predicted)."""
    return pair_stats(predicted, truth).precision


def scores_pair_stats(scores: PairwiseScores, truth) -> MatchStats:
    """Pair counts treating strong off-diagonal score entries as predictions.

    Grades the pairwise input the same way a labeling is graded, so input
    and solved precision are directly comparable.  Every entry of canonical
    ``scores`` above the diagonal blocks that scores at least
    ``STRONG_SCORE`` is one predicted pair.
    """
    true = np.concatenate(_as_labels(truth))
    w = scores.matrix.tocoo()
    image = scores.layout.candidate_images()
    upper = image[w.row] < image[w.col]
    strong = upper & (w.data >= STRONG_SCORE)
    a, b = true[w.row[strong]], true[w.col[strong]]
    correct = int(((a >= 0) & (a == b)).sum())
    return MatchStats(_pair_count(true[true >= 0]), int(strong.sum()), correct)


def selected_inlier_fraction(predicted, truth) -> float:
    """Fraction of selected candidates that the truth marks as inliers; raises as :func:`pair_stats` does."""
    pred, true = _aligned_labels(predicted, truth)
    sel = pred >= 0
    return 1.0 if not sel.any() else np.count_nonzero(true[sel] >= 0) / np.count_nonzero(sel)


def pck(
    predicted_points: np.ndarray,
    truth_points: np.ndarray,
    h: float,
    w: float,
    alpha: float,
) -> float:
    """Fraction of points within alpha * max(h, w) of the truth (inclusive)."""
    predicted_points = np.asarray(predicted_points, dtype=float)
    truth_points = np.asarray(truth_points, dtype=float)
    if predicted_points.shape != truth_points.shape or predicted_points.shape[0] != 2:
        raise ValueError("point sets must both be 2 x q")
    if h <= 0 or w <= 0:
        raise ValueError("bounding box sides must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    dist = np.linalg.norm(predicted_points - truth_points, axis=0)
    return float((dist <= alpha * max(h, w)).mean())


def cycle_check(blocks) -> float:
    """Maximum triplet composition violation max_ijz ||P_ij - P_iz P_zj||_inf.

    ``blocks`` maps ordered index pairs to match matrices (a missing
    direction falls back to the stored transpose).  Every ordered triplet
    is checked.  A selection labeling needs no check: its induced matches
    X_i X_j^T are cycle-consistent by construction, since X_z^T X_z = I_k.
    """
    n = max(max(i, j) for i, j in blocks.keys()) + 1
    store = dict(blocks)

    def get(i: int, j: int) -> np.ndarray:
        if (i, j) in store:
            return np.asarray(store[(i, j)])
        return np.asarray(store[(j, i)]).T

    worst = 0.0
    for i, z, j in itertools.permutations(range(n), 3):
        viol = np.abs(get(i, j) - get(i, z) @ get(z, j)).max()
        worst = max(worst, float(viol))
    return worst


@dataclass(frozen=True)
class RankDiagnostic:
    """Singular spectrum and the energy fraction beyond the first r values."""

    singular_values: np.ndarray
    tail_energy_ratio: float


def rank_diagnostic(m_tilde: np.ndarray, r: int) -> RankDiagnostic:
    """Singular values of a measurement matrix and their rank-r tail ratio, for r >= 1."""
    if r < 1:
        raise MatchingError("rank bound must be at least 1")
    s = np.linalg.svd(np.asarray(m_tilde, dtype=float), compute_uv=False)
    total = float((s**2).sum())
    tail = float((s[r:] ** 2).sum())
    ratio = 0.0 if total == 0.0 else tail / total
    return RankDiagnostic(s, ratio)
