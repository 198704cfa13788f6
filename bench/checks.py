"""Output checks that do not trust the code they check.

Each check recomputes a result with plain numpy/scipy, or tests a property
the method must have, and raises :class:`CheckFailed` when the program's
output disagrees.  Nothing here imports multimatch: labelings, traces and
score blocks arrive as plain arrays, lists and JSON documents.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

REL_TOL = 1e-9
TRACE_TOL = 1e-10  # rounding slack for "never increases" on objective totals


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def read_labeling(path, sizes, k) -> list[np.ndarray]:
    """Parse a labeling file written by ``multimatch solve`` and validate it.

    Returns per-image label arrays (label of each candidate, -1 when not
    selected) after checking that every image selects exactly ``k``
    distinct candidates with ``k`` distinct labels, which is what a partial
    permutation with full column sums means.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        images = doc["images"]
        k_file = int(doc["k"])
        recs = [(int(rec["p"]), np.asarray(rec["pairs"], dtype=int).reshape(-1, 2)) for rec in images]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable labeling file {path}: {exc}") from exc
    if k_file != k:
        raise CheckFailed(f"labeling has k={k_file}, expected {k}")
    if len(recs) != len(sizes):
        raise CheckFailed(f"labeling covers {len(recs)} images, expected {len(sizes)}")
    labels = []
    for i, ((p_file, pairs), p) in enumerate(zip(recs, sizes)):
        if p_file != p:
            raise CheckFailed(f"image {i}: labeling has p={p_file}, expected {p}")
        lab = np.full(p, -1, dtype=int)
        cand, label = pairs[:, 0], pairs[:, 1]
        if ((cand < 0) | (cand >= p) | (label < 0) | (label >= k)).any():
            raise CheckFailed(f"image {i}: candidate or label out of range")
        lab[cand] = label
        chosen = lab[lab >= 0]
        if chosen.size != pairs.shape[0]:
            raise CheckFailed(f"image {i}: a candidate is listed twice")
        if chosen.size != k or np.unique(chosen).size != k:
            raise CheckFailed(f"image {i}: labels are not a partial permutation onto {k} labels")
        labels.append(lab)
    return labels


def labels_from_assignments(assignments, k: int) -> list[np.ndarray]:
    """Convert p x k binary matrices to label arrays, checking each is a partial permutation."""
    labels = []
    for i, a in enumerate(assignments):
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[1] != k or not np.isin(a, (0, 1)).all():
            raise CheckFailed(f"image {i}: assignment is not a binary p x {k} matrix")
        if (a.sum(axis=1) > 1).any() or (a.sum(axis=0) != 1).any():
            raise CheckFailed(f"image {i}: assignment is not a partial permutation")
        lab = np.full(a.shape[0], -1, dtype=int)
        rows, cols = np.nonzero(a)
        lab[rows] = cols
        labels.append(lab)
    return labels


def check_same_labels(first, second) -> None:
    """Two solves of one instance with one seed must label identically."""
    if len(first) != len(second) or any(
        a.shape != b.shape or (a != b).any() for a, b in zip(first, second)
    ):
        raise CheckFailed("two solves with one seed gave different labelings")


def _pair_count(label_per_image: np.ndarray) -> int:
    """Pairs of images (i < j) that agree on a nonnegative value, per column, summed."""
    total = 0
    for col in np.asarray(label_per_image).T:
        _, counts = np.unique(col[col >= 0], return_counts=True)
        total += int((counts * (counts - 1) // 2).sum())
    return total


def recall_by_count(pred_labels, truth_labels, k: int, universe: int) -> float:
    """Correct induced pairs over true pairs, counted per label column.

    A predicted label induces a pair between images i and j when both
    images carry it; the pair is correct when both candidates have the same
    truth label.  Counting images per (label, truth label) gives the same
    total as enumerating every image pair, in O(n k) work.
    """
    n = len(pred_labels)
    truth_of_slot = np.full((n, k), -1, dtype=int)
    present = np.full((n, universe), -1, dtype=int)
    for i, (pred, true) in enumerate(zip(pred_labels, truth_labels)):
        sel = pred >= 0
        truth_of_slot[i, pred[sel]] = true[sel]
        inl = true >= 0
        present[i, true[inl]] = true[inl]
    true_pairs = _pair_count(present)
    correct = _pair_count(truth_of_slot)
    return 1.0 if true_pairs == 0 else correct / true_pairs


def check_recall(reported: float, pred_labels, truth_labels, k: int, universe: int) -> None:
    """The program's recall must equal the independent pair count."""
    own = recall_by_count(pred_labels, truth_labels, k, universe)
    if own != reported:
        raise CheckFailed(f"recall {reported!r} disagrees with the pair count {own!r}")


def check_monotone_trace(trace) -> None:
    """Within each stage (``init`` included) the objective total never increases.

    ``trace`` is a sequence of (stage, total) pairs in recorded order.
    """
    prev_stage, prev = None, math.inf
    for stage, total in trace:
        if stage == prev_stage and total > prev + TRACE_TOL * max(1.0, abs(prev)):
            raise CheckFailed(f"objective rose from {prev!r} to {total!r} within stage {stage}")
        prev_stage, prev = stage, total


def dense_cycle_term(blocks, sizes, y: np.ndarray) -> float:
    """0.25 ||W - Y Y^T||_F^2 with W formed densely, one image's rows at a time.

    ``blocks`` maps (i, j) with i <= j to the p_i x p_j score block; the
    (j, i) rows are the transposes.  Missing pairs are zero blocks.
    """
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    m = int(offsets[-1])
    total = 0.0
    for i, p in enumerate(sizes):
        rows = np.zeros((p, m))
        for j in range(len(sizes)):
            if (i, j) in blocks:
                rows[:, offsets[j] : offsets[j + 1]] = blocks[(i, j)]
            elif (j, i) in blocks:
                rows[:, offsets[j] : offsets[j + 1]] = np.asarray(blocks[(j, i)]).T
        resid = rows - y[offsets[i] : offsets[i + 1]] @ y.T
        total += float((resid * resid).sum())
    return 0.25 * total


def check_cycle_term(reported: float, blocks, sizes, y: np.ndarray) -> None:
    """The last trace record's cycle term must equal the dense evaluation at ``y``."""
    own = dense_cycle_term(blocks, sizes, y)
    if abs(reported - own) > REL_TOL * max(1.0, abs(own)):
        raise CheckFailed(f"cycle term {reported!r} disagrees with the dense value {own!r}")


def rank3_rms(labels, coords, k: int) -> float:
    """Rank-3 SVD residual of the centered 2n x k measurements, over sqrt(2 n k)."""
    n = len(labels)
    meas = np.empty((2 * n, k))
    for i, (lab, c) in enumerate(zip(labels, coords)):
        sel = np.flatnonzero(lab >= 0)
        meas[2 * i : 2 * i + 2, lab[sel]] = c[:, sel]
    centered = meas - meas.mean(axis=1, keepdims=True)
    s = np.linalg.svd(centered, compute_uv=False)
    return float(np.sqrt((s[3:] ** 2).sum()) / np.sqrt(2 * n * k))


def check_rms(reported: float, labels, coords, k: int) -> None:
    """The reconstruction's reprojection RMS must equal the rank-3 SVD residual."""
    own = rank3_rms(labels, coords, k)
    if abs(reported - own) > REL_TOL * own + 1e-12:
        raise CheckFailed(f"reprojection RMS {reported!r} disagrees with the SVD residual {own!r}")


def check_frontend_block(block: np.ndarray, desc_i: np.ndarray, desc_j: np.ndarray) -> None:
    """A descriptor match block must be a maximum-similarity matching.

    Similarity is the clamped inner product of unit descriptors.  The block
    must match min(p_i, p_j) candidates one-to-one and reach the optimum
    that scipy's ``linear_sum_assignment`` finds.
    """
    block = np.asarray(block)
    sim = np.clip(desc_i.T @ desc_j, 0.0, 1.0)
    if block.shape != sim.shape or not np.isin(block, (0.0, 1.0)).all():
        raise CheckFailed(f"match block of shape {block.shape} is not binary {sim.shape}")
    if (block.sum(axis=0) > 1).any() or (block.sum(axis=1) > 1).any():
        raise CheckFailed("match block is not one-to-one")
    if block.sum() != min(sim.shape):
        raise CheckFailed(f"match block matches {block.sum():g} of {min(sim.shape)} candidates")
    rows, cols = linear_sum_assignment(sim, maximize=True)
    best = float(sim[rows, cols].sum())
    got = float((sim * block).sum())
    if got < best - REL_TOL * max(1.0, best):
        raise CheckFailed(f"match block reaches similarity {got!r}, optimum is {best!r}")


def check_exit_codes(codes: dict[str, int]) -> None:
    """Every CLI command must exit 0."""
    bad = {cmd: code for cmd, code in codes.items() if code != 0}
    if bad:
        raise CheckFailed(f"CLI commands exited non-zero: {bad}")
