"""Pairwise score blocks from descriptors via linear-assignment matching.

Descriptor similarity is the inner product of unit-norm columns, clamped
to [0, 1].  Each image pair keeps the assignment that maximizes total
similarity, matching min(p_i, p_j) candidates, and the binary assignment
itself becomes the score block; downstream joint optimization is what
prunes unreliable matches, so no similarity threshold is applied here.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import scipy.sparse as sp

from .assignment import solve_lap
from .errors import DimensionMismatch, MatchingError
from .model import BlockLayout, FeatureSet, PairwiseScores


def similarity(desc_i: np.ndarray, desc_j: np.ndarray) -> np.ndarray:
    """Inner products between descriptor columns, clamped to [0, 1]."""
    desc_i = np.asarray(desc_i, dtype=float)
    desc_j = np.asarray(desc_j, dtype=float)
    if desc_i.ndim != 2 or desc_j.ndim != 2 or desc_i.shape[0] != desc_j.shape[0]:
        raise DimensionMismatch(
            f"descriptor dimensions disagree: {desc_i.shape} vs {desc_j.shape}"
        )
    return np.clip(desc_i.T @ desc_j, 0.0, 1.0)


def pairwise_match(desc_i: np.ndarray, desc_j: np.ndarray) -> np.ndarray:
    """Binary p_i x p_j match matrix maximizing total similarity.

    Exactly min(p_i, p_j) candidates are matched; the orientation with
    fewer columns is solved.
    """
    sim = similarity(desc_i, desc_j)
    ((rows, cols),) = _match([sim])
    out = np.zeros(sim.shape, dtype=int)
    out[rows, cols] = 1
    return out


def _match(sims: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Matched (row, column) indices of each similarity matrix, maximizing its total.

    Each matrix is solved with its longer side as rows; matrices of the same
    oriented shape are solved as one stack.
    """
    stacks: dict[tuple[int, int], list[int]] = {}
    for t, sim in enumerate(sims):
        stacks.setdefault((max(sim.shape), min(sim.shape)), []).append(t)
    out: list = [None] * len(sims)
    for members in stacks.values():
        flipped = [sims[t].shape[0] < sims[t].shape[1] for t in members]
        cost = np.stack([-(sims[t].T if f else sims[t]) for t, f in zip(members, flipped)])
        chosen = solve_lap(cost)
        every = np.arange(chosen.shape[1])
        for t, f, rows in zip(members, flipped, chosen):
            out[t] = (every, rows) if f else (rows, every)
    return out


def scores_from_descriptors(features: list[FeatureSet]) -> PairwiseScores:
    """Match every image pair (i < j) of a feature list into one upper-triangular score matrix.

    All pairs of the same oriented shape are matched in one assignment stack.
    """
    missing = [f.image_id for f in features if f.descriptors is None]
    if missing:
        raise MatchingError(f"images without descriptors: {missing}")
    layout = BlockLayout(tuple(f.p for f in features))
    offsets = layout.offsets
    pairs = list(combinations(range(layout.n), 2))
    sims = [similarity(features[i].descriptors, features[j].descriptors) for i, j in pairs]
    rows, cols = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for (i, j), (r, c) in zip(pairs, _match(sims)):
        rows.append(offsets[i] + r)
        cols.append(offsets[j] + c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    matrix = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(layout.m, layout.m))
    return PairwiseScores(matrix, layout)
