"""Shared helpers: brute-force oracles kept independent of the library paths."""

import itertools

import numpy as np
import pytest

from multimatch import FeatureSet, PairwiseScores, SelectionLabeling


def enumerate_lap(cost, tol=0.0):
    """Exhaustive minimum-cost assignment; lexicographically smallest optimum.

    Iterates row tuples in lexicographic order and returns the first whose
    total is within ``tol`` of the minimum, which matches the library's
    documented tie-breaking.  With the default ``tol=0`` that is the first
    strict minimum; a small ``tol`` also counts totals that differ only by
    rounding (0.1 + 0.2 against 0.3) as ties.
    """
    cost = np.asarray(cost, dtype=float)
    p, k = cost.shape
    tuples = list(itertools.permutations(range(p), k))
    totals = [cost[list(rows), np.arange(k)].sum() for rows in tuples]
    best = min(totals)
    t = next(t for t, total in enumerate(totals) if total <= best + tol)
    return np.array(tuples[t]), float(totals[t])


def naive_cycle_objective(w, y):
    """Quarter squared Frobenius residual by explicit double loop."""
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    m = w.shape[0]
    total = 0.0
    for a in range(m):
        for b in range(m):
            total += (w[a, b] - y[a] @ y[b]) ** 2
    return 0.25 * total


def naive_geo_objective(blocks, z, coords):
    """Half squared residual summed image by image, entry by entry."""
    total = 0.0
    for i, (x, c) in enumerate(zip(blocks, coords)):
        pred = c @ x
        diff = pred - z[2 * i : 2 * i + 2]
        for row in diff:
            for val in row:
                total += val * val
    return 0.5 * total


def random_labeling(rng, sizes, k):
    """Uniformly random valid selection labeling."""
    blocks = []
    for p in sizes:
        rows = rng.permutation(p)[:k]
        x = np.zeros((p, k), dtype=int)
        x[rows, np.arange(k)] = 1
        blocks.append(x)
    return SelectionLabeling(blocks, k)


def random_feasible_y(rng, sizes, k):
    """A random point of the relaxed constraint set (via the projection)."""
    from multimatch import project_onto_C

    m = sum(sizes)
    return project_onto_C(rng.random((m, k)), sizes)


def toy_features(sizes, rng=None, image_ids=None):
    """Feature sets with random coordinates for structural tests."""
    rng = rng or np.random.default_rng(0)
    ids = image_ids or [f"im{i}" for i in range(len(sizes))]
    return [
        FeatureSet(ids[i], rng.uniform(0, 10, size=(2, p))) for i, p in enumerate(sizes)
    ]


def random_scores(rng, sizes):
    """Random symmetric-enough raw score blocks for every pair i < j."""
    blocks = {}
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            blocks[(i, j)] = rng.random((sizes[i], sizes[j]))
    return PairwiseScores(blocks, tuple(sizes))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
