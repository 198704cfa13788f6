"""Shared helpers: brute-force oracles kept independent of the library paths."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from multimatch import (
    BlockLayout,
    FeatureSet,
    PairwiseScores,
    SelectionLabeling,
    SolverConfig,
    generate,
    scores_from_descriptors,
    validate_instance,
)


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


def pair_matrix(labeling, i, j):
    """The p_i x p_j 0/1 matches a labeling induces between images i and j, label by label."""
    out = np.zeros((labeling.sizes[i], labeling.sizes[j]), dtype=int)
    for a, b in zip(labeling.index[i], labeling.index[j]):
        out[a, b] = 1
    return out


def random_labeling(rng, sizes, k):
    """Uniformly random valid selection labeling."""
    return SelectionLabeling([rng.permutation(p)[:k] for p in sizes], BlockLayout(sizes))


def random_feasible_y(rng, sizes, k):
    """A random point of the relaxed constraint set (via the projection)."""
    from multimatch import project_onto_C

    m = sum(sizes)
    return project_onto_C(rng.random((m, k)), BlockLayout(sizes))


def kkt_residual(v, y, sizes):
    """Smallest slack s for which some multipliers certify y as the projection of v.

    The projection onto {rows in the capped simplex, per-block columns on
    the simplex} is y = max(v - nu - mu, 0) with a row multiplier nu >= 0
    and a free column multiplier mu per image and column.  HiGHS finds the
    multipliers with the least s such that |v - y - nu - mu| <= s where
    y > 0, nu + mu >= v - s where y = 0, and nu_a (1 - sum_c y_ac) <= s on
    every row below the cap (complementarity).  Feasibility of y is not
    part of s; check it with ``feasibility_gap``.
    """
    v, y = np.asarray(v, dtype=float), np.asarray(y, dtype=float)
    m, k = y.shape
    n_var = m + len(sizes) * k + 1  # nu, then mu image by image, then s
    a, c = np.indices((m, k)).reshape(2, -1)
    image = np.repeat(np.arange(len(sizes)), sizes)
    mult = np.zeros((m * k, n_var))  # nu_a + mu_(image(a), c) for every entry (a, c)
    mult[np.arange(m * k), a] = 1.0
    mult[np.arange(m * k), m + image[a] * k + c] = 1.0
    e_s = np.eye(n_var)[-1]
    target = (v - y).ravel()
    support = (y > 0).ravel()
    gap = 1.0 - y.sum(axis=1)
    below = np.flatnonzero(gap > 0)
    comp = gap[below, None] * np.eye(n_var)[below]
    a_ub = np.vstack([mult[support] - e_s, -mult[support] - e_s, -mult[~support] - e_s, comp - e_s])
    b_ub = np.concatenate([target[support], -target[support], -target[~support], np.zeros(below.size)])
    bounds = [(0, None)] * m + [(None, None)] * (n_var - m - 1) + [(0, None)]
    res = linprog(e_s, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.x[-1])


def qp_project(y, sizes):
    """The projection by cvxpy as an independent QP oracle, or None without cvxpy."""
    try:
        import cvxpy
    except ImportError:
        return None
    v = cvxpy.Variable(y.shape)
    cons = [v >= 0, cvxpy.sum(v, axis=1) <= 1]
    off = 0
    for p in sizes:
        cons.append(cvxpy.sum(v[off : off + p], axis=0) == 1)
        off += p
    cvxpy.Problem(cvxpy.Minimize(cvxpy.sum_squares(v - y)), cons).solve()
    return np.asarray(v.value)


def toy_features(sizes, rng=None, image_ids=None):
    """Feature sets with random coordinates for structural tests."""
    rng = rng or np.random.default_rng(0)
    ids = image_ids or [f"im{i}" for i in range(len(sizes))]
    return [
        FeatureSet(ids[i], rng.uniform(0, 10, size=(2, p))) for i, p in enumerate(sizes)
    ]


def scores_from_blocks(blocks, sizes):
    """Raw scores storing every entry of every given p_i x p_j block, zeros included."""
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
    for (i, j), block in blocks.items():
        r, c = np.indices(np.shape(block))
        rows.append(offsets[i] + r.ravel())
        cols.append(offsets[j] + c.ravel())
        vals.append(np.asarray(block, dtype=float).ravel())
    m = int(offsets[-1])
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    return PairwiseScores(sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr(), BlockLayout(sizes))


def dense_merge_oracle(blocks, sizes):
    """Canonical dense scores from raw blocks, pair by pair.

    Diagonal blocks become the identity; a pair given in both orientations
    is averaged, one given once is taken as it is, and the result is
    clipped to [0, 1] in the upper block triangle.
    """
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    w = np.eye(int(offsets[-1]))
    for i, j in itertools.combinations(range(len(sizes)), 2):
        fwd, rev = blocks.get((i, j)), blocks.get((j, i))
        if fwd is None and rev is None:
            continue
        if fwd is None:
            merged = np.asarray(rev).T
        elif rev is None:
            merged = np.asarray(fwd)
        else:
            merged = 0.5 * (np.asarray(fwd) + np.asarray(rev).T)
        w[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]] = np.clip(merged, 0.0, 1.0)
    return w


def random_scores(rng, sizes):
    """Random symmetric-enough raw score blocks for every pair i < j."""
    blocks = {}
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            blocks[(i, j)] = rng.random((sizes[i], sizes[j]))
    return scores_from_blocks(blocks, sizes)


def _unit_columns(a):
    return a / np.linalg.norm(a, axis=0, keepdims=True)


def descriptor_instance(seed, dim=32, noise=0.25):
    """An instance of the benchmark's ``descriptors`` workload and its solver config.

    Twenty images of twelve scene points and one clutter candidate each.
    Every scene point has a random unit descriptor; an inlier carries a
    copy with Gaussian noise ``noise`` per dimension and a clutter
    candidate a random one, all renormalized.  The scores come from
    :func:`scores_from_descriptors`.
    """
    planted = generate(20, 12, outliers_per_image=1, coord_noise_sigma=0.01, seed=seed)
    rng = np.random.default_rng((seed, 1))
    scene = _unit_columns(rng.normal(size=(dim, planted.universe_size)))
    features = []
    for f, lab in zip(planted.instance.features, planted.truth_labels):
        desc = rng.normal(size=(dim, f.p))
        inl = lab >= 0
        desc[:, inl] = scene[:, lab[inl]] + noise * rng.normal(size=(dim, int(inl.sum())))
        features.append(FeatureSet(f.image_id, f.coordinates, _unit_columns(desc)))
    config = SolverConfig(k=12, seed=0)
    return validate_instance(features, scores_from_descriptors(features), config), config


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def canonical_csr_oracle(raw, sizes):
    """Canonical scores built block by block from raw ones, as (indptr, indices, data).

    Every stored entry of ``raw`` is read one at a time into its block;
    a block counts as given when it stores any entry, explicit zeros
    included.  Diagonal blocks become the identity; a pair given in both
    orientations is 0.5 * (fwd + rev.T), one given once is taken as it is
    (a lower block transposed), and the result is clipped to [0, 1] in the
    upper block triangle.  The rows are then read off left to right,
    dropping zeros.
    """
    offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()
    image = [i for i, p in enumerate(sizes) for _ in range(p)]
    blocks = {}
    coo = sp.coo_matrix(raw)
    for a, b, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        i, j = image[a], image[b]
        block = blocks.setdefault((i, j), np.zeros((sizes[i], sizes[j])))
        block[a - offsets[i], b - offsets[j]] += v
    dense = np.zeros((offsets[-1], offsets[-1]))
    for i in range(len(sizes)):
        dense[offsets[i] : offsets[i + 1], offsets[i] : offsets[i + 1]] = np.eye(sizes[i])
        for j in range(i + 1, len(sizes)):
            fwd, rev = blocks.get((i, j)), blocks.get((j, i))
            if fwd is not None and rev is not None:
                merged = 0.5 * (fwd + rev.T)
            elif fwd is not None or rev is not None:
                merged = fwd if rev is None else rev.T
            else:
                continue
            dense[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]] = np.clip(merged, 0.0, 1.0)
    indptr, indices, data = [0], [], []
    for row in dense:
        for col, v in enumerate(row.tolist()):
            if v != 0.0:
                indices.append(col)
                data.append(v)
        indptr.append(len(indices))
    return np.array(indptr), np.array(indices, dtype=int), np.array(data)
