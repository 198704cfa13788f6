import hashlib

import numpy as np
import pytest

from multimatch import (
    BlockLayout,
    InstanceTooLarge,
    MatchingError,
    SolverConfig,
    assemble_block,
    assemble_measurements,
    brute_force_solve,
    generate,
    normalize_coordinates,
    selection_objective,
)
from multimatch.solver import Contraction
from conftest import pair_matrix


def test_same_seed_is_bit_identical():
    a = generate(4, 3, outliers_per_image=2, coord_noise_sigma=0.05,
                 match_corruption_rate=0.3, seed=42)
    b = generate(4, 3, outliers_per_image=2, coord_noise_sigma=0.05,
                 match_corruption_rate=0.3, seed=42)
    assert np.array_equal(a.scene, b.scene)
    for fa, fb in zip(a.instance.features, b.instance.features):
        assert np.array_equal(fa.coordinates, fb.coordinates)
    for key, blk in a.instance.scores.blocks.items():
        assert np.array_equal(blk, b.instance.scores.blocks[key])
    for la, lb in zip(a.truth_labels, b.truth_labels):
        assert np.array_equal(la, lb)


def test_different_seeds_differ():
    a = generate(3, 3, seed=0)
    b = generate(3, 3, seed=1)
    assert not np.array_equal(a.scene, b.scene)


def test_uncorrupted_scores_equal_truth_product():
    planted = generate(5, 4, outliers_per_image=3, seed=9)
    w = assemble_block(planted.instance.scores).toarray()
    xs = planted.ground_truth.stacked()
    assert np.array_equal(w, xs @ xs.T + np.eye(w.shape[0]) - np.diag(np.diag(xs @ xs.T)))
    # off the diagonal blocks the product is exact
    layout = planted.instance.layout
    for i in range(5):
        for j in range(i + 1, 5):
            got = w[layout.block_slice(i), layout.block_slice(j)]
            expected = pair_matrix(planted.ground_truth, i, j)
            assert np.array_equal(got, expected)


def test_true_measurement_is_rank_four():
    planted = generate(8, 12, outliers_per_image=5, seed=1)
    s = np.linalg.svd(planted.true_measurement(), compute_uv=False)
    assert s[4] / s[0] < 1e-10


def test_noiseless_instance_measurement_is_rank_four():
    # with sigma = 0 the instance coordinates at the truth labeling equal
    # the noiseless projections, in the raw and the normalized frame alike
    planted = generate(6, 8, outliers_per_image=4, seed=3)
    m = assemble_measurements(planted.ground_truth, planted.instance.coordinates)
    s = np.linalg.svd(m, compute_uv=False)
    assert s[4] / s[0] < 1e-10
    normed = normalize_coordinates(np.hstack(planted.instance.coordinates), planted.instance.layout)[0]
    s = np.linalg.svd(assemble_measurements(planted.ground_truth, [normed]), compute_uv=False)
    assert s[4] / s[0] < 1e-10


def test_corruption_fraction_measured_against_truth():
    planted = generate(10, 10, outliers_per_image=10, match_corruption_rate=0.2, seed=5)
    damaged = total = 0
    for i in range(10):
        for j in range(i + 1, 10):
            w = planted.instance.scores.blocks[(i, j)]
            truth = pair_matrix(planted.ground_truth, i, j)
            rows, cols = np.nonzero(truth)
            total += rows.size
            damaged += int((w[rows, cols] < 0.5).sum())
    assert abs(damaged / total - 0.2) <= 0.05


def test_corrupted_blocks_stay_valid_partial_permutations():
    u, rate = 5, 0.5
    planted = generate(6, u, outliers_per_image=4, match_corruption_rate=rate, seed=8)
    n_corrupt = round(rate * u)
    pos = planted.ground_truth.index  # (n, u): candidate of each scene point per image
    moved = []
    for (i, j), blk in planted.instance.scores.blocks.items():
        if i == j:
            continue
        assert set(np.unique(blk)) <= {0.0, 1.0}
        assert blk.sum(axis=0).max() <= 1
        assert blk.sum(axis=1).max() <= 1
        assert blk.sum() == u  # corruption moves matches, never drops them
        # each match stays on its scene point's row; at most n_corrupt of them change column
        rows, cols = np.nonzero(blk)
        order = np.argsort(pos[i])
        assert np.array_equal(rows, pos[i, order])
        moved.append(int((cols != pos[j, order]).sum()))
    assert max(moved) == n_corrupt


def _instance_digest(planted) -> str:
    """sha256 of the CSR score arrays and the coordinates, in fixed dtypes.

    Coordinates are rounded to 1e-10, so a LAPACK build whose QR differs
    in the last bit gives the same digest.
    """
    m = planted.instance.scores.matrix
    h = hashlib.sha256()
    for a in (m.indptr, m.indices):
        h.update(np.asarray(a, dtype="<i8").tobytes())
    h.update(np.asarray(m.data, dtype="<f8").tobytes())
    for c in planted.instance.coordinates:
        h.update(np.round(c, 10).astype("<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("rate, digest", [
    (0.0, "6e88895f1421410149df4ddce48544af235bf39c724aa17d1ee1271651c20b62"),
    (0.2, "78e5f15e641c9dbfcf4c8224ab91e731c3be20cb513d847bfa0fb045470ddaa7"),
])
def test_seeded_instances_keep_their_digest(rate, digest):
    # the benchmark builds its instances with generate: a change to either
    # digest changes the benchmark's instances and must be named in CHANGES.md
    planted = generate(6, 5, outliers_per_image=3, coord_noise_sigma=0.02,
                       match_corruption_rate=rate, seed=7)
    assert _instance_digest(planted) == digest


def test_generate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate(1, 3)
    with pytest.raises(ValueError):
        generate(3, 0)
    with pytest.raises(ValueError):
        generate(3, 3, match_corruption_rate=1.5)
    with pytest.raises(ValueError):
        generate(3, 3, coord_noise_sigma=-0.1)
    for kwargs, message in [
        ({"seed": -1}, "seed must be a nonnegative integer, got -1"),
        ({"seed": True}, "seed must be a nonnegative integer, got True"),
        ({"seed": 1.0}, "seed must be a nonnegative integer, got 1.0"),
        ({"coord_noise_sigma": float("nan")}, "noise sigma must be finite and nonnegative, got nan"),
        ({"coord_noise_sigma": float("inf")}, "noise sigma must be finite and nonnegative, got inf"),
    ]:
        with pytest.raises(MatchingError, match=message):
            generate(3, 3, **kwargs)


def test_numpy_integer_seed_gives_the_same_instance():
    a, b = generate(3, 3, seed=np.int64(5)), generate(3, 3, seed=5)
    assert np.array_equal(a.scene, b.scene)


def test_ground_truth_satisfies_constraints():
    planted = generate(4, 6, outliers_per_image=2, seed=13)
    planted.ground_truth.validate()


def test_brute_force_finds_planted_optimum_zero_objective():
    # without outliers every candidate is selected, so the forced identity
    # diagonal is reproduced exactly and the planted optimum scores zero
    planted = generate(3, 2, outliers_per_image=0, seed=21)
    best, obj = brute_force_solve(planted.instance, SolverConfig(k=2))
    assert obj == pytest.approx(0.0, abs=1e-12)
    for i in range(3):
        for j in range(3):
            assert np.array_equal(pair_matrix(best, i, j), pair_matrix(planted.ground_truth, i, j))


def test_brute_force_finds_planted_optimum_with_outliers():
    # unselected candidates leave a constant identity-diagonal residual,
    # so the optimum matches the truth up to that offset
    planted = generate(3, 2, outliers_per_image=1, seed=21)
    best, obj = brute_force_solve(planted.instance, SolverConfig(k=2))
    sizes = [f.p for f in planted.instance.features]
    offset = 0.25 * sum(p - 2 for p in sizes)
    assert obj == pytest.approx(offset, abs=1e-9)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert np.array_equal(
                    pair_matrix(best, i, j), pair_matrix(planted.ground_truth, i, j)
                )


def test_brute_force_matches_hand_enumeration():
    # two images, two candidates each, k=1: exactly four labelings
    planted = generate(2, 1, outliers_per_image=1, seed=2)
    cfg = SolverConfig(k=1, lam=1.0, r=4)
    w = assemble_block(planted.instance.scores).toarray()
    points = normalize_coordinates(np.hstack(planted.instance.coordinates), planted.instance.layout)[0]
    best, obj = brute_force_solve(planted.instance, cfg)
    # by hand: evaluate all four (row_0, row_1) choices
    from multimatch import SelectionLabeling

    totals = {}
    for r0 in range(2):
        for r1 in range(2):
            lab = SelectionLabeling([[r0], [r1]], BlockLayout((2, 2)))
            totals[(r0, r1)] = selection_objective(Contraction(w), lab, points, 1.0, 4)
    hand_best = min(totals, key=totals.get)
    assert obj == pytest.approx(totals[hand_best], abs=1e-12)
    got = tuple(best.index[:, 0].tolist())
    assert totals[got] == pytest.approx(totals[hand_best], abs=1e-12)


def test_brute_force_lambda_zero_depends_only_on_cycle_term():
    planted = generate(3, 2, outliers_per_image=1, coord_noise_sigma=0.2, seed=4)
    cfg = SolverConfig(k=2, lam=0.0)
    best, obj = brute_force_solve(planted.instance, cfg)
    w = assemble_block(planted.instance.scores).toarray()
    assert obj == pytest.approx(Contraction(w).value(best.stacked()), rel=1e-12, abs=1e-12)


def test_brute_force_rejects_large_instances():
    planted = generate(6, 6, outliers_per_image=6, seed=0)
    with pytest.raises(InstanceTooLarge):
        brute_force_solve(planted.instance, SolverConfig(k=6))
