import warnings

import numpy as np
import pytest

from multimatch import BlockLayout, DimensionMismatch, InfeasibleK, feasibility_gap, project_onto_C
from multimatch.projection import ProjectionWarning
from conftest import kkt_residual, qp_project, random_feasible_y, random_labeling


def test_project_c_returns_valid_labeling_unchanged():
    y = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    out = project_onto_C(y, (3,))
    assert np.array_equal(out, y)


def test_project_c_single_column_reduces_to_simplex():
    y = np.array([[0.8], [0.8]])
    assert np.allclose(project_onto_C(y, (2,)), [[0.5], [0.5]])


def test_project_c_symmetric_two_by_two():
    y = np.full((2, 2), 0.9)
    out = project_onto_C(y, (2,))
    assert np.allclose(out, 0.5 * np.ones((2, 2)), atol=1e-4)


def test_project_c_matches_qp_oracle(rng):
    for _ in range(15):
        n_img = int(rng.integers(1, 3))
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(n_img))
        k = int(rng.integers(1, min(sizes) + 1))
        y = rng.normal(scale=1.0, size=(sum(sizes), k))
        ours = project_onto_C(y, sizes)
        assert kkt_residual(y, ours, sizes) <= 1e-6
        assert feasibility_gap(ours, sizes) <= 1e-6
        oracle = qp_project(y, sizes)
        if oracle is not None:
            assert np.linalg.norm(ours - oracle) <= 1e-3


def test_project_c_idempotent(rng):
    for _ in range(50):
        sizes = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        k = int(rng.integers(1, min(sizes) + 1))
        y = rng.normal(scale=2.0, size=(sum(sizes), k))
        once = project_onto_C(y, sizes)
        twice = project_onto_C(once, sizes)
        assert np.linalg.norm(twice - once) <= 1e-5


def test_project_c_non_expansive(rng):
    sizes = (4, 3)
    for _ in range(30):
        k = 2
        y1 = rng.normal(size=(7, k))
        y2 = rng.normal(size=(7, k))
        d_in = np.linalg.norm(y1 - y2)
        d_out = np.linalg.norm(project_onto_C(y1, sizes) - project_onto_C(y2, sizes))
        assert d_out <= d_in + 1e-4


def test_project_c_output_feasible(rng):
    for _ in range(30):
        sizes = (int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        k = int(rng.integers(1, min(sizes) + 1))
        y = rng.normal(scale=3.0, size=(sum(sizes), k))
        out = project_onto_C(y, sizes)
        assert feasibility_gap(out, sizes) <= 1e-5


def _warm_starts(rng, m, nu_cold):
    """Row-multiplier starts: zero, random, the optimum, near it, and far above it."""
    return [
        np.zeros(m),
        rng.random(m),
        nu_cold.copy(),
        nu_cold + rng.uniform(0.0, 0.1, size=m),
        nu_cold * rng.uniform(0.5, 1.0, size=m),
        nu_cold + rng.uniform(1.0, 10.0, size=m),
        rng.uniform(20.0, 50.0, size=m),
    ]


def _simplex(v):
    """Euclidean projection of a vector onto the probability simplex (sort rule)."""
    srt = np.sort(v)[::-1]
    css = np.cumsum(srt) - 1.0
    last = np.flatnonzero(srt - css / np.arange(1, v.size + 1) > 0)[-1]
    return np.maximum(v - css[last] / (last + 1), 0.0)


def _assert_buffer_gives(v, out, nu, sizes):
    """out = max(v - nu 1^T - mu, 0) with each block column on the simplex, nu complementary."""
    assert (nu >= 0).all()
    assert (1.0 - out.sum(axis=1)[nu > 0] <= 1e-6).all()
    offset = 0
    for p in sizes:
        block = slice(offset, offset + p)
        for c in range(v.shape[1]):
            assert np.allclose(out[block, c], _simplex(v[block, c] - nu[block]), atol=1e-12)
        offset += p


def test_project_c_warm_start_matches_cold(rng):
    for _ in range(20):
        sizes = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 4))))
        k = int(rng.integers(1, min(sizes) + 1))
        m = sum(sizes)
        v = rng.normal(scale=2.0, size=(m, k))
        nu_cold = np.zeros(m)
        cold = project_onto_C(v, sizes, nu=nu_cold)
        assert np.array_equal(cold, project_onto_C(v, sizes))
        for start in _warm_starts(rng, m, nu_cold):
            nu = start.copy()
            out = project_onto_C(v, sizes, nu=nu)
            # the stop rule bounds row-sum gaps by 1e-6, and the residual's
            # complementarity term is the gap times nu
            assert kkt_residual(v, out, sizes) <= 1e-6 * max(1.0, nu.max())
            assert feasibility_gap(out, sizes) <= 1e-6
            assert np.abs(out - cold).max() <= 1e-5
            _assert_buffer_gives(v, out, nu, sizes)


def test_project_c_warm_start_keeps_feasible_input(rng):
    for _ in range(20):
        sizes = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 4))))
        k = int(rng.integers(1, min(sizes) + 1))
        m = sum(sizes)
        labeling = random_labeling(rng, sizes, k).stacked().astype(float)
        interior = np.vstack([np.full((p, k), 1.0 / p) for p in sizes])
        for y in (labeling, interior):
            cold = project_onto_C(y, sizes)
            assert np.abs(cold - y).max() <= 1e-15  # 1 / p need not sum to 1 exactly
            for start in _warm_starts(rng, m, rng.random(m)):
                nu = start.copy()
                assert np.array_equal(project_onto_C(y, sizes, nu=nu), cold)
                assert not nu.any()


def _project_each(v, sizes, nu=None):
    """Every image projected alone, stacked; with a buffer, also the multipliers written back."""
    layout = BlockLayout(sizes)
    outs, nus = [], []
    for i, p in enumerate(layout.sizes):
        buf = None if nu is None else nu[layout.block_slice(i)].copy()
        outs.append(project_onto_C(v[layout.block_slice(i)], (p,), nu=buf))
        nus.append(buf)
    return np.vstack(outs), None if nu is None else np.concatenate(nus)


def test_project_c_separates_by_image(rng):
    # mixed block heights, two of them shared; in every other case a feasible
    # block settles in the first round beside a block of its height that needs many
    sizes, k = (3, 5, 5, 4, 3), 3
    layout = BlockLayout(sizes)
    m = layout.m
    for case in range(20):
        v = rng.normal(scale=2.0, size=(m, k))
        if case % 2:
            v[layout.block_slice(2)] = random_labeling(rng, (5,), k).stacked()
        out = project_onto_C(v, sizes)
        assert np.array_equal(out, _project_each(v, sizes)[0])
        nu_cold = np.zeros(m)
        assert np.array_equal(project_onto_C(v, sizes, nu=nu_cold), out)
        for start in _warm_starts(rng, m, nu_cold):
            nu = start.copy()
            out = project_onto_C(v, sizes, nu=nu)
            each, each_nu = _project_each(v, sizes, start)
            assert np.array_equal(out, each)
            assert np.array_equal(nu, each_nu)


def test_project_c_chooses_warm_or_cold_per_image(rng):
    sizes, k = (4, 4, 5), 3
    layout = BlockLayout(sizes)
    far, kept, cold = (layout.block_slice(i) for i in range(3))
    v = rng.normal(scale=2.0, size=(layout.m, k)) + 1.0
    optimum = np.zeros(layout.m)
    project_onto_C(v, sizes, nu=optimum)
    # no block passes the stop rule at nu = 0, so each one reaches its carried nu
    assert all(optimum[rows].any() for rows in (far, kept, cold))
    start = optimum.copy()
    start[far] += 30.0
    start[cold] = 0.0
    nu = start.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ProjectionWarning)
        out = project_onto_C(v, sizes, nu=nu)
    each, each_nu = _project_each(v, sizes, start)
    assert np.array_equal(out, each) and np.array_equal(nu, each_nu)
    # the block far above its optimum ascends as if started cold, and the
    # block on its optimum keeps it and settles in its second round
    assert np.array_equal(out[far], project_onto_C(v[far], (4,)))
    assert np.array_equal(out[cold], project_onto_C(v[cold], (5,)))
    assert np.array_equal(nu[kept], optimum[kept])
    assert kkt_residual(v, out, sizes) <= 1e-6 * max(1.0, nu.max())


def test_project_c_rejects_wrong_buffer_length():
    with pytest.raises(DimensionMismatch):
        project_onto_C(np.zeros((3, 2)), (3,), nu=np.zeros(2))


def test_project_c_rejects_infeasible_k():
    with pytest.raises(InfeasibleK):
        project_onto_C(np.zeros((2, 3)), (2,))


def test_random_feasible_points_are_feasible(rng):
    y = random_feasible_y(rng, (4, 5), 3)
    assert feasibility_gap(y, (4, 5)) <= 1e-5
