import numpy as np
import pytest

from multimatch import BlockLayout, DimensionMismatch, InfeasibleK, feasibility_gap, project_onto_C, projection
from multimatch.projection import _threshold
from multimatch.solver import Contraction, assemble_block, spectral_start
from conftest import descriptor_instance, kkt_residual, qp_project, random_feasible_y, random_labeling

# the tests that lower PROJECTION_MAX_ITER fail when a projection reaches it
ROUND_CAP = pytest.mark.filterwarnings("error::multimatch.projection.ProjectionWarning")


def test_project_c_returns_valid_labeling_unchanged():
    y = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    out = project_onto_C(y, BlockLayout((3,)))
    assert np.array_equal(out, y)


@ROUND_CAP
def test_project_c_single_column_reduces_to_simplex(rng, monkeypatch):
    y = np.array([[0.8], [0.8]])
    assert np.allclose(project_onto_C(y, BlockLayout((2,))), [[0.5], [0.5]])
    # with k = 1 the column rule leaves every row within its cap: one round
    monkeypatch.setattr(projection, "PROJECTION_MAX_ITER", 1)
    sizes = (1, 4, 2, 4, 7)
    layout = BlockLayout(sizes)
    for scale in (0.1, 1.0, 10.0):
        v = rng.normal(scale=scale, size=(layout.m, 1))
        out = project_onto_C(v, layout)
        for i in range(layout.n):
            rows = layout.block_slice(i)
            assert np.allclose(out[rows, 0], _simplex(v[rows, 0]), rtol=0.0, atol=1e-12)


def test_project_c_symmetric_two_by_two():
    y = np.full((2, 2), 0.9)
    out = project_onto_C(y, BlockLayout((2,)))
    assert np.allclose(out, 0.5 * np.ones((2, 2)), atol=1e-4)


def test_project_c_matches_qp_oracle(rng):
    for _ in range(15):
        n_img = int(rng.integers(1, 3))
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(n_img))
        k = int(rng.integers(1, min(sizes) + 1))
        y = rng.normal(scale=1.0, size=(sum(sizes), k))
        ours = project_onto_C(y, BlockLayout(sizes))
        assert kkt_residual(y, ours, sizes) <= 1e-6
        assert feasibility_gap(ours, BlockLayout(sizes)) <= 1e-6
        oracle = qp_project(y, sizes)
        if oracle is not None:
            assert np.linalg.norm(ours - oracle) <= 1e-3


def test_project_c_idempotent(rng):
    for _ in range(50):
        sizes = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        k = int(rng.integers(1, min(sizes) + 1))
        y = rng.normal(scale=2.0, size=(sum(sizes), k))
        once = project_onto_C(y, BlockLayout(sizes))
        twice = project_onto_C(once, BlockLayout(sizes))
        assert np.linalg.norm(twice - once) <= 1e-5


def test_project_c_non_expansive(rng):
    layout = BlockLayout((4, 3))
    for _ in range(30):
        k = 2
        y1 = rng.normal(size=(7, k))
        y2 = rng.normal(size=(7, k))
        d_in = np.linalg.norm(y1 - y2)
        d_out = np.linalg.norm(project_onto_C(y1, layout) - project_onto_C(y2, layout))
        assert d_out <= d_in + 1e-4


def test_project_c_output_feasible(rng):
    for _ in range(30):
        sizes = (int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        k = int(rng.integers(1, min(sizes) + 1))
        y = rng.normal(scale=3.0, size=(sum(sizes), k))
        out = project_onto_C(y, BlockLayout(sizes))
        assert feasibility_gap(out, BlockLayout(sizes)) <= 1e-5


def _simplex(v):
    """Euclidean projection of a vector onto the probability simplex (sort rule)."""
    return np.maximum(v - _support_threshold(v), 0.0)


def _support_threshold(v):
    """tau of a vector by the sort-and-support rule: (sum of its support - 1) / support size."""
    srt = np.sort(v)[::-1]
    css = np.cumsum(srt) - 1.0
    last = np.flatnonzero(srt - css / np.arange(1, v.size + 1) > 0)[-1]
    return css[last] / (last + 1)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_threshold_matches_sort_and_support_rule(rng, scale):
    for n in (1, 2, 5, 13):
        ties = rng.integers(0, 4, size=(200, n)) * scale
        for v in (ties, rng.normal(scale=scale, size=(200, n))):
            tau = _threshold(v)
            # both sum n sorted entries, in different orders
            tol = 4 * n * np.finfo(float).eps * (1.0 + np.abs(v).max(axis=1))
            assert (np.abs(tau - [_support_threshold(row) for row in v]) <= tol).all()
            assert (np.abs(np.maximum(v - tau[:, None], 0.0).sum(axis=1) - 1.0) <= tol).all()


@ROUND_CAP
def test_project_c_keeps_feasible_input(rng, monkeypatch):
    # a feasible point passes the stop rule in the first round
    monkeypatch.setattr(projection, "PROJECTION_MAX_ITER", 1)
    for _ in range(20):
        sizes = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 4))))
        k = int(rng.integers(1, min(sizes) + 1))
        labeling = random_labeling(rng, sizes, k).stacked().astype(float)
        assert np.array_equal(project_onto_C(labeling, BlockLayout(sizes)), labeling)
        interior = np.vstack([np.full((p, k), 1.0 / p) for p in sizes])
        # 1 / p need not sum to 1 exactly
        assert np.abs(project_onto_C(interior, BlockLayout(sizes)) - interior).max() <= 1e-15


def _project_each(v, layout):
    """Every image projected alone, stacked."""
    return np.vstack([project_onto_C(v[layout.block_slice(i)], BlockLayout((p,))) for i, p in enumerate(layout.sizes)])


@ROUND_CAP
def test_project_c_separates_by_image(rng, monkeypatch):
    # mixed block heights, two of them shared; in every other case a feasible
    # block settles in the first round beside a block of its height that needs
    # more.  Newton's method settles each of these within 6 rounds; the plain
    # block coordinate ascent, or Newton's method on a wrong Hessian, takes
    # tens to hundreds.
    monkeypatch.setattr(projection, "PROJECTION_MAX_ITER", 8)
    sizes, k = (3, 5, 5, 4, 3), 3
    layout = BlockLayout(sizes)
    for case in range(20):
        v = rng.normal(scale=2.0, size=(layout.m, k))
        if case % 2:
            v[layout.block_slice(2)] = random_labeling(rng, (5,), k).stacked()
        out = project_onto_C(v, layout)
        assert np.array_equal(out, _project_each(v, layout))
        assert feasibility_gap(out, layout) <= 1e-6


@ROUND_CAP
def test_project_c_square_blocks_are_doubly_stochastic(rng, monkeypatch):
    # with p = k the column sums force every row sum to one, so most rows are
    # capped and enter the Hessian; Newton's method needs at most 6 rounds here
    monkeypatch.setattr(projection, "PROJECTION_MAX_ITER", 8)
    for _ in range(30):
        k = int(rng.integers(2, 8))
        sizes = (k, k, k)
        v = rng.normal(scale=2.0, size=(3 * k, k))
        out = project_onto_C(v, BlockLayout(sizes))
        assert feasibility_gap(out, BlockLayout(sizes)) <= 1e-6
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-6
        # the residual's complementarity term is a row's gap times its nu,
        # which reaches a few units at this scale
        assert kkt_residual(v, out, sizes) <= 1e-5


def test_project_c_falls_back_when_newton_steps_fail(rng, monkeypatch):
    sizes, k = (4, 3, 5), 3
    cases = [rng.normal(size=(12, k)) for _ in range(10)]
    newton = [project_onto_C(v, BlockLayout(sizes)) for v in cases]
    # phi is concave, so no step raises it by more than its slope predicts:
    # asking for 1.5 times that rejects every Newton step, and every round
    # after the first keeps nu(mu), a round of block coordinate ascent
    monkeypatch.setattr(projection, "ARMIJO", 1.5)
    for v, ref in zip(cases, newton):
        out = project_onto_C(v, BlockLayout(sizes))
        assert kkt_residual(v, out, sizes) <= 1e-6
        assert feasibility_gap(out, BlockLayout(sizes)) <= 1e-6
        assert np.abs(out - ref).max() <= 1e-5


@pytest.mark.parametrize("seed", [725, 1011])
def test_project_c_skips_newton_steps_below_rounding(seed, monkeypatch):
    # the second Newton round of these blocks has a reduced-dual gradient
    # near 1e-15 and predicts a gain near 1e-22: the block falls back to
    # coordinate ascent without trying the BACKTRACKS step lengths, so the
    # row rule runs only 4 times
    calls = []
    real = projection._row_step

    def counting(v, mu):
        calls.append(v.shape[0])
        return real(v, mu)

    monkeypatch.setattr(projection, "_row_step", counting)
    v = 3 * np.random.default_rng(seed).standard_normal((3, 3))
    out = project_onto_C(v, BlockLayout((3,)))
    assert len(calls) == 4
    assert kkt_residual(v, out, (3,)) <= 1e-6
    assert feasibility_gap(out, BlockLayout((3,))) <= 1e-6


@ROUND_CAP
def test_project_c_round_budget_on_descriptor_stack(monkeypatch):
    # a projected-gradient trial point of the init descent on a descriptors
    # instance (20 images of 13 candidates, k = 12): Newton's method settles
    # it in 4 rounds, the plain ascent from nu = 0 in 43
    instance, config = descriptor_instance(7)
    layout = instance.layout
    w = assemble_block(instance.scores)
    y = spectral_start(Contraction(w), config.k, layout)
    gram = y.T @ y
    eta = 4.0 / (np.linalg.eigvalsh(gram)[-1] + abs(w).sum(axis=1).max())
    v = y - eta * (y @ gram - w @ y)
    monkeypatch.setattr(projection, "PROJECTION_MAX_ITER", 6)
    out = project_onto_C(v, layout)
    assert feasibility_gap(out, layout) <= 1e-6


def test_project_c_rejects_infeasible_k():
    with pytest.raises(InfeasibleK):
        project_onto_C(np.zeros((2, 3)), BlockLayout((2,)))


def test_project_c_rejects_an_image_without_candidates():
    # a zero-size block cannot reach a column sum of 1, whatever k is
    with pytest.raises(DimensionMismatch, match="every image must contribute at least one candidate"):
        project_onto_C(np.ones((3, 1)), BlockLayout((3, 0)))


def test_feasibility_gap_of_an_image_without_candidates_is_its_missing_column_sum():
    assert feasibility_gap(np.array([[1.0], [0.0], [0.0]]), BlockLayout((3, 0))) == 1.0


def test_random_feasible_points_are_feasible(rng):
    y = random_feasible_y(rng, (4, 5), 3)
    assert feasibility_gap(y, BlockLayout((4, 5))) <= 1e-5
