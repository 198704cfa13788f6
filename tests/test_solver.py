import collections
import math
import warnings

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import multimatch.solver

from multimatch import (
    BlockLayout,
    PairwiseScores,
    ProblemInstance,
    SelectionLabeling,
    SolverConfig,
    assemble_block,
    assemble_measurements,
    discretize,
    feasibility_gap,
    initialize,
    normalize_coordinates,
    objective_components,
    project_onto_C,
    recall,
    generate,
    solve,
    solve_lap,
    update_X,
    update_Y,
    update_Z,
)
from multimatch.solver import (
    Contraction,
    TraceRecord,
    denormalize_fit,
    selection_objective,
    spectral_start,
    spectral_step,
    top_eigenvectors,
)
from conftest import (
    descriptor_instance,
    enumerate_lap,
    naive_cycle_objective,
    naive_geo_objective,
    random_feasible_y,
    random_labeling,
    scores_from_blocks,
)


def test_objective_cycle_zero_at_exact_factorization(rng):
    y = random_feasible_y(rng, (3, 3), 2)
    w = y @ y.T
    assert Contraction(w).value(y) == pytest.approx(0.0, abs=1e-12)


def test_objective_cycle_identity_at_zero():
    w = np.eye(3)
    y = np.zeros((3, 2))
    assert Contraction(w).value(y) == pytest.approx(0.75)


def test_objective_cycle_matches_naive_loop(rng):
    for _ in range(10):
        w = rng.random((4, 4))
        w = 0.5 * (w + w.T)
        y = rng.random((4, 2))
        assert Contraction(w).value(y) == pytest.approx(
            naive_cycle_objective(w, y), rel=1e-9, abs=1e-12
        )


def test_objective_cycle_accepts_sparse(rng):
    w = rng.random((5, 5))
    w = 0.5 * (w + w.T)
    y = rng.random((5, 2))
    dense = Contraction(w).value(y)
    sparse = Contraction(sp.csr_matrix(w)).value(y)
    assert sparse == pytest.approx(dense, rel=1e-12)


def test_update_z_geo_zero_at_exact_fit(rng):
    coords = [rng.random((2, 4)), rng.random((2, 5))]
    lab = random_labeling(rng, [4, 5], 3)
    z, geo = update_Z(lab, np.hstack(coords), 3)  # 3 >= min(2n, k): the fit is the measurements
    assert np.array_equal(z, assemble_measurements(lab, coords)) and geo == 0.0
    # rank-1 measurements a_i v^T, fitted by SVD at r = 1 < min(2n, k)
    v = rng.random(3)
    coords = []
    for a, p, index in zip(([1.0, -2.0], [0.5, 3.0]), (4, 5), lab.index):
        t = rng.random(p)
        t[index] = v
        coords.append(np.outer(a, t))
    assert update_Z(lab, np.hstack(coords), 1)[1] == pytest.approx(0.0, abs=1e-20)


def test_assemble_measurements_matches_per_image_slices(rng):
    sizes = (3, 5, 5, 4, 3)
    coords = [rng.random((2, p)) for p in sizes]
    lab = random_labeling(rng, sizes, 3)
    expected = np.vstack([c[:, index] for index, c in zip(lab.index, coords)])
    assert np.array_equal(assemble_measurements(lab, coords), expected)
    one = SelectionLabeling(lab.index[:1], BlockLayout(sizes[:1]))
    assert np.array_equal(assemble_measurements(one, coords[:1]), expected[:2])


def test_update_z_geo_single_point_at_rank_zero():
    # the rank-0 fit is zero, so the term is half the point's squared norm
    lab = SelectionLabeling([[0]], BlockLayout((1,)))
    z, geo = update_Z(lab, np.array([[3.0], [4.0]]), 0)
    assert np.array_equal(z, np.zeros((2, 1)))
    assert geo == pytest.approx(12.5)


def test_update_z_geo_matches_naive_loop(rng):
    for sizes, k, r in [((4, 3), 2, 1), ((5, 3, 6, 4), 3, 2), ((6,) * 5, 4, 3)]:
        coords = [rng.random((2, p)) for p in sizes]
        lab = random_labeling(rng, sizes, k)
        z, geo = update_Z(lab, np.hstack(coords), r)
        assert geo == pytest.approx(naive_geo_objective(lab.assignments, z, coords), rel=1e-12)


def test_objective_total_zero_for_consistent_state(rng):
    lab = random_labeling(rng, [3, 3], 2)
    xs = lab.stacked()
    w = xs @ xs.T
    coords = [rng.random((2, 3)), rng.random((2, 3))]
    geo = update_Z(lab, np.hstack(coords), 4)[1]  # 4 >= min(2n, k) = 2: an exact fit
    parts = objective_components(Contraction(w), xs, xs, geo, lam=1.0, rho=5.0)
    assert sum(parts) == pytest.approx(0.0, abs=1e-12)


def test_objective_total_decomposes(rng):
    lab = random_labeling(rng, [4, 4], 2)
    y = random_feasible_y(rng, (4, 4), 2)
    w = rng.random((8, 8))
    w = 0.5 * (w + w.T)
    coords = [rng.random((2, 4)), rng.random((2, 4))]
    z, fit = update_Z(lab, np.hstack(coords), 1)
    xs = lab.stacked()
    lam, rho = 0.7, 3.0
    cycle, geo, coupling = objective_components(Contraction(w), y, xs, fit, lam, rho)
    assert cycle == pytest.approx(naive_cycle_objective(w, y), rel=1e-9)
    assert geo == pytest.approx(lam * naive_geo_objective(lab.assignments, z, coords), rel=1e-9)
    assert coupling == pytest.approx(0.5 * rho * ((xs - y) ** 2).sum(), rel=1e-9)
    assert objective_components(Contraction(w), y, xs, fit, lam, 0.0) == (cycle, geo, 0.0)
    assert objective_components(Contraction(w), y, xs, fit, 0.0, rho) == (cycle, 0.0, coupling)


def gradient_fd(w, y, h=1e-5):
    """Central finite differences of the cycle term in y."""
    g = np.zeros_like(y)
    for a in range(y.shape[0]):
        for b in range(y.shape[1]):
            e = np.zeros_like(y)
            e[a, b] = h
            g[a, b] = (Contraction(w).value(y + e) - Contraction(w).value(y - e)) / (2 * h)
    return g


def test_gradient_matches_finite_differences(rng):
    sizes = (4, 3)
    for sparse in (False, True):
        for _ in range(5):
            y = random_feasible_y(rng, sizes, 2)
            w = rng.uniform(-0.5, 1.0, (7, 7))
            w = 0.5 * (w + w.T)
            if sparse:
                w[np.abs(w) < 0.4] = 0.0
                w = sp.csr_matrix(w)
            c = Contraction(w)
            analytic = c.gradient(y)
            numeric = gradient_fd(w, y)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
            assert rel <= 1e-5
            dense = w.toarray() if sparse else w
            bound = np.linalg.norm(y, 2) ** 2 + np.abs(dense).sum(axis=1).max()
            assert c.step_bound(y) == pytest.approx(bound, rel=1e-12)


def test_update_y_fixed_point_when_gradient_zero(rng):
    y = random_feasible_y(rng, (3, 3), 2)
    w = y @ y.T
    # gradient = y y^T y - w y = 0 exactly at this w
    out, hist, stalled = update_Y(y, np.zeros_like(y), Contraction(w), 0.0, BlockLayout((3, 3)))
    assert np.allclose(out, y, atol=1e-9)
    assert not stalled


def test_update_y_small_step_is_plain_gradient_step(monkeypatch):
    # engineered so the gradient has zero column sums: the first step,
    # 1 / (||y||_2^2 + ||w||_inf), stays inside the constraint set and the
    # projection must act as identity
    y = np.array([[0.5], [0.3], [0.2]])
    s = float(y[:, 0] @ y[:, 0])
    d = np.array([0.2, 0.6, 0.5])
    assert d @ y[:, 0] == pytest.approx(s)  # ensures 1^T grad = 0
    w = np.diag(d)
    grad = y @ (y.T @ y) - w @ y
    assert abs(grad.sum()) < 1e-12 and np.abs(grad).max() > 1e-3
    eta = 1.0 / (s + np.abs(d).max())
    monkeypatch.setattr(multimatch.solver, "MAX_INNER", 1)
    out, _, _ = update_Y(y, np.zeros_like(y), Contraction(w), 0.0, BlockLayout((3,)))
    assert np.allclose(out, y - eta * grad, atol=1e-8)


def test_update_y_matches_grid_search_on_tiny_instance(rng, monkeypatch):
    # two images, two candidates each, one label: C is a product of two
    # 1-simplices, so exhaustive grid search over (y1, y3) is an oracle
    lab = SelectionLabeling([[0], [1]], BlockLayout((2, 2)))
    xs = lab.stacked()
    w = xs @ xs.T
    y0 = project_onto_C(np.full((4, 1), 0.4), BlockLayout((2, 2)))

    def objective(yv):
        return Contraction(w).value(yv.reshape(4, 1))

    best, best_val = None, np.inf
    grid = np.linspace(0.0, 1.0, 101)
    for y1 in grid:
        for y3 in grid:
            yv = np.array([y1, 1 - y1, y3, 1 - y3])
            val = objective(yv)
            if val < best_val:
                best_val, best = val, yv
    monkeypatch.setattr(multimatch.solver, "INNER_TOL", 1e-12)
    monkeypatch.setattr(multimatch.solver, "MAX_INNER", 2000)
    out, _, _ = update_Y(y0, np.zeros((4, 1)), Contraction(w), 0.0, BlockLayout((2, 2)))
    assert Contraction(w).value(out) <= best_val + 1e-3


def test_update_y_objective_history_monotone(rng):
    sizes = (4, 4, 4)
    y = random_feasible_y(rng, sizes, 2)
    x = random_labeling(rng, sizes, 2).stacked()
    w = rng.random((12, 12))
    w = 0.5 * (w + w.T)
    _, hist, _ = update_Y(y, x, Contraction(w), 2.0, BlockLayout(sizes))
    diffs = np.diff(hist)
    assert (diffs <= 1e-9).all()


def test_update_y_stays_feasible(rng):
    sizes = (5, 3)
    y = random_feasible_y(rng, sizes, 2)
    x = random_labeling(rng, sizes, 2).stacked()
    w = rng.random((8, 8))
    w = 0.5 * (w + w.T)
    out, _, _ = update_Y(y, x, Contraction(w), 1.0, BlockLayout(sizes))
    assert feasibility_gap(out, BlockLayout(sizes)) <= 1e-5


@pytest.mark.parametrize("rho", [0.0, 3.0])
def test_update_y_second_step_starts_from_spectral_step(monkeypatch, rho):
    planted = generate(4, 3, outliers_per_image=1, match_corruption_rate=0.3, seed=9)
    w = assemble_block(planted.instance.scores).toarray()
    sizes = planted.instance.layout.sizes
    rng = np.random.default_rng(9)
    y0 = random_feasible_y(rng, sizes, 3)
    x = random_labeling(rng, sizes, 3).stacked()

    def grad(y):
        return (y @ y.T - w) @ y + rho * (y - x)

    eta0 = 1.0 / (np.linalg.norm(y0, 2) ** 2 + np.abs(w).sum(axis=1).max() + rho)
    y1 = project_onto_C(y0 - eta0 * grad(y0), BlockLayout(sizes))
    s, dg = y1 - y0, grad(y1) - grad(y0)
    eta = (s * s).sum() / (s * dg).sum()
    assert eta0 < eta < 1e3 * eta0  # inside the clamp: the quotient itself is the trial
    monkeypatch.setattr(multimatch.solver, "INNER_TOL", 0.0)
    monkeypatch.setattr(multimatch.solver, "MAX_INNER", 2)
    out, hist, stalled = update_Y(y0, x, Contraction(w), rho, BlockLayout(sizes))
    assert len(hist) == 3 and not stalled
    assert np.allclose(out, project_onto_C(y1 - eta * grad(y1), BlockLayout(sizes)), atol=1e-12)


def test_spectral_step_clamps_to_the_bound_step():
    s = np.array([[1.0, 0.0], [0.0, 2.0]])
    eta0 = 0.25
    # s^T s = 5; s^T dg <= 0 carries no curvature and falls back to eta0
    assert spectral_step(s, -s, eta0) == eta0
    assert spectral_step(s, np.array([[0.0, 1.0], [1.0, 0.0]]), eta0) == eta0
    # inside [eta0, 1e3 eta0] the trial is the quotient itself
    assert spectral_step(s, 2.0 * s, eta0) == pytest.approx(0.5)
    # a quotient below eta0 is floored there, a huge one capped at 1e3 eta0
    assert spectral_step(s, 100.0 * s, eta0) == eta0
    assert spectral_step(s, 1e-6 * s, eta0) == 1e3 * eta0
    assert spectral_step(s, 1e-320 * s, eta0) == 1e3 * eta0  # no overflow on the way


def test_first_stage_on_a_sparse_image_graph_takes_spectral_steps(monkeypatch):
    # 40 images, keeping only the pairs of a random graph of mean degree 4:
    # the bound step is short on such a W, and the spectral trial lengthens
    # it in the first stage's descent, from the start and its rounding
    planted = generate(40, 5, outliers_per_image=1, coord_noise_sigma=0.01,
                       match_corruption_rate=0.1, seed=0)
    sizes = planted.instance.layout.sizes
    rng = np.random.default_rng(0)
    upper = np.triu(rng.random((40, 40)) < 4 / 39, 1)
    graph = upper | upper.T | np.eye(40, dtype=bool)
    image = np.repeat(np.arange(40), sizes)
    full = assemble_block(planted.instance.scores).tocoo()
    keep = graph[image[full.row], image[full.col]]
    w = sp.csr_matrix((full.data[keep], (full.row[keep], full.col[keep])), shape=full.shape)
    layout = BlockLayout(sizes)
    y, x = initialize(Contraction(w), SolverConfig(k=5), layout)
    _, hist, _ = update_Y(y, x.stacked(), Contraction(w), 1.0, layout)
    assert (np.diff(hist) <= 0.0).all()
    # a cap of 1 pins every first trial to the bound step
    monkeypatch.setattr(multimatch.solver, "SPECTRAL_CAP", 1.0)
    _, bound_hist, _ = update_Y(y, x.stacked(), Contraction(w), 1.0, layout)
    assert len(hist) - 1 <= 15 < 30 <= len(bound_hist) - 1


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.lists(st.integers(2, 5), min_size=1, max_size=4),
    st.integers(1, 2),
    st.floats(0.1, 0.9),
    st.sampled_from([0.0, 0.5, 10.0]),
    st.integers(0, 2**32 - 1),
)
def test_update_y_history_never_increases_on_sparse_signed_scores(sizes, k, density, rho, seed):
    sizes = [max(p, k) for p in sizes]
    m = sum(sizes)
    rng = np.random.default_rng(seed)
    w = sp.random(m, m, density=density, random_state=rng, data_rvs=lambda n: rng.uniform(-1.0, 1.0, n))
    w = sp.csr_matrix(w + w.T)
    y = random_feasible_y(rng, sizes, k)
    x = random_labeling(rng, sizes, k).stacked()
    _, hist, _ = update_Y(y, x, Contraction(w), rho, BlockLayout(sizes))
    assert (np.diff(hist) <= 1e-12 * max(1.0, abs(hist[0]))).all()


@pytest.mark.parametrize("rho", [0.0, 3.0])
def test_update_y_with_carried_contraction_matches_fresh(monkeypatch, rho):
    planted = generate(5, 4, outliers_per_image=1, match_corruption_rate=0.3, seed=9)
    w = assemble_block(planted.instance.scores)
    sizes = planted.instance.layout.sizes
    rng = np.random.default_rng(9)
    y0 = random_feasible_y(rng, sizes, 4)
    x = random_labeling(rng, sizes, 4).stacked()
    products = []
    product = Contraction.product
    monkeypatch.setattr(Contraction, "product", lambda self, y: products.append(y) or product(self, y))
    contraction = Contraction(w)
    with monkeypatch.context() as patch:
        patch.setattr(multimatch.solver, "MAX_INNER", 2)
        y1, _, stalled = update_Y(y0, x, contraction, rho, BlockLayout(sizes))
    assert not stalled
    start = len(products)
    carried = update_Y(y1, x, contraction, rho, BlockLayout(sizes))
    reused = len(products) - start
    fresh = update_Y(y1, x, Contraction(w), rho, BlockLayout(sizes))
    # the carried call starts from the evaluation the previous call left
    assert reused == len(products) - start - reused - 1
    assert np.array_equal(carried[0], fresh[0])
    assert carried[1:] == fresh[1:]
    assert contraction.value(carried[0]) == Contraction(w).value(carried[0])


class CountingContraction:
    """A contraction object of its own class: counts the calls of each protocol member and passes them on."""

    def __init__(self, inner):
        self.inner, self.calls = inner, collections.Counter()

    @property
    def row_sums(self):
        self.calls["row_sums"] += 1
        return self.inner.row_sums

    def product(self, y):
        self.calls["product"] += 1
        return self.inner.product(y)

    def value(self, y):
        self.calls["value"] += 1
        return self.inner.value(y)

    def gradient(self, y):
        self.calls["gradient"] += 1
        return self.inner.gradient(y)

    def step_bound(self, y):
        self.calls["step_bound"] += 1
        return self.inner.step_bound(y)


@pytest.mark.parametrize("sparse", [False, True])
def test_any_contraction_object_drives_the_solver(sparse):
    planted = generate(4, 4, outliers_per_image=2, coord_noise_sigma=0.02,
                       match_corruption_rate=0.3, seed=12)
    w = assemble_block(planted.instance.scores)
    w = w if sparse else w.toarray()  # Contraction takes W dense or sparse
    layout = planted.instance.layout
    config = SolverConfig(k=4, seed=12)
    rng = np.random.default_rng(12)
    y = random_feasible_y(rng, layout.sizes, 4)
    lab = random_labeling(rng, layout.sizes, 4)
    points = normalize_coordinates(np.hstack(planted.instance.coordinates), layout)[0]
    geo = update_Z(lab, points, 2)[1]

    def bare_and_wrapped(call, methods):
        wrapped = CountingContraction(Contraction(w))
        bare, through = call(Contraction(w)), call(wrapped)
        assert set(wrapped.calls) == methods  # each member used at least once, no other
        return bare, through

    a, b = bare_and_wrapped(lambda c: update_Y(y, lab.stacked(), c, 3.0, layout), {"value", "gradient", "step_bound"})
    assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]
    # m = 24 >= 5k: the spectral start reads the row sums and runs the block eigensolver on products
    a, b = bare_and_wrapped(lambda c: initialize(c, config, layout), {"product", "row_sums"})
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1].index, b[1].index)
    a, b = bare_and_wrapped(lambda c: objective_components(c, y, lab.stacked(), geo, 0.7, 3.0), {"value"})
    assert a == b
    a, b = bare_and_wrapped(lambda c: selection_objective(c, lab, points, 0.7, 2), {"value"})
    assert a == b


def test_update_x_reduces_to_discretize_without_geometry(rng):
    sizes = (4, 3)
    y = random_feasible_y(rng, sizes, 2)
    coords = [rng.random((2, 4)), rng.random((2, 3))]
    z = rng.random((4, 2))
    lab = update_X(y, z, np.hstack(coords), lam=0.0, rho=1.0, layout=BlockLayout(sizes))
    blocks = [y[:4], y[4:]]
    for got, yb in zip(lab.index, blocks):
        assert np.array_equal(got, discretize(yb))


def test_update_x_zero_distance_optimum(rng):
    coords = [rng.random((2, 5))]
    pick = [3, 0]
    z = coords[0][:, pick]
    lab = update_X(np.zeros((5, 2)), z, coords[0], lam=1.0, rho=0.0, layout=BlockLayout((5,)))
    assert lab.assignments[0][pick, [0, 1]].tolist() == [1, 1]
    assert naive_geo_objective(lab.assignments, z, coords) == pytest.approx(0.0, abs=1e-16)


def test_update_x_matches_enumeration(rng):
    for _ in range(10):
        coords = [rng.random((2, 3))]
        z = rng.random((2, 2))
        y = random_feasible_y(rng, (3,), 2)
        lam, rho = 1.0, 1.0
        lab = update_X(y, z, coords[0], lam, rho, BlockLayout((3,)))
        c2 = (coords[0] ** 2).sum(axis=0)[:, None]
        z2 = (z**2).sum(axis=0)[None, :]
        d = c2 + z2 - 2 * coords[0].T @ z
        h = lam * d - 2 * rho * y
        rows, _ = enumerate_lap(h)
        assert np.array_equal(np.nonzero(lab.assignments[0].T)[1], rows)


@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_update_x_with_unequal_heights_matches_a_per_image_loop(rng, lam):
    # heights interleave, so each stack gathers images from across the layout
    sizes, k, rho = (5, 3, 6, 3, 5, 4, 3), 3, 1.3
    y = random_feasible_y(rng, sizes, k)
    coords = [rng.random((2, p)) for p in sizes]
    z = rng.random((2 * len(sizes), k))
    lab = update_X(y, z, np.hstack(coords), lam, rho, BlockLayout(sizes))
    assert lab.sizes == sizes
    off = 0
    for i, p in enumerate(sizes):
        d = ((coords[i][:, :, None] - z[2 * i : 2 * i + 2, None, :]) ** 2).sum(axis=0)
        cost = lam * d - 2.0 * rho * y[off : off + p]
        assert np.array_equal(lab.index[i], solve_lap(cost).column_to_row)
        off += p


def test_update_x_optimal_against_single_image_swaps(rng):
    # no alternative assignment in any single image lowers <H_i, X_i>
    import itertools

    sizes = (4, 4)
    y = random_feasible_y(rng, sizes, 2)
    coords = [rng.random((2, 4)), rng.random((2, 4))]
    z = rng.random((4, 2))
    lab = update_X(y, z, np.hstack(coords), 1.0, 1.5, BlockLayout(sizes))
    off = 0
    for i, p in enumerate(sizes):
        yi = y[off : off + p]
        c2 = (coords[i] ** 2).sum(axis=0)[:, None]
        z2 = (z[2 * i : 2 * i + 2] ** 2).sum(axis=0)[None, :]
        h = 1.0 * (c2 + z2 - 2 * coords[i].T @ z[2 * i : 2 * i + 2]) - 2 * 1.5 * yi
        chosen = float((h * lab.assignments[i]).sum())
        for rows in itertools.permutations(range(p), 2):
            alt = h[list(rows), np.arange(2)].sum()
            assert chosen <= alt + 1e-9
        off += p


def test_update_z_identity_when_rank_already_low(rng):
    lab = random_labeling(rng, [5, 5], 3)
    coords = [rng.random((2, 5)), rng.random((2, 5))]
    z, _ = update_Z(lab, np.hstack(coords), r=4)  # 4 >= min(2n, k) = 3
    assert np.allclose(z, assemble_measurements(lab, coords), atol=1e-9)


def test_update_z_zero_matrix():
    lab = SelectionLabeling([[0, 1]] * 2, BlockLayout((2, 2)))
    z, geo = update_Z(lab, np.zeros((2, 4)), 1)
    assert np.array_equal(z, np.zeros((4, 2))) and geo == 0.0


def test_update_z_tail_energy_identity(rng):
    # residual energy equals the sum of squared discarded singular values,
    # cross-checked through the eigendecomposition of M^T M
    m = rng.normal(size=(8, 5))
    points = np.hstack([m[2 * i : 2 * i + 2] for i in range(4)])
    z, geo = update_Z(SelectionLabeling([np.arange(5)] * 4, BlockLayout((5,) * 4)), points, r=4)
    eigvals = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
    expected_tail = eigvals[4:].sum()
    assert ((m - z) ** 2).sum() == pytest.approx(expected_tail, rel=1e-9, abs=1e-12)
    assert geo == pytest.approx(0.5 * expected_tail, rel=1e-9, abs=1e-12)
    s = np.linalg.svd(z, compute_uv=False)
    assert s[4] <= 1e-8 * max(s[0], 1e-300)


def test_normalize_coordinates_roundtrip(rng):
    coords = [rng.uniform(-40, 90, size=(2, 6)) for _ in range(3)]
    normed, scale, center = normalize_coordinates(np.hstack(coords), BlockLayout((6,) * 3))
    for c in np.split(normed, 3, axis=1):
        assert np.allclose(c.mean(axis=1), 0.0, atol=1e-12)
        assert np.linalg.norm(c, axis=0).mean() == pytest.approx(np.sqrt(2.0))
    # de-normalizing the normalized block stack recovers the originals
    stacked = np.vstack([c[:, :4] for c in np.split(normed, 3, axis=1)])
    back = denormalize_fit(stacked, scale, center)
    for i, c in enumerate(coords):
        assert np.allclose(back[2 * i : 2 * i + 2], c[:, :4])


def test_normalize_coordinates_with_mixed_heights_matches_a_per_image_oracle(rng):
    # heights interleave, and two images are degenerate: one candidate, and
    # candidates all at one point, both of which keep the scale 1
    sizes = (5, 3, 6, 1, 3, 5, 4)
    coords = [rng.uniform(-40, 90, size=(2, p)) for p in sizes]
    coords[4] = np.full((2, 3), 7.5)
    layout = BlockLayout(sizes)
    normed, scale, center = normalize_coordinates(np.hstack(coords), layout)
    assert normed.shape == (2, layout.m) and scale.shape == (7,) and center.shape == (2, 7)
    for i, c in enumerate(coords):
        mid = c.mean(axis=1)
        norm = np.linalg.norm(c - mid[:, None], axis=0).mean() / np.sqrt(2.0)
        s = norm if norm >= 1e-12 else 1.0
        got = normed[:, layout.block_slice(i)]
        assert np.allclose(got, (c - mid[:, None]) / s, rtol=0, atol=1e-12)
        assert np.allclose(center[:, i], mid) and scale[i] == pytest.approx(s, rel=1e-12)
        assert np.allclose(got.mean(axis=1), 0.0, atol=1e-12)
        if i in (3, 4):
            assert scale[i] == 1.0 and not got.any()
        else:
            assert np.linalg.norm(got, axis=0).mean() == pytest.approx(np.sqrt(2.0), rel=1e-12)
    # the normalized measurements of a labeling map back to the input ones
    lab = random_labeling(rng, sizes, 1)
    back = denormalize_fit(assemble_measurements(lab, [normed]), scale, center)
    assert np.allclose(back, assemble_measurements(lab, coords), rtol=0, atol=1e-12)


def test_initialize_recovers_planted_labeling():
    hits = 0
    for seed in range(20):
        planted = generate(6, 5, outliers_per_image=0, seed=seed)
        w = assemble_block(planted.instance.scores)
        cfg = SolverConfig(k=5, seed=seed)
        _, x = initialize(Contraction(w), cfg, planted.instance.layout)
        hits += recall(x, planted.truth_labels) == 1.0
    assert hits == 20


def test_initialize_single_image_degenerate():
    from multimatch import FeatureSet, PairwiseScores, validate_instance

    feats = [FeatureSet("solo", np.random.default_rng(0).random((2, 4)))]
    inst = validate_instance(feats, PairwiseScores(sp.csr_matrix((4, 4)), BlockLayout((4,))), SolverConfig(k=2))
    w = assemble_block(inst.scores)
    y, x = initialize(Contraction(w), SolverConfig(k=2), BlockLayout((4,)))
    assert feasibility_gap(y, BlockLayout((4,))) <= 1e-5
    x.validate()


def test_initialize_all_ones_blocks_monotone_and_feasible(rng):
    from multimatch import FeatureSet, validate_instance

    feats = [FeatureSet(f"i{t}", rng.random((2, 3))) for t in range(3)]
    blocks = {(i, j): np.ones((3, 3)) for i in range(3) for j in range(i + 1, 3)}
    inst = validate_instance(feats, scores_from_blocks(blocks, (3, 3, 3)), SolverConfig(k=2))
    w = assemble_block(inst.scores)
    y, x = initialize(Contraction(w), SolverConfig(k=2), BlockLayout((3, 3, 3)))
    assert feasibility_gap(y, BlockLayout((3, 3, 3))) <= 1e-5
    x.validate()


def test_initialize_is_the_spectral_start_and_its_rounding():
    planted = generate(6, 4, outliers_per_image=2, coord_noise_sigma=0.02,
                       match_corruption_rate=0.3, seed=8)
    layout, config = planted.instance.layout, SolverConfig(k=4)
    w = assemble_block(planted.instance.scores)
    y, x = initialize(Contraction(w), config, layout)
    start = spectral_start(Contraction(w), 4, layout)
    assert y.dtype == start.dtype and y.tobytes() == start.tobytes()
    # rounded one image at a time, not as stacks of equal height
    assert np.array_equal(x.index, [discretize(y[layout.block_slice(i)]) for i in range(layout.n)])
    # a solve records the start once, with the cycle term alone
    state = solve(planted.instance, config)
    f0 = Contraction(w).value(y)
    assert [rec for rec in state.objective_trace if rec.stage == "init"] == [TraceRecord("init", 0, f0, 0.0, 0.0, f0)]
    assert state.objective_trace[0].stage == "init"


def _top_projector(w, k):
    vecs = scipy.linalg.eigh(w.toarray())[1][:, -k:]
    return vecs @ vecs.T


def _dense_eigh(w):
    return scipy.linalg.eigh(w.toarray())


@pytest.fixture
def dense_calls(monkeypatch):
    """Shapes passed to np.linalg.eigh, the spectral start's dense path."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    return calls


def test_top_eigenvectors_block_solver_matches_dense_subspace(dense_calls):
    # lobpcg stops at a residual of EIGEN_TOL ||W||_inf, not at machine
    # precision; Davis-Kahan bounds how far that leaves the basis from the
    # top-k eigenspace: ||sin Theta||_F <= ||R||_F / (lambda_k - lambda_k+1)
    planted = generate(30, 6, outliers_per_image=2, coord_noise_sigma=0.01,
                       match_corruption_rate=0.2, seed=1)
    w = assemble_block(planted.instance.scores)
    u = top_eigenvectors(Contraction(w), 6, planted.instance.layout)
    assert not dense_calls  # m = 240 >= 5k and lobpcg converges: no dense solve
    assert np.allclose(u.T @ u, np.eye(6), atol=1e-8)
    ritz = np.diag(u.T @ (w @ u))
    residual = np.linalg.norm(w @ u - u * ritz)
    vals, vecs = _dense_eigh(w)
    gap = vals[-6] - vals[-7]
    sines = np.sin(scipy.linalg.subspace_angles(u, vecs[:, -6:]))
    assert 0.0 < residual <= multimatch.solver.EIGEN_TOL * abs(w).sum(axis=1).max() * math.sqrt(6)
    assert np.linalg.norm(sines) <= residual / gap
    assert np.array_equal(top_eigenvectors(Contraction(w), 6, planted.instance.layout), u)


@pytest.mark.parametrize(
    "n, u, outliers, corrupt, seed",
    [(4, 4, 1, 0.2, 2), (6, 5, 0, 0.5, 0)],  # m = 5k = 20 and m = 30 > 5k
)
def test_top_eigenvectors_dense_fallback_runs_without_warnings(monkeypatch, dense_calls, n, u, outliers, corrupt, seed):
    # with no lobpcg iteration allowed, the start block misses the tolerance
    # on both instances, and the dense solver takes over without a warning
    monkeypatch.setattr(multimatch.solver, "EIGEN_MAXITER", 0)
    planted = generate(n, u, outliers_per_image=outliers, coord_noise_sigma=0.02,
                       match_corruption_rate=corrupt, seed=seed)
    w = assemble_block(planted.instance.scores)
    m = w.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = top_eigenvectors(Contraction(w), u, planted.instance.layout)
        state = solve(planted.instance, SolverConfig(k=u))
    assert dense_calls == [(m, m), (m, m)]
    assert np.allclose(basis @ basis.T, _top_projector(w, u), atol=1e-8)
    assert state.converged
    state.labeling.validate()


def test_top_eigenvectors_starts_from_the_image_with_the_most_evidence(dense_calls):
    # image 0 matches no other image, so its columns are eigenvectors of
    # eigenvalue 1: a start block from them converges at once to that
    # subspace, far below the top eigenvalues, and passes the residual check
    planted = generate(30, 6, outliers_per_image=2, coord_noise_sigma=0.01,
                       match_corruption_rate=0.2, seed=1)
    layout = planted.instance.layout
    raw = planted.instance.scores.matrix.tocoo()
    image = layout.candidate_images()
    keep = ((image[raw.row] != 0) & (image[raw.col] != 0)) | (raw.row == raw.col)
    scores = PairwiseScores(sp.csr_matrix((raw.data[keep], (raw.row[keep], raw.col[keep])), shape=raw.shape), layout)
    instance = ProblemInstance(planted.instance.features, scores)
    w = assemble_block(scores)
    vals, vecs = _dense_eigh(w)
    assert vals[-6] > 10.0  # the top eigenvalues are far above image 0's eigenvalue 1
    u = top_eigenvectors(Contraction(w), 6, layout)
    assert not dense_calls
    assert np.cos(scipy.linalg.subspace_angles(u, vecs[:, -6:])).min() >= 0.999  # smallest principal cosine
    state = solve(instance, SolverConfig(k=6))
    assert not dense_calls

    def dense_basis(cycle, k, layout):
        return _dense_eigh(w)[1][:, -k:]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multimatch.solver, "top_eigenvectors", dense_basis)
        reference = solve(instance, SolverConfig(k=6))
    assert recall(state.labeling, planted.truth_labels) == recall(reference.labeling, planted.truth_labels)


def test_top_eigenvectors_block_solver_converges_under_heavy_corruption(monkeypatch):
    # the acceptance suite's criterion-3 instances: a small gap below the
    # k-th eigenvalue, where lobpcg needs more than its default 20 iterations
    def no_dense(a):
        raise AssertionError("dense fallback ran")

    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    for seed in range(20):
        planted = generate(10, 10, outliers_per_image=10, coord_noise_sigma=0.01,
                           match_corruption_rate=0.6, seed=seed)
        u = top_eigenvectors(Contraction(assemble_block(planted.instance.scores)), 10, planted.instance.layout)
        assert np.allclose(u.T @ u, np.eye(10), atol=1e-8)


def test_spectral_start_is_the_planted_labeling_on_consistent_scores():
    # consistent scores: W = X X^T plus the outliers' identity diagonal, so the
    # anchors are k candidates with distinct labels and U U_S^-1 is X up to a
    # column permutation
    planted = generate(12, 5, outliers_per_image=3, seed=4)
    w = assemble_block(planted.instance.scores)
    y0 = spectral_start(Contraction(w), 5, planted.instance.layout)
    truth = planted.ground_truth.stacked()
    perm = np.argmax(truth.T @ y0, axis=0)
    assert np.allclose(y0, truth[:, perm], atol=1e-8)


def test_solve_recovers_found_crowd_instance():
    # a check at crowd size (200 images, corruption 0.2): full recall and a
    # converged solve
    planted = generate(200, 8, outliers_per_image=4, coord_noise_sigma=0.01,
                       match_corruption_rate=0.2, seed=87422295002)
    state = solve(planted.instance, SolverConfig(k=8))
    assert recall(state.labeling, planted.truth_labels) == 1.0
    assert state.converged


def test_solve_same_seed_same_result():
    planted = generate(10, 5, outliers_per_image=2, coord_noise_sigma=0.02,
                       match_corruption_rate=0.3, seed=6)
    a = solve(planted.instance, SolverConfig(k=5, seed=3))
    b = solve(planted.instance, SolverConfig(k=5, seed=3))
    assert np.array_equal(a.y, b.y)
    assert a.objective_trace == b.objective_trace


def test_top_eigenvectors_returns_the_same_bytes_on_every_call(dense_calls):
    # the start block is chosen from w and the layout, with no random draw
    planted = generate(12, 6, outliers_per_image=3, coord_noise_sigma=0.02,
                       match_corruption_rate=0.3, seed=21)
    w = assemble_block(planted.instance.scores)
    assert w.shape[0] >= 5 * 6
    bases = [top_eigenvectors(Contraction(w), 6, planted.instance.layout) for _ in range(2)]
    assert not dense_calls
    assert bases[0].tobytes() == bases[1].tobytes()


def test_solver_seed_changes_nothing(dense_calls):
    # SolverConfig.seed is accepted and checked, but the solve draws nothing
    planted = generate(12, 6, outliers_per_image=3, coord_noise_sigma=0.02,
                       match_corruption_rate=0.3, seed=21)
    a, b = (solve(planted.instance, SolverConfig(k=6, seed=seed)) for seed in (0, 3))
    assert not dense_calls
    assert np.array_equal(a.labeling.index, b.labeling.index)
    assert a.y.tobytes() == b.y.tobytes()
    assert a.objective_trace == b.objective_trace


def test_solve_orders_labels_by_image_0s_candidates():
    planted = generate(10, 5, outliers_per_image=3, coord_noise_sigma=0.02,
                       match_corruption_rate=0.3, seed=6)
    state = solve(planted.instance, SolverConfig(k=5))
    assert (np.diff(state.labeling.index[0]) > 0).all()
    state.labeling.validate()
    # y, the measurements and the fit follow the labels' order: the coupling
    # of the returned y and labeling is the last record's, and the fit is
    # close to the measurements column by column
    last = state.objective_trace[-1]
    diff = state.y - state.labeling.stacked()
    assert 0.5 * float(last.stage.split("=")[1]) * (diff * diff).sum() == pytest.approx(last.coupling, rel=1e-9)
    m_tilde, z = state.measurement.m_tilde, state.measurement.z
    assert np.array_equal(m_tilde, assemble_measurements(state.labeling, [np.hstack(planted.instance.coordinates)]))
    assert np.linalg.norm(m_tilde - z) < 0.1 * np.linalg.norm(m_tilde)


def test_solve_reports_inner_step_cap(monkeypatch):
    monkeypatch.setattr(multimatch.solver, "MAX_INNER", 1)
    planted = generate(6, 5, outliers_per_image=2, coord_noise_sigma=0.02,
                       match_corruption_rate=0.3, seed=1)
    state = solve(planted.instance, SolverConfig(k=5))
    # one step binds the cap in every sweep: one message per stage counts them
    sweeps = {rec.stage: rec.iteration for rec in state.objective_trace if rec.stage != "init"}
    assert [m for m in state.warnings if m.startswith("max inner steps")] == [
        *(f"max inner steps (1) reached in {n} sweeps at {stage}" for stage, n in sweeps.items()),
    ]
    assert sweeps["rho=1"] > 1
    assert not state.converged


def test_solve_reports_projection_round_cap(monkeypatch):
    monkeypatch.setattr(multimatch.projection, "PROJECTION_MAX_ITER", 1)
    planted = generate(6, 5, outliers_per_image=2, coord_noise_sigma=0.02,
                       match_corruption_rate=0.3, seed=1)
    state = solve(planted.instance, SolverConfig(k=5))
    capped = [m for m in state.warnings if m.startswith("projection reached its 1-round cap in ")]
    assert len(capped) == 1 and int(capped[0].split()[-2]) > 0
    assert not state.converged


@pytest.mark.parametrize("seed", [5001, 61005])
def test_descriptor_solve_runs_without_stalls(seed):
    # descriptors instances on which a projection warm-started from the
    # previous call's row multipliers, without a first round from zero,
    # stalled the line search in the second sweep at rho=100, after the
    # rho=1 and rho=10 stages.  The continuation now stops after rho=1
    # on both, so the sweeps of the later stages run here by hand.
    instance, config = descriptor_instance(seed)
    state = solve(instance, config)
    assert state.warnings == []
    layout = instance.layout
    cycle = Contraction(assemble_block(instance.scores))
    points = normalize_coordinates(np.hstack(instance.coordinates), layout)[0]
    y, x = state.y, state.labeling
    z = update_Z(x, points, config.r)[0]
    for rho in (10.0, 100.0):
        for sweep in range(1, 4):
            y, _, stalled = update_Y(y, x.stacked(), cycle, rho, layout)
            assert not stalled, (rho, sweep)
            x = update_X(y, z, points, config.lam, rho, layout)
            z = update_Z(x, points, config.r)[0]


def test_continuation_stops_after_the_first_stage_that_keeps_x():
    # crowd-shaped: the rho=1 stage keeps the init selection, so the solve
    # ends there and matches a schedule cut to that one stage
    planted = generate(30, 8, outliers_per_image=4, coord_noise_sigma=0.01,
                       match_corruption_rate=0.2, seed=3)
    state = solve(planted.instance, SolverConfig(k=8))
    assert {rec.stage for rec in state.objective_trace} == {"init", "rho=1"}
    cut = solve(planted.instance, SolverConfig(k=8, rho_schedule=(1.0,)))
    assert np.array_equal(state.labeling.index, cut.labeling.index)
    assert np.array_equal(state.y, cut.y)
    assert state.objective_trace == cut.objective_trace


@pytest.mark.parametrize("seed, schedule", [(70000, (1.0, 10.0, 100.0)), (70001, (1.0, 10.0, 100.0)), (70000, (1.0,))])
def test_every_stage_but_the_last_changes_x(monkeypatch, seed, schedule):
    # on 70000 the rho=1 stage changes X and the rho=10 stage keeps it; on
    # 70001 the rho=1 stage keeps it; the one-stage schedule ends on a change
    instance, config = descriptor_instance(seed)
    config = SolverConfig(k=config.k, seed=config.seed, rho_schedule=schedule)
    real_initialize, real_update_X = multimatch.solver.initialize, multimatch.solver.update_X
    init, calls = [], []  # the init selection; (rho, selection) per X update

    def recording_initialize(*args):
        out = real_initialize(*args)
        init.append(out[1].index)
        return out

    def recording_update_X(y, z, points, lam, rho, layout):
        x = real_update_X(y, z, points, lam, rho, layout)
        calls.append((rho, x.index))
        return x

    monkeypatch.setattr(multimatch.solver, "initialize", recording_initialize)
    monkeypatch.setattr(multimatch.solver, "update_X", recording_update_X)
    state = solve(instance, config)
    rhos = list(dict.fromkeys(rho for rho, _ in calls))
    assert rhos == list(schedule[: len(rhos)])
    ends = [[x for rho, x in calls if rho == stage][-1] for stage in rhos]
    starts = init + ends[:-1]
    for start, end in zip(starts[:-1], ends[:-1]):
        assert not np.array_equal(start, end)
    assert np.array_equal(starts[-1], ends[-1]) or len(rhos) == len(schedule)
    assert np.array_equal(state.labeling.index, ends[-1][:, np.argsort(ends[-1][0])])  # in canonical label order
    assert {rec.stage for rec in state.objective_trace} == {"init", *(f"rho={rho:g}" for rho in rhos)}


def test_solve_reports_line_search_stalls(monkeypatch):
    real = multimatch.solver.update_Y

    def always_stalls(*args, **kwargs):
        y, history, _ = real(*args, **kwargs)
        return y, history, True

    monkeypatch.setattr(multimatch.solver, "update_Y", always_stalls)
    planted = generate(4, 4, outliers_per_image=1, seed=5)
    state = solve(planted.instance, SolverConfig(k=4, rho_schedule=(1.0,)))
    # the stage's stalled sweeps are one message with their count
    sweeps = state.objective_trace[-1].iteration
    assert state.warnings == [f"line search stalled in {sweeps} sweeps at rho=1"]


def test_solve_recovers_noiseless_planted():
    planted = generate(6, 5, outliers_per_image=4, seed=7)
    state = solve(planted.instance, SolverConfig(k=5, seed=7))
    assert recall(state.labeling, planted.truth_labels) == 1.0
    assert state.converged
    state.labeling.validate()


def test_solve_trace_monotone_within_stages():
    planted = generate(4, 4, outliers_per_image=2, coord_noise_sigma=0.02,
                       match_corruption_rate=0.3, seed=11)
    state = solve(planted.instance, SolverConfig(k=4, seed=11))
    by_stage = {}
    for rec in state.objective_trace:
        by_stage.setdefault(rec.stage, []).append(rec.total)
    for stage, vals in by_stage.items():
        assert (np.diff(vals) <= 1e-9).all(), stage


def test_solve_trace_totals_are_component_sums(monkeypatch):
    planted = generate(5, 4, outliers_per_image=2, coord_noise_sigma=0.02,
                       match_corruption_rate=0.2, seed=4)
    scored = []
    components = multimatch.solver.objective_components
    monkeypatch.setattr(multimatch.solver, "objective_components",
                        lambda cycle, y, *rest: scored.append(y.copy()) or components(cycle, y, *rest))
    state = solve(planted.instance, SolverConfig(k=4, seed=4))
    for rec in state.objective_trace:
        assert rec.total == rec.cycle + rec.geo + rec.coupling
    # one call per stage record, the last one scoring the y of the last record
    assert len(scored) == sum(rec.stage != "init" for rec in state.objective_trace)
    last = scored[-1]
    # solve returns that y with its columns in image 0's candidate order, bit for bit
    assert sorted(col.tobytes() for col in last.T) == sorted(col.tobytes() for col in state.y.T)
    w = assemble_block(planted.instance.scores)
    assert state.objective_trace[-1].cycle == Contraction(w).value(last)


def test_solve_with_huge_rho_matches_initialize_then_discretize():
    planted = generate(4, 4, outliers_per_image=2, seed=3)
    w = assemble_block(planted.instance.scores)
    cfg = SolverConfig(k=4, lam=0.0, rho_schedule=(1e6,), seed=3)
    _, x_init = initialize(Contraction(w), cfg, planted.instance.layout)
    state = solve(planted.instance, cfg)
    for a, b in zip(state.labeling.assignments, x_init.assignments):
        assert np.array_equal(a, b)


def test_solve_reports_pixel_frame_measurements():
    planted = generate(5, 5, outliers_per_image=3, seed=2)
    state = solve(planted.instance, SolverConfig(k=5, seed=2))
    expected = assemble_measurements(state.labeling, planted.instance.coordinates)
    assert np.allclose(state.measurement.m_tilde, expected)
    # noiseless rigid scene: the reported fit matches the measurements
    assert np.allclose(state.measurement.z, expected, atol=1e-6)


def _rank_r_fit(blocks, coords, r):
    """Measurements of a labeling, stacked by hand, and their rank-r fit by numpy's SVD."""
    m = np.vstack([c @ b for b, c in zip(blocks, coords)])
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vt[:r]


def test_selection_objective_matches_naive_oracles(rng):
    planted = generate(3, 3, outliers_per_image=1, seed=5)
    w = assemble_block(planted.instance.scores).toarray()
    layout = planted.instance.layout
    points = normalize_coordinates(np.hstack(planted.instance.coordinates), layout)[0]
    coords = np.split(points, layout.offsets[1:], axis=1)
    for lam, r in [(1.0, 2), (0.3, 1), (0.0, 1)]:
        lab = random_labeling(rng, layout.sizes, 3)
        blocks = lab.assignments
        expected = naive_cycle_objective(w, lab.stacked())
        expected += lam * naive_geo_objective(blocks, _rank_r_fit(blocks, coords, r), coords)
        val = selection_objective(Contraction(w), lab, points, lam=lam, r=r)
        assert val == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_last_trace_record_matches_naive_oracles_at_the_final_state():
    planted = generate(4, 4, outliers_per_image=2, coord_noise_sigma=0.05,
                       match_corruption_rate=0.3, seed=8)
    config = SolverConfig(k=4, r=2, lam=0.5, seed=8)
    state = solve(planted.instance, config)
    w = assemble_block(planted.instance.scores).toarray()
    layout = planted.instance.layout
    points, scale, center = normalize_coordinates(np.hstack(planted.instance.coordinates), layout)
    coords = np.split(points, layout.offsets[1:], axis=1)
    blocks = state.labeling.assignments
    z = _rank_r_fit(blocks, coords, config.r)
    assert np.allclose(denormalize_fit(z, scale, center), state.measurement.z, atol=1e-9)
    last = state.objective_trace[-1]
    # the continuation may stop before the schedule's end: the last stage that ran sets rho
    rho = {f"rho={r:g}": r for r in config.rho_schedule}[last.stage]
    diff = state.y - state.labeling.stacked()
    expected = (
        naive_cycle_objective(w, state.y),
        config.lam * naive_geo_objective(blocks, z, coords),
        0.5 * rho * float((diff * diff).sum()),
    )
    assert (last.cycle, last.geo, last.coupling) == pytest.approx(expected, rel=1e-9, abs=1e-12)
    assert last.total == pytest.approx(sum(expected), rel=1e-9, abs=1e-12)