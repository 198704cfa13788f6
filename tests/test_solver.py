import warnings

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import multimatch.solver

from multimatch import (
    SelectionLabeling,
    SolverConfig,
    assemble_block,
    assemble_measurements,
    discretize,
    feasibility_gap,
    initialize,
    normalize_coordinates,
    objective_components,
    objective_cycle,
    objective_geo,
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
    assert objective_cycle(w, y) == pytest.approx(0.0, abs=1e-12)


def test_objective_cycle_identity_at_zero():
    w = np.eye(3)
    y = np.zeros((3, 2))
    assert objective_cycle(w, y) == pytest.approx(0.75)


def test_objective_cycle_matches_naive_loop(rng):
    for _ in range(10):
        w = rng.random((4, 4))
        w = 0.5 * (w + w.T)
        y = rng.random((4, 2))
        assert objective_cycle(w, y) == pytest.approx(
            naive_cycle_objective(w, y), rel=1e-9, abs=1e-12
        )


def test_objective_cycle_accepts_sparse(rng):
    import scipy.sparse as sp

    w = rng.random((5, 5))
    w = 0.5 * (w + w.T)
    y = rng.random((5, 2))
    dense = objective_cycle(w, y)
    sparse = objective_cycle(sp.csr_matrix(w), y)
    assert sparse == pytest.approx(dense, rel=1e-12)


def test_objective_geo_zero_at_exact_fit(rng):
    coords = [rng.random((2, 4)), rng.random((2, 5))]
    lab = random_labeling(rng, [4, 5], 3)
    m_tilde = assemble_measurements(lab, coords)
    assert objective_geo(lab, m_tilde, coords) == 0.0


def test_assemble_measurements_matches_per_image_slices(rng):
    sizes = (3, 5, 5, 4, 3)
    coords = [rng.random((2, p)) for p in sizes]
    lab = random_labeling(rng, sizes, 3)
    expected = np.vstack([c[:, index] for index, c in zip(lab.index, coords)])
    assert np.array_equal(assemble_measurements(lab, coords), expected)
    one = SelectionLabeling(lab.index[:1], sizes[:1])
    assert np.array_equal(assemble_measurements(one, coords[:1]), expected[:2])


def test_objective_geo_single_point():
    coords = [np.array([[3.0], [4.0]])]
    lab = SelectionLabeling([[0]], (1,))
    z = np.zeros((2, 1))
    assert objective_geo(lab, z, coords) == pytest.approx(12.5)


def test_objective_geo_matches_naive_loop(rng):
    coords = [rng.random((2, 4)), rng.random((2, 3))]
    lab = random_labeling(rng, [4, 3], 2)
    z = rng.random((4, 2))
    expected = naive_geo_objective([b for b in lab.assignments], z, coords)
    assert objective_geo(lab, z, coords) == pytest.approx(expected, rel=1e-12)


def test_objective_total_zero_for_consistent_state(rng):
    lab = random_labeling(rng, [3, 3], 2)
    xs = lab.stacked()
    w = xs @ xs.T
    coords = [rng.random((2, 3)), rng.random((2, 3))]
    m_tilde = assemble_measurements(lab, coords)
    parts = objective_components(w, xs, lab, m_tilde, coords, lam=1.0, rho=5.0)
    assert sum(parts) == pytest.approx(0.0, abs=1e-12)


def test_objective_total_decomposes(rng):
    lab = random_labeling(rng, [4, 4], 2)
    y = random_feasible_y(rng, (4, 4), 2)
    w = rng.random((8, 8))
    w = 0.5 * (w + w.T)
    coords = [rng.random((2, 4)), rng.random((2, 4))]
    z = rng.random((4, 2))
    lam, rho = 0.7, 3.0
    cycle, geo, coupling = objective_components(w, y, lab, z, coords, lam, rho)
    assert cycle == pytest.approx(naive_cycle_objective(w, y), rel=1e-9)
    assert geo == pytest.approx(lam * naive_geo_objective(lab.assignments, z, coords), rel=1e-9)
    assert coupling == pytest.approx(0.5 * rho * ((lab.stacked() - y) ** 2).sum(), rel=1e-9)
    assert objective_components(w, y, lab, z, coords, lam, 0.0) == (cycle, geo, 0.0)
    assert objective_components(w, y, lab, z, coords, 0.0, rho) == (cycle, 0.0, coupling)


def gradient_fd(w, y, h=1e-5):
    """Central finite differences of the cycle term in y."""
    g = np.zeros_like(y)
    for a in range(y.shape[0]):
        for b in range(y.shape[1]):
            e = np.zeros_like(y)
            e[a, b] = h
            g[a, b] = (objective_cycle(w, y + e) - objective_cycle(w, y - e)) / (2 * h)
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
    out, hist, stalled = update_Y(y, np.zeros_like(y), w, 0.0, (3, 3))
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
    out, _, _ = update_Y(y, np.zeros_like(y), w, 0.0, (3,))
    assert np.allclose(out, y - eta * grad, atol=1e-8)


def test_update_y_matches_grid_search_on_tiny_instance(rng, monkeypatch):
    # two images, two candidates each, one label: C is a product of two
    # 1-simplices, so exhaustive grid search over (y1, y3) is an oracle
    lab = SelectionLabeling([[0], [1]], (2, 2))
    xs = lab.stacked()
    w = xs @ xs.T
    y0 = project_onto_C(np.full((4, 1), 0.4), (2, 2))

    def objective(yv):
        return objective_cycle(w, yv.reshape(4, 1))

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
    out, _, _ = update_Y(y0, np.zeros((4, 1)), w, 0.0, (2, 2))
    assert objective_cycle(w, out) <= best_val + 1e-3


def test_update_y_objective_history_monotone(rng):
    sizes = (4, 4, 4)
    y = random_feasible_y(rng, sizes, 2)
    x = random_labeling(rng, sizes, 2).stacked()
    w = rng.random((12, 12))
    w = 0.5 * (w + w.T)
    _, hist, _ = update_Y(y, x, w, 2.0, sizes)
    diffs = np.diff(hist)
    assert (diffs <= 1e-9).all()


def test_update_y_stays_feasible(rng):
    sizes = (5, 3)
    y = random_feasible_y(rng, sizes, 2)
    x = random_labeling(rng, sizes, 2).stacked()
    w = rng.random((8, 8))
    w = 0.5 * (w + w.T)
    out, _, _ = update_Y(y, x, w, 1.0, sizes)
    assert feasibility_gap(out, sizes) <= 1e-5


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
    y1 = project_onto_C(y0 - eta0 * grad(y0), sizes)
    s, dg = y1 - y0, grad(y1) - grad(y0)
    eta = (s * s).sum() / (s * dg).sum()
    assert eta0 < eta < 1e3 * eta0  # inside the clamp: the quotient itself is the trial
    monkeypatch.setattr(multimatch.solver, "INNER_TOL", 0.0)
    monkeypatch.setattr(multimatch.solver, "MAX_INNER", 2)
    out, hist, stalled = update_Y(y0, x, w, rho, sizes)
    assert len(hist) == 3 and not stalled
    assert np.allclose(out, project_onto_C(y1 - eta * grad(y1), sizes), atol=1e-12)


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


def test_initialize_on_a_sparse_image_graph_takes_spectral_steps(monkeypatch):
    # 40 images, keeping only the pairs of a random graph of mean degree 4:
    # the bound step is short on such a W, and the spectral trial lengthens it
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
    config = SolverConfig(k=5, seed=0)
    _, _, hist = initialize(w, config, sizes)
    assert (np.diff(hist) <= 0.0).all()
    # a cap of 1 pins every first trial to the bound step
    monkeypatch.setattr(multimatch.solver, "SPECTRAL_CAP", 1.0)
    _, _, bound_hist = initialize(w, config, sizes)
    assert len(hist) - 1 <= 10 < len(bound_hist) - 1


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
    _, hist, _ = update_Y(y, x, w, rho, sizes)
    assert (np.diff(hist) <= 1e-12 * max(1.0, abs(hist[0]))).all()


class ProductCounting(np.ndarray):
    """A dense score matrix that counts the products taken with it."""

    products = 0

    def __matmul__(self, other):
        ProductCounting.products += 1
        return np.asarray(self) @ other


@pytest.mark.parametrize("rho", [0.0, 3.0])
def test_update_y_with_carried_contraction_matches_fresh(monkeypatch, rho):
    planted = generate(5, 4, outliers_per_image=1, match_corruption_rate=0.3, seed=9)
    w = assemble_block(planted.instance.scores).toarray().view(ProductCounting)
    sizes = planted.instance.layout.sizes
    rng = np.random.default_rng(9)
    y0 = random_feasible_y(rng, sizes, 4)
    x = random_labeling(rng, sizes, 4).stacked()
    contraction = Contraction(w)
    with monkeypatch.context() as patch:
        patch.setattr(multimatch.solver, "MAX_INNER", 2)
        y1, _, stalled = update_Y(y0, x, contraction, rho, sizes)
    assert not stalled
    start = ProductCounting.products
    carried = update_Y(y1, x, contraction, rho, sizes)
    reused = ProductCounting.products - start
    fresh = update_Y(y1, x, w, rho, sizes)
    # the carried call starts from the evaluation the previous call left
    assert reused == ProductCounting.products - start - reused - 1
    assert np.array_equal(carried[0], fresh[0])
    assert carried[1:] == fresh[1:]
    assert contraction.value(carried[0]) == objective_cycle(w, carried[0])


@pytest.mark.parametrize("sparse", [False, True])
def test_functions_taking_w_accept_its_contraction(sparse):
    planted = generate(4, 4, outliers_per_image=2, coord_noise_sigma=0.02,
                       match_corruption_rate=0.3, seed=12)
    w = assemble_block(planted.instance.scores)
    w = w if sparse else w.toarray()
    sizes = planted.instance.layout.sizes
    config = SolverConfig(k=4, seed=12)
    rng = np.random.default_rng(12)
    y = random_feasible_y(rng, sizes, 4)
    lab = random_labeling(rng, sizes, 4)
    coords, _ = normalize_coordinates(planted.instance.coordinates)
    z = update_Z(lab, coords, 2)
    a, b = update_Y(y, lab.stacked(), w, 3.0, sizes), update_Y(y, lab.stacked(), Contraction(w), 3.0, sizes)
    assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]
    a, b = initialize(w, config, sizes), initialize(Contraction(w), config, sizes)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1].index, b[1].index) and a[2] == b[2]
    c = Contraction(w)
    assert objective_cycle(c, y) == objective_cycle(w, y)
    parts = objective_components(w, y, lab, z, coords, 0.7, 3.0)
    assert objective_components(c, y, lab, z, coords, 0.7, 3.0) == parts


def test_update_x_reduces_to_discretize_without_geometry(rng):
    sizes = (4, 3)
    y = random_feasible_y(rng, sizes, 2)
    coords = [rng.random((2, 4)), rng.random((2, 3))]
    z = rng.random((4, 2))
    lab = update_X(y, z, coords, lam=0.0, rho=1.0)
    blocks = [y[:4], y[4:]]
    for got, yb in zip(lab.index, blocks):
        assert np.array_equal(got, discretize(yb))


def test_update_x_zero_distance_optimum(rng):
    coords = [rng.random((2, 5))]
    pick = [3, 0]
    z = coords[0][:, pick]
    lab = update_X(np.zeros((5, 2)), z, coords, lam=1.0, rho=0.0)
    assert lab.assignments[0][pick, [0, 1]].tolist() == [1, 1]
    assert objective_geo(lab, z, coords) == pytest.approx(0.0, abs=1e-16)


def test_update_x_matches_enumeration(rng):
    for _ in range(10):
        coords = [rng.random((2, 3))]
        z = rng.random((2, 2))
        y = random_feasible_y(rng, (3,), 2)
        lam, rho = 1.0, 1.0
        lab = update_X(y, z, coords, lam, rho)
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
    lab = update_X(y, z, coords, lam, rho)
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
    lab = update_X(y, z, coords, 1.0, 1.5)
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
    z = update_Z(lab, coords, r=4)  # 4 >= min(2n, k) = 3
    assert np.allclose(z, assemble_measurements(lab, coords), atol=1e-9)


def test_update_z_zero_matrix():
    lab = SelectionLabeling([[0, 1]] * 2, (2, 2))
    coords = [np.zeros((2, 2)), np.zeros((2, 2))]
    assert np.array_equal(update_Z(lab, coords, 1), np.zeros((4, 2)))


def test_update_z_tail_energy_identity(rng):
    # residual energy equals the sum of squared discarded singular values,
    # cross-checked through the eigendecomposition of M^T M
    m = rng.normal(size=(8, 5))
    coords = [m[2 * i : 2 * i + 2] for i in range(4)]
    z = update_Z(SelectionLabeling([np.arange(5)] * 4, (5,) * 4), coords, r=4)
    eigvals = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
    expected_tail = eigvals[4:].sum()
    assert ((m - z) ** 2).sum() == pytest.approx(expected_tail, rel=1e-9, abs=1e-12)
    s = np.linalg.svd(z, compute_uv=False)
    assert s[4] <= 1e-8 * max(s[0], 1e-300)


def test_normalize_coordinates_roundtrip(rng):
    coords = [rng.uniform(-40, 90, size=(2, 6)) for _ in range(3)]
    normed, transforms = normalize_coordinates(coords)
    for c in normed:
        assert np.allclose(c.mean(axis=1), 0.0, atol=1e-12)
        assert np.linalg.norm(c, axis=0).mean() == pytest.approx(np.sqrt(2.0))
    # de-normalizing the normalized block stack recovers the originals
    stacked = np.vstack([c[:, :4] for c in normed])
    back = denormalize_fit(stacked, transforms)
    for i, c in enumerate(coords):
        assert np.allclose(back[2 * i : 2 * i + 2], c[:, :4])


def test_initialize_recovers_planted_labeling():
    hits = 0
    for seed in range(20):
        planted = generate(6, 5, outliers_per_image=0, seed=seed)
        w = assemble_block(planted.instance.scores)
        cfg = SolverConfig(k=5, seed=seed)
        _, x, hist = initialize(w, cfg, planted.instance.layout.sizes)
        assert (np.diff(hist) <= 1e-9).all()
        hits += recall(x, planted.truth_labels) == 1.0
    assert hits == 20


def test_initialize_single_image_degenerate():
    from multimatch import FeatureSet, PairwiseScores, validate_instance

    feats = [FeatureSet("solo", np.random.default_rng(0).random((2, 4)))]
    inst = validate_instance(feats, PairwiseScores(sp.csr_matrix((4, 4)), (4,)), SolverConfig(k=2))
    w = assemble_block(inst.scores)
    y, x, hist = initialize(w, SolverConfig(k=2), (4,))
    assert feasibility_gap(y, (4,)) <= 1e-5
    assert (np.diff(hist) <= 1e-9).all()
    x.validate()


def test_initialize_all_ones_blocks_monotone_and_feasible(rng):
    from multimatch import FeatureSet, validate_instance

    feats = [FeatureSet(f"i{t}", rng.random((2, 3))) for t in range(3)]
    blocks = {(i, j): np.ones((3, 3)) for i in range(3) for j in range(i + 1, 3)}
    inst = validate_instance(feats, scores_from_blocks(blocks, (3, 3, 3)), SolverConfig(k=2))
    w = assemble_block(inst.scores)
    y, x, hist = initialize(w, SolverConfig(k=2), (3, 3, 3))
    assert (np.diff(hist) <= 1e-9).all()
    assert feasibility_gap(y, (3, 3, 3)) <= 1e-5
    x.validate()


def _top_projector(w, k):
    vecs = scipy.linalg.eigh(w.toarray())[1][:, -k:]
    return vecs @ vecs.T


@pytest.fixture
def dense_calls(monkeypatch):
    """Shapes passed to np.linalg.eigh, the spectral start's dense path."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    return calls


def test_top_eigenvectors_block_solver_matches_dense_subspace(dense_calls):
    planted = generate(30, 6, outliers_per_image=2, coord_noise_sigma=0.01,
                       match_corruption_rate=0.2, seed=1)
    w = assemble_block(planted.instance.scores)
    u = top_eigenvectors(w, 6, seed=0)
    assert not dense_calls  # m = 240 >= 5k and lobpcg converges: no dense solve
    assert np.allclose(u.T @ u, np.eye(6), atol=1e-8)
    assert np.allclose(u @ u.T, _top_projector(w, 6), atol=1e-6)
    assert np.array_equal(top_eigenvectors(w, 6, seed=0), u)


@pytest.mark.parametrize(
    "n, u, outliers, corrupt, seed",
    [(4, 4, 1, 0.2, 2), (6, 5, 0, 0.5, 0)],  # m = 5k = 20 and m = 30 > 5k
)
def test_top_eigenvectors_dense_fallback_runs_without_warnings(dense_calls, n, u, outliers, corrupt, seed):
    # a bare lobpcg warns on both instances and misses its tolerance
    planted = generate(n, u, outliers_per_image=outliers, coord_noise_sigma=0.02,
                       match_corruption_rate=corrupt, seed=seed)
    w = assemble_block(planted.instance.scores)
    m = w.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = top_eigenvectors(w, u, seed=0)
        state = solve(planted.instance, SolverConfig(k=u))
    assert dense_calls == [(m, m), (m, m)]
    assert np.allclose(basis @ basis.T, _top_projector(w, u), atol=1e-8)
    assert state.converged
    state.labeling.validate()


def test_top_eigenvectors_block_solver_converges_under_heavy_corruption(monkeypatch):
    # the acceptance suite's criterion-3 instances: a small gap below the
    # k-th eigenvalue, where lobpcg needs more than its default 20 iterations
    def no_dense(a):
        raise AssertionError("dense fallback ran")

    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    for seed in range(20):
        planted = generate(10, 10, outliers_per_image=10, coord_noise_sigma=0.01,
                           match_corruption_rate=0.6, seed=seed)
        u = top_eigenvectors(assemble_block(planted.instance.scores), 10, seed)
        assert np.allclose(u.T @ u, np.eye(10), atol=1e-8)


def test_spectral_start_is_the_planted_labeling_on_consistent_scores():
    # consistent scores: W = X X^T plus the outliers' identity diagonal, so the
    # anchors are k candidates with distinct labels and U U_S^-1 is X up to a
    # column permutation
    planted = generate(12, 5, outliers_per_image=3, seed=4)
    w = assemble_block(planted.instance.scores)
    y0 = spectral_start(w, 5, 0, planted.instance.layout.sizes)
    truth = planted.ground_truth.stacked()
    perm = np.argmax(truth.T @ y0, axis=0)
    assert np.allclose(y0, truth[:, perm], atol=1e-8)


def test_solve_recovers_found_crowd_instance():
    # a crowd-shaped instance with a local minimum one whole label wrong
    # (recall 0.875) that a near-uniform start settles in
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


def test_solve_reports_init_step_cap(monkeypatch):
    monkeypatch.setattr(multimatch.solver, "MAX_INNER", 1)
    planted = generate(6, 5, outliers_per_image=2, coord_noise_sigma=0.02,
                       match_corruption_rate=0.3, seed=1)
    state = solve(planted.instance, SolverConfig(k=5))
    # one step binds the cap in every sweep: one message per stage counts them
    sweeps = {rec.stage: rec.iteration for rec in state.objective_trace if rec.stage != "init"}
    assert [m for m in state.warnings if m.startswith("max inner steps")] == [
        "max inner steps (1) reached at init",
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
    # stalled the line search at rho=100
    instance, config = descriptor_instance(seed)
    assert solve(instance, config).warnings == []


def test_solve_reports_line_search_stalls(monkeypatch):
    real = multimatch.solver.update_Y

    def always_stalls(*args, **kwargs):
        y, history, _ = real(*args, **kwargs)
        return y, history, True

    monkeypatch.setattr(multimatch.solver, "update_Y", always_stalls)
    planted = generate(4, 4, outliers_per_image=1, seed=5)
    state = solve(planted.instance, SolverConfig(k=4, rho_schedule=(1.0,)))
    assert state.warnings[:2] == ["line search stalled at init", "line search stalled at rho=1 sweep 1"]


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


def test_solve_trace_totals_are_component_sums():
    planted = generate(5, 4, outliers_per_image=2, coord_noise_sigma=0.02,
                       match_corruption_rate=0.2, seed=4)
    state = solve(planted.instance, SolverConfig(k=4, seed=4))
    for rec in state.objective_trace:
        assert rec.total == rec.cycle + rec.geo + rec.coupling
    w = assemble_block(planted.instance.scores)
    assert state.objective_trace[-1].cycle == objective_cycle(w, state.y)


def test_solve_with_huge_rho_matches_initialize_then_discretize():
    planted = generate(4, 4, outliers_per_image=2, seed=3)
    w = assemble_block(planted.instance.scores)
    cfg = SolverConfig(k=4, lam=0.0, rho_schedule=(1e6,), seed=3)
    _, x_init, _ = initialize(w, cfg, planted.instance.layout.sizes)
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


def test_selection_objective_matches_components(rng):
    planted = generate(3, 3, outliers_per_image=1, seed=5)
    w = assemble_block(planted.instance.scores).toarray()
    coords, _ = normalize_coordinates(planted.instance.coordinates)
    lab = random_labeling(rng, [f.p for f in planted.instance.features], 2)
    val = selection_objective(w, lab, coords, lam=1.0, r=2)
    m_tilde = assemble_measurements(lab, coords)
    z = update_Z(lab, coords, 2)
    expected = objective_cycle(w, lab.stacked()) + objective_geo(lab, z, coords)
    assert val == pytest.approx(expected, rel=1e-9, abs=1e-12)
