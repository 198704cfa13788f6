import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from multimatch import DimensionMismatch, InfeasibleK, NonFiniteEntry, discretize, solve_lap
from multimatch.assignment import _duals, _primal
from conftest import enumerate_lap

# square and rectangular shapes small enough to enumerate
TIE_SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 1), (4, 2), (5, 3), (6, 4), (7, 3), (7, 4)]


def test_zero_diagonal_two_by_two():
    res = solve_lap(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert res.column_to_row.tolist() == [0, 1]
    assert res.total_cost == 0.0


def test_rectangular_example_matches_enumeration():
    cost = np.array([[1.0, 2.0], [0.0, 5.0], [2.0, 0.0]])
    res = solve_lap(cost)
    rows, total = enumerate_lap(cost)
    assert res.column_to_row.tolist() == rows.tolist() == [1, 2]
    assert res.total_cost == total == 0.0


def test_all_zero_ties_break_lexicographically():
    res = solve_lap(np.zeros((4, 2)))
    assert res.column_to_row.tolist() == [0, 1]
    assert res.total_cost == 0.0


def test_uniform_cost_ties_break_lexicographically():
    res = solve_lap(np.full((5, 3), 0.37))
    assert res.column_to_row.tolist() == [0, 1, 2]


def test_infeasible_and_non_finite_inputs():
    with pytest.raises(InfeasibleK):
        solve_lap(np.zeros((2, 3)))
    with pytest.raises(NonFiniteEntry):
        solve_lap(np.array([[0.0, np.inf], [1.0, 2.0]]))


def test_matches_enumeration_on_random_matrices(rng):
    for _ in range(300):
        p = int(rng.integers(1, 7))
        k = int(rng.integers(1, min(p, 4) + 1))
        cost = rng.uniform(-5, 5, size=(p, k))
        res = solve_lap(cost)
        rows, total = enumerate_lap(cost)
        assert res.column_to_row.tolist() == rows.tolist()
        assert res.total_cost == total


def test_matches_enumeration_on_integer_ties(rng):
    for p, k in TIE_SHAPES:
        for _ in range(40):
            cost = rng.integers(0, 3, size=(p, k)).astype(float)
            res = solve_lap(cost)
            rows, total = enumerate_lap(cost)
            assert res.column_to_row.tolist() == rows.tolist()
            assert res.total_cost == total


def test_matches_enumeration_on_rounded_ties(rng):
    # sums of one-decimal costs tie only up to rounding, so the oracle
    # takes the same tolerance as the solver
    for p, k in TIE_SHAPES:
        for _ in range(40):
            cost = np.round(rng.random((p, k)), 1)
            res = solve_lap(cost)
            rows, total = enumerate_lap(cost, tol=1e-9)
            assert res.column_to_row.tolist() == rows.tolist()
            assert res.total_cost == total


def _certificates(costs):
    """Primal, duals, reduced costs and matched rows of every matrix of a (b, p, k) stack."""
    rows = np.array([_primal(c) for c in costs], dtype=np.intp).reshape(costs.shape[0], -1)
    u, v = _duals(costs, rows)
    reduced = costs - u[:, :, None] - v[:, None, :]
    matched = np.zeros(costs.shape[:2], dtype=bool)
    matched[np.arange(costs.shape[0])[:, None], rows] = True
    return rows, u, reduced, matched


def _certificate(cost):
    rows, u, reduced, matched = _certificates(cost[None])
    return rows[0], u[0], reduced[0], matched[0]


def _random_costs(rng, kind, shape):
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "integers":
        return rng.integers(0, 3, size=shape).astype(float)
    return np.round(rng.random(shape), 1)


@pytest.mark.parametrize("shape", [(5, 5), (7, 4), (12, 8), (13, 12), (13, 13), (40, 20)])
@pytest.mark.parametrize("kind", ["normal", "integers", "rounded"])
def test_recovered_duals_certify_optimality(rng, shape, kind):
    # one batched dual recovery over 30 matrices, certified matrix by matrix
    p, k = shape
    costs = _random_costs(rng, kind, (30, p, k))
    for cost, rows, u, reduced, matched in zip(costs, *_certificates(costs)):
        assert reduced.min() >= -1e-9
        assert np.abs(reduced[rows, np.arange(k)]).max() <= 1e-9
        assert (u[~matched] == 0.0).all()
        assert (u[matched] <= 1e-9).all()


def test_batched_duals_equal_duals_of_each_matrix(rng):
    for shape in [(20, 12, 8), (20, 13, 13), (20, 3, 1)]:
        for kind in ["normal", "integers", "rounded"]:
            costs = _random_costs(rng, kind, shape)
            rows, u, reduced, _ = _certificates(costs)
            for t, cost in enumerate(costs):
                rows_t, u_t, reduced_t, _ = _certificate(cost)
                assert np.array_equal(rows[t], rows_t)
                assert np.array_equal(u[t], u_t) and np.array_equal(reduced[t], reduced_t)


def test_recovered_duals_leave_no_zero_off_the_optimum_on_generic_costs(rng):
    # a unique optimum admits duals with a positive reduced cost on every
    # other entry; with those the tie-break pass has nothing to verify
    for p, k in [(5, 5), (12, 8), (13, 12), (13, 13), (40, 20)]:
        for _ in range(30):
            cost = rng.normal(size=(p, k))
            rows, _, reduced, _ = _certificate(cost)
            reduced[rows, np.arange(k)] = np.inf
            assert reduced.min() > 1e-9


def test_agrees_with_scipy_on_total_cost(rng):
    for _ in range(100):
        p = int(rng.integers(2, 12))
        k = int(rng.integers(1, p + 1))
        cost = rng.normal(size=(p, k))
        res = solve_lap(cost)
        ri, ci = linear_sum_assignment(cost)
        assert res.total_cost == pytest.approx(cost[ri, ci].sum(), abs=1e-9)


def test_total_cost_equals_sum_of_chosen_entries(rng):
    cost = rng.random((6, 4))
    res = solve_lap(cost)
    chosen = cost[res.column_to_row, np.arange(4)].sum()
    assert abs(res.total_cost - chosen) <= 1e-9
    assert len(set(res.column_to_row.tolist())) == 4


def test_column_shift_invariance(rng):
    for _ in range(30):
        cost = rng.normal(size=(6, 3))
        res = solve_lap(cost)
        c = float(rng.normal())
        col = int(rng.integers(3))
        shifted = cost.copy()
        shifted[:, col] += c
        res2 = solve_lap(shifted)
        assert res2.column_to_row.tolist() == res.column_to_row.tolist()
        assert res2.total_cost == pytest.approx(res.total_cost + c, abs=1e-9)


def test_row_shift_invariance_square(rng):
    # row shifts preserve the optimum only when every row is matched
    for _ in range(30):
        cost = rng.normal(size=(4, 4))
        res = solve_lap(cost)
        c = float(rng.normal())
        row = int(rng.integers(4))
        shifted = cost.copy()
        shifted[row] += c
        res2 = solve_lap(shifted)
        assert res2.column_to_row.tolist() == res.column_to_row.tolist()
        assert res2.total_cost == pytest.approx(res.total_cost + c, abs=1e-9)


@pytest.mark.parametrize("shape", [(6, 6), (3, 3), (9, 4), (6, 2), (5, 1)])
@pytest.mark.parametrize("kind", ["normal", "integers", "rounded"])
def test_stack_matches_per_matrix_solves(rng, shape, kind):
    costs = _random_costs(rng, kind, (40,) + shape)
    res = solve_lap(costs)
    assert res.column_to_row.shape == (40, shape[1]) and res.total_cost.shape == (40,)
    for cost, rows, total in zip(costs, res.column_to_row, res.total_cost):
        single = solve_lap(cost)
        assert np.array_equal(rows, single.column_to_row)
        assert total == single.total_cost
    if shape[0] <= 6:  # small enough to enumerate
        tol = 1e-9 if kind == "rounded" else 0.0
        for cost, rows in zip(costs, res.column_to_row):
            assert np.array_equal(rows, enumerate_lap(cost, tol=tol)[0])


def test_empty_stacks_and_zero_columns():
    res = solve_lap(np.zeros((0, 4, 3)))
    assert res.column_to_row.shape == (0, 3) and res.total_cost.shape == (0,)
    res = solve_lap(np.zeros((3, 4, 0)))
    assert res.column_to_row.shape == (3, 0) and res.total_cost.tolist() == [0.0, 0.0, 0.0]
    res = solve_lap(np.zeros((4, 0)))
    assert res.column_to_row.shape == (0,) and res.total_cost == 0.0
    assert discretize(np.zeros((0, 4, 3))).shape == (0, 3)


def test_stack_with_one_bad_member_raises(rng):
    costs = rng.normal(size=(5, 4, 3))
    for bad in (np.nan, np.inf, -np.inf):
        broken = costs.copy()
        broken[3, 2, 1] = bad
        with pytest.raises(NonFiniteEntry):
            solve_lap(broken)
    with pytest.raises(InfeasibleK):
        solve_lap(np.zeros((5, 2, 3)))
    for shape in [(3,), (2, 3, 3, 2)]:
        with pytest.raises(DimensionMismatch):
            solve_lap(np.zeros(shape))


def test_discretize_stack_matches_each_block(rng):
    y = rng.random((25, 7, 5))
    rows = discretize(y)
    assert rows.shape == (25, 5)
    for block, got in zip(y, rows):
        assert np.array_equal(got, discretize(block))


def test_discretize_preserves_binary_optimum():
    x = np.array([[1, 0], [0, 0], [0, 1]], dtype=float)
    assert discretize(x).tolist() == [0, 2]


def test_discretize_picks_dominant_rows():
    y = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    expected_rows, _ = enumerate_lap(-y)
    assert np.array_equal(discretize(y), expected_rows)
    assert expected_rows.tolist() == [0, 1]


def test_discretize_uniform_scores_take_lowest_rows():
    y = np.full((4, 2), 0.5)
    assert discretize(y).tolist() == [0, 1]


def test_discretize_output_is_valid_selection(rng):
    for _ in range(50):
        p = int(rng.integers(1, 8))
        k = int(rng.integers(1, p + 1))
        rows = discretize(rng.normal(size=(p, k)))
        assert rows.shape == (k,) and np.unique(rows).size == k
        assert rows.min() >= 0 and rows.max() < p
