import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from multimatch import InfeasibleK, NonFiniteEntry, discretize, solve_lap
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


def _certificate(cost):
    rows = _primal(cost)
    u, v = _duals(cost, rows)
    reduced = cost - u[:, None] - v
    matched = np.zeros(cost.shape[0], dtype=bool)
    matched[rows] = True
    return rows, u, reduced, matched


@pytest.mark.parametrize("shape", [(5, 5), (7, 4), (12, 8), (13, 12), (13, 13), (40, 20)])
@pytest.mark.parametrize("kind", ["normal", "integers", "rounded"])
def test_recovered_duals_certify_optimality(rng, shape, kind):
    p, k = shape
    for _ in range(30):
        if kind == "normal":
            cost = rng.normal(size=shape)
        elif kind == "integers":
            cost = rng.integers(0, 3, size=shape).astype(float)
        else:
            cost = np.round(rng.random(shape), 1)
        rows, u, reduced, matched = _certificate(cost)
        assert reduced.min() >= -1e-9
        assert np.abs(reduced[rows, np.arange(k)]).max() <= 1e-9
        assert (u[~matched] == 0.0).all()
        assert (u[matched] <= 1e-9).all()


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
