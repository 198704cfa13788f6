"""Minimum-cost rectangular linear assignment with deterministic tie-breaking.

Given a p x k cost matrix with p >= k, every column is assigned a distinct
row so that the total cost is minimal, and the answer is the chosen row of
each column.  Among equal-cost optima the solver returns the
lexicographically smallest column-major row tuple, so results are
reproducible across runs and platforms.

The primal comes from ``scipy.optimize.linear_sum_assignment`` (Crouse's
shortest-augmenting-path method, IEEE TAES 2016), which returns some
optimum but no dual potentials and no fixed tie order.  Optimal duals are
recovered from the primal as shortest-path potentials over the k columns:
unmatched rows take u = 0, and each matched row turns dual feasibility
into difference constraints between columns.  The mean of all
shortest-path potentials (Floyd-Warshall on k + 1 nodes) leaves a zero
reduced cost only where every optimal dual has one.

A row can replace the chosen one in some optimal solution only if its
reduced cost is zero (complementary slackness), so the tie-break pass
returns at once when no such row lies above a chosen row.  Otherwise it
fixes columns left to right and verifies each candidate row by re-solving
the residual problem, which on degenerate costs means a few extra solves.

A (b, p, k) stack of same-shape costs is solved in one call, and a single
matrix runs as a stack of one.  The primal is still one scipy call per
matrix, but the dual recovery and the tie test run over the whole stack
at once, and only the matrices with a real tie enter the tie-break pass.
Callers with many small problems of one shape (one per image, or one per
image pair) pay the fixed numpy cost of those steps once per stack.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DimensionMismatch, InfeasibleK, NonFiniteEntry

TIE_TOL = 1e-9


def solve_lap(cost: np.ndarray) -> np.ndarray:
    """The chosen row of each column of ``cost``, assigned distinct rows at minimum total cost.

    ``cost`` is one p x k matrix or a (b, p, k) stack of them, each solved
    on its own; the result is a (k,) index array, or (b, k) for a stack.
    Requires at least as many rows as columns and finite entries.  Ties
    are broken toward the lexicographically smallest (column 0 first) row
    tuple.
    """
    cost = np.ascontiguousarray(cost, dtype=float)
    if cost.ndim not in (2, 3):
        raise DimensionMismatch(f"cost must be a matrix or a stack of matrices, got shape {cost.shape}")
    stack = cost[None] if cost.ndim == 2 else cost
    b, p, k = stack.shape
    if k == 0:
        return np.empty(cost.shape[:-2] + (0,), dtype=np.intp)
    if p < k:
        raise InfeasibleK(f"cannot assign {k} columns among {p} rows")
    if not np.isfinite(stack).all():
        raise NonFiniteEntry("cost matrix contains non-finite entries")
    col_to_row = np.array([_primal(c) for c in stack], dtype=np.intp).reshape(b, k)
    u, v = _duals(stack, col_to_row)
    tol = TIE_TOL * np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    tight = stack - u[:, :, None] - v[:, None, :] <= tol[:, None, None]
    above = np.arange(p)[:, None] < col_to_row[:, None, :]
    # only a zero reduced cost above a chosen row can give a smaller optimum
    for t in np.flatnonzero((tight & above).any(axis=(1, 2))):
        col_to_row[t] = _lexicographic_refine(stack[t], col_to_row[t], tight[t], float(tol[t]))
    return col_to_row[0] if cost.ndim == 2 else col_to_row


def discretize(y: np.ndarray) -> np.ndarray:
    """Round a p x k score block, or a (b, p, k) stack of them, to the closest valid selection.

    Solves the assignment on the negated scores, so the result keeps the
    largest entries subject to one distinct row per column.  Returns the
    chosen row of each column: a (k,) index array, or (b, k) for a stack.
    """
    return solve_lap(-np.asarray(y, dtype=float))


def _primal(cost: np.ndarray) -> np.ndarray:
    """Some optimal row per column of one matrix (p >= k); not tie-broken."""
    # on the transpose scipy returns the columns in order, so its second
    # output is already indexed by column
    return linear_sum_assignment(cost.T)[1].astype(np.intp)


def _duals(cost: np.ndarray, col_to_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal dual potentials (u, v) for an optimal ``col_to_row``, per matrix of a stack.

    ``cost`` is (b, p, k) and ``col_to_row`` (b, k); u is (b, p) and v
    (b, k).  For each matrix they satisfy cost[i, c] - u[i] - v[c] >= 0
    everywhere, with equality on the chosen entries, u = 0 on unmatched
    rows and u <= 0 on matched ones.  With u fixed by v on matched rows,
    feasibility is a system of difference constraints
    v[c] - v[c'] <= cost[row(c'), c] - cost[row(c'), c'] plus the bounds
    cost[row(c), c] <= v[c] <= (column minimum over the unmatched rows),
    written as edges to and from a source node with v = 0.  An optimal
    primal leaves no negative cycle, so every row and every negated column
    of the all-pairs shortest distances is a feasible potential.  Their
    mean is tight exactly on the constraints that lie on a zero-weight
    cycle, which every optimal dual must meet with equality: so a zero
    reduced cost off the chosen entries marks a real tie.
    """
    b, p, k = cost.shape
    batch = np.arange(b)[:, None]
    lo = cost[batch, col_to_row, np.arange(k)]
    square = p == k
    d = np.zeros((b, k, k) if square else (b, k + 1, k + 1))
    d[:, :k, :k] = cost[batch, col_to_row] - lo[:, :, None]
    if not square:
        unmatched = np.ones((b, p), dtype=bool)
        unmatched[batch, col_to_row] = False
        d[:, k, :k] = cost[unmatched].reshape(b, p - k, k).min(axis=1)
        d[:, :k, k] = -lo
    for m in range(d.shape[1]):  # Floyd-Warshall, all matrices at once
        np.minimum(d, d[:, :, m, None] + d[:, m, None, :], out=d)
    centre = 0.5 * (d.mean(axis=1) - d.mean(axis=2))
    # a square problem has no unmatched row, so all potentials may shift
    # together; the shift that makes max(u) = 0 keeps u <= 0
    if square:
        v = centre - (centre - lo).min(axis=1, keepdims=True)
    else:
        v = centre[:, :k] - centre[:, k:]
    u = np.zeros((b, p))
    u[batch, col_to_row] = lo - v
    return u, v


def _lexicographic_refine(
    cost: np.ndarray, col_to_row: np.ndarray, tight: np.ndarray, tol: float
) -> np.ndarray:
    """Pick the lexicographically smallest column-major optimum of one matrix.

    Columns are fixed left to right.  For column c only rows below the
    current choice with near-zero reduced cost (``tight``, within ``tol``)
    can belong to another optimum (complementary slackness), and each such
    row is verified by re-solving the residual problem on the remaining
    rows and columns.
    """
    p, k = cost.shape
    cur = np.array(col_to_row, dtype=np.intp)
    value = float(cost[cur, np.arange(k)].sum())
    fixed = np.zeros(p, dtype=bool)
    prefix = 0.0
    for c in range(k):
        r_cur = int(cur[c])
        candidates = np.flatnonzero(~fixed[:r_cur] & tight[:r_cur, c])
        rest = np.arange(c + 1, k)
        for r in candidates:
            r = int(r)
            rows_left = np.flatnonzero(~fixed)
            rows_left = rows_left[rows_left != r]
            sub = cost[np.ix_(rows_left, rest)]
            # column minima bound the residual from below (row reuse
            # allowed), which rejects most degenerate-dual candidates
            # without an assignment solve
            if prefix + cost[r, c] + float(sub.min(axis=0).sum()) > value + tol:
                continue
            sub_rows = _primal(sub)
            if prefix + cost[r, c] + float(sub[sub_rows, np.arange(rest.size)].sum()) <= value + tol:
                cur[c] = r
                cur[c + 1 :] = rows_left[sub_rows]
                break
        fixed[cur[c]] = True
        prefix += cost[cur[c], c]
    return cur
