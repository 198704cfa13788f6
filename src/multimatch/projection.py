"""Euclidean projection onto the relaxed labeling constraint set.

The feasible set of an m x k matrix partitioned into per-image row blocks
asks every row to lie in {y >= 0, sum(y) <= 1} and every per-block column
to sum to one; the entrywise [0, 1] bounds follow.  With a row multiplier
nu >= 0 (one per row) and a column multiplier mu (k per image), the
projection of V is Y = max(V - nu 1^T - mu, 0).  The multipliers come from
block coordinate ascent on the projection's dual: at fixed nu each
block-column mu is the simplex threshold of V - nu, and at fixed mu each
row's nu is its simplex threshold of V - mu, clipped at zero.  Both are
closed-form sort-and-threshold rules, vectorized over rows and over
same-size blocks.  Each round ends with exact column sums and nu >= 0, so
the ascent stops on the remaining KKT conditions: every row sum is within
the cap and every row with nu > 0 sums to one, to ``PROJECTION_TOL``.

Successive projections in a descent differ little, and so do their
multipliers.  A caller may pass a buffer of row multipliers: the ascent
then continues from it, and writes the final nu back for the next call.
The first round of every call still runs from nu = 0, and its result is
returned when the stop rule already holds, so a feasible input comes back
unchanged whatever the buffer holds.  The second round tries the carried
nu, and the ascent goes on from it only if the dual objective ranks it at
least as high as nu = 0; otherwise the cold ascent resumes.  A start far
above the optimum ranks lower and would take hundreds of rounds to come
down.  A kept warm nu may still exceed the optimum on some rows, whose
sums then fall below the cap: started from nu = 0 the ascent raises nu
monotonically and never leaves a row with nu > 0 below the cap, but from
a warm start only the complementarity half of the stop rule keeps the
ascent going until those rows recover.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionMismatch, InfeasibleK
from .model import BlockLayout

PROJECTION_TOL = 1e-6
PROJECTION_MAX_ITER = 500


class ProjectionWarning(UserWarning):
    """The dual ascent reached ``PROJECTION_MAX_ITER`` rounds before its KKT stop rule held."""


def _threshold(v: np.ndarray) -> np.ndarray:
    """Per-row tau with sum(max(v - tau, 0)) = 1, by the sorted-threshold rule."""
    n = v.shape[-1]
    srt = -np.sort(-v, axis=-1)
    css = np.cumsum(srt, axis=-1) - 1.0
    steps = np.arange(1, n + 1, dtype=float)
    positive = srt - css / steps > 0  # position 0 is always positive
    support = n - 1 - np.argmax(positive[..., ::-1], axis=-1)
    return np.take_along_axis(css, support[..., None], axis=-1)[..., 0] / (support + 1.0)


def _dual_value(out: np.ndarray, nu: np.ndarray, mu: np.ndarray, block_share: np.ndarray) -> float:
    """The projection's dual objective at (nu, mu), less its constant ||V||^2 / 2.

    ``out`` is max(V - nu - mu, 0); ``mu`` repeats each image's multipliers
    on its p rows, so weighting it by ``block_share`` (1 / p per row) counts
    every multiplier once.
    """
    return -0.5 * float((out * out).sum()) - float(nu.sum()) - float((mu * block_share).sum())


def project_onto_C(y: np.ndarray, sizes, *, nu: np.ndarray | None = None) -> np.ndarray:
    """Project an m x k matrix onto the constraint set described above.

    ``sizes`` gives the per-image block heights in row order.  Feasible
    inputs are returned unchanged after the first round.  ``nu``, when
    given, is a length-m float buffer of row multipliers: after a first
    round from zero that does not meet the stop rule, the ascent continues
    from it unless the dual objective ranks it below nu = 0, and the
    multipliers of the returned point are written back into it.  If the
    KKT stop rule still fails after ``PROJECTION_MAX_ITER`` rounds, a
    :class:`ProjectionWarning` is emitted and the current iterate returned;
    its column sums are exact and any residual violation sits in the row
    caps.
    """
    v = np.asarray(y, dtype=float)
    sizes = tuple(int(p) for p in sizes)
    if v.ndim != 2 or v.shape[0] != sum(sizes):
        raise DimensionMismatch(f"expected {sum(sizes)} rows, got shape {v.shape}")
    if min(sizes) < v.shape[1]:
        raise InfeasibleK("block column sums cannot reach 1 when k exceeds a block height")
    if nu is not None and nu.shape != (v.shape[0],):
        raise DimensionMismatch(f"expected {v.shape[0]} row multipliers, got shape {nu.shape}")
    groups = BlockLayout(sizes).groups()
    k = v.shape[1]

    warm = nu is not None and bool(nu.any())
    if warm:
        block_share = np.repeat(1.0 / np.asarray(sizes, dtype=float), sizes)[:, None]
    next_nu = np.zeros((v.shape[0], 1))
    mu = np.empty_like(v)  # each image's k column multipliers, repeated on its rows
    for rnd in range(PROJECTION_MAX_ITER):
        rows_nu = next_nu
        shifted = v - rows_nu
        for p, _, rows in groups:
            cols = np.moveaxis(shifted[rows].reshape(-1, p, k), 1, 2)  # (blocks, k, p)
            mu[rows] = np.repeat(_threshold(cols), p, axis=0)
        out = np.maximum(shifted - mu, 0.0)
        sums = out.sum(axis=1)
        # a warm nu can exceed the optimum on a row and pull its sum below
        # the cap; only the complementarity test then keeps the ascent going
        active = rows_nu[:, 0] > 0
        if sums.max() - 1.0 <= PROJECTION_TOL and (1.0 - sums[active] <= PROJECTION_TOL).all():
            break
        if warm and rnd == 0:
            zero_dual, zero_mu = _dual_value(out, rows_nu, mu, block_share), mu.copy()
            next_nu = np.maximum(nu, 0.0)[:, None]
            continue
        if warm and rnd == 1 and _dual_value(out, rows_nu, mu, block_share) < zero_dual:
            mu = zero_mu  # the carried nu ranks below nu = 0: resume the cold ascent
        next_nu = np.maximum(_threshold(v - mu), 0.0)[:, None]
    else:
        warnings.warn(
            f"projection stopped after {PROJECTION_MAX_ITER} rounds with row sums up to {sums.max():.6g}",
            ProjectionWarning,
            stacklevel=2,
        )
    if nu is not None:
        nu[:] = rows_nu[:, 0]
    return out


def feasibility_gap(y: np.ndarray, sizes) -> float:
    """Largest violation of the constraint set; zero for feasible points."""
    y = np.asarray(y, dtype=float)
    sizes = tuple(int(p) for p in sizes)
    gap = max(float(-y.min(initial=0.0)), float((y - 1.0).max(initial=0.0)))
    gap = max(gap, float((y.sum(axis=1) - 1.0).max(initial=0.0)))
    offset = 0
    for p in sizes:
        col_sums = y[offset : offset + p].sum(axis=0)
        gap = max(gap, float(np.abs(col_sums - 1.0).max()))
        offset += p
    return gap
