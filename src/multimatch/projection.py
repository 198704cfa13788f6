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

The constraint set, and with it the dual, separates by image, so the stop
rule is tested image by image: an image that passes it is settled, its
rows of the result and of nu are final, and later rounds run only on the
images of each block height that have not.  An image's result therefore
does not depend on the other images in the stack.

Successive projections in a descent differ little, and so do their
multipliers.  A caller may pass a buffer of row multipliers: the ascent
then continues from it, and writes the final nu back for the next call.
The first round of every call still runs from nu = 0, and an image that
passes the stop rule there is settled with nu = 0, so a feasible input
comes back unchanged whatever the buffer holds.  An unsettled image whose
carried nu is not all zero tries it in its second round, and goes on from
it only if the image's dual objective ranks it at least as high as nu = 0;
otherwise that image resumes the cold ascent.  A start far above the
optimum ranks lower and would take hundreds of rounds to come down.  A
kept warm nu may still exceed the optimum on some rows, whose sums then
fall below the cap: started from nu = 0 the ascent raises nu monotonically
and never leaves a row with nu > 0 below the cap, but from a warm start
only the complementarity half of the stop rule keeps the ascent going
until those rows recover.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionMismatch, InfeasibleK
from .model import BlockLayout

PROJECTION_TOL = 1e-6
PROJECTION_MAX_ITER = 500


class ProjectionWarning(UserWarning):
    """Some image's dual ascent reached ``PROJECTION_MAX_ITER`` rounds before its KKT stop rule held."""


def _threshold(v: np.ndarray) -> np.ndarray:
    """Per-row tau with sum(max(v - tau, 0)) = 1, by the sorted-threshold rule."""
    n = v.shape[-1]
    srt = -np.sort(-v, axis=-1)
    css = np.cumsum(srt, axis=-1) - 1.0
    steps = np.arange(1, n + 1, dtype=float)
    positive = srt - css / steps > 0  # position 0 is always positive
    support = n - 1 - np.argmax(positive[..., ::-1], axis=-1)
    return np.take_along_axis(css, support[..., None], axis=-1)[..., 0] / (support + 1.0)


def _dual_value(out: np.ndarray, nu: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Each image's projection dual objective at (nu, mu), less its constant ||V_i||^2 / 2.

    ``out`` is the (b, p, k) stack max(V - nu - mu, 0), ``nu`` the (b, p)
    row and ``mu`` the (b, k) column multipliers.
    """
    return -0.5 * (out * out).sum(axis=(1, 2)) - nu.sum(axis=1) - mu.sum(axis=1)


def _ascend(v: np.ndarray, carried: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, int]:
    """Dual ascent on a (b, p, k) stack of same-height blocks, each stopped on its own.

    ``carried`` is the (b, p) warm start, or None.  Returns the projected
    stack, its (b, p) row multipliers and the count of blocks that had not
    settled after ``PROJECTION_MAX_ITER`` rounds.
    """
    out = np.empty_like(v)
    nu = np.zeros(v.shape[:2])
    live = np.arange(v.shape[0])  # the blocks not yet settled
    vl, cur = v, nu.copy()  # their inputs and row multipliers
    trial = None  # in round 2, which of them run on their carried nu
    for rnd in range(PROJECTION_MAX_ITER):
        shifted = vl - cur[:, :, None]
        mu = _threshold(shifted.transpose(0, 2, 1))
        res = np.maximum(shifted - mu[:, None, :], 0.0)
        sums = res.sum(axis=2)
        # rows with nu > 0 must sum to one, the others at most to one: a warm
        # nu can exceed the optimum on a row and pull its sum below the cap,
        # and only the complementarity test then keeps the ascent going
        gap = sums - 1.0
        np.abs(gap, out=gap, where=cur > 0)
        settled = gap.max(axis=1) <= PROJECTION_TOL
        if settled.any():
            out[live[settled]], nu[live[settled]] = res[settled], cur[settled]
            if settled.all():
                return out, nu, 0
            keep = ~settled
            live, vl, cur, res, mu = live[keep], vl[keep], cur[keep], res[keep], mu[keep]
            if trial is not None:
                trial, zero_dual, zero_mu = trial[keep], zero_dual[keep], zero_mu[keep]
        if rnd == PROJECTION_MAX_ITER - 1:
            break
        if trial is not None:
            # a carried nu that ranks below nu = 0 resumes the cold ascent
            back = trial & (_dual_value(res, cur, mu) < zero_dual)
            mu[back] = zero_mu[back]
            trial = None
        next_nu = np.maximum(_threshold(vl - mu[:, None, :]), 0.0)
        if rnd == 0 and carried is not None and carried[live].any():
            trial = carried[live].any(axis=1)
            next_nu[trial] = carried[live[trial]]
            zero_dual, zero_mu = _dual_value(res, cur, mu), mu
        cur = next_nu
    out[live], nu[live] = res, cur
    return out, nu, live.size


def project_onto_C(y: np.ndarray, sizes, *, nu: np.ndarray | None = None) -> np.ndarray:
    """Project an m x k matrix onto the constraint set described above.

    ``sizes`` gives the per-image block heights in row order.  Feasible
    inputs are returned unchanged after the first round.  ``nu``, when
    given, is a length-m float buffer of row multipliers: an image that
    does not meet the stop rule after a first round from zero continues
    from its rows of the buffer unless its dual objective ranks them below
    nu = 0, and the multipliers of the returned point are written back into
    it.  If some images still fail the KKT stop rule after
    ``PROJECTION_MAX_ITER`` rounds, a :class:`ProjectionWarning` counts
    them and their current iterates are returned; their column sums are
    exact and any residual violation sits in the row caps.
    """
    v = np.asarray(y, dtype=float)
    sizes = tuple(int(p) for p in sizes)
    if v.ndim != 2 or v.shape[0] != sum(sizes):
        raise DimensionMismatch(f"expected {sum(sizes)} rows, got shape {v.shape}")
    if min(sizes) < v.shape[1]:
        raise InfeasibleK("block column sums cannot reach 1 when k exceeds a block height")
    if nu is not None and nu.shape != (v.shape[0],):
        raise DimensionMismatch(f"expected {v.shape[0]} row multipliers, got shape {nu.shape}")
    k = v.shape[1]
    out = np.empty_like(v)
    row_nu = np.empty(v.shape[0])
    capped = 0
    for p, _, rows in BlockLayout(sizes).groups():
        carried = None if nu is None else np.maximum(nu[rows], 0.0).reshape(-1, p)
        block_out, block_nu, left = _ascend(v[rows].reshape(-1, p, k), carried)
        out[rows], row_nu[rows] = block_out.reshape(-1, k), block_nu.ravel()
        capped += left
    if capped:
        warnings.warn(
            f"projection stopped after {PROJECTION_MAX_ITER} rounds with {capped} of {len(sizes)} "
            f"images unsettled, row sums up to {out.sum(axis=1).max():.6g}",
            ProjectionWarning,
            stacklevel=2,
        )
    if nu is not None:
        nu[:] = row_nu
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
