"""Euclidean projection onto the relaxed labeling constraint set.

The feasible set of an m x k matrix partitioned into per-image row blocks
asks every row to lie in {y >= 0, sum(y) <= 1} and every per-block column
to sum to one; the entrywise [0, 1] bounds follow.  With a row multiplier
nu >= 0 (one per row) and a column multiplier mu (k per image), the
projection of V is Y = max(V - nu 1^T - mu, 0), and the multipliers
maximize the projection's concave dual g(nu, mu).  Two closed-form
sort-and-threshold rules (Condat, "Fast projection onto the simplex and
the l1 ball", 2016) solve the dual in one block of variables: at fixed nu
each block column's mu is the simplex threshold of V - nu, and at fixed mu
each row's nu is its simplex threshold of V - mu, clipped at zero.

The first round runs the column rule from nu = 0.  Every later round works
on the reduced dual phi(mu) = max over nu of g(nu, mu), whose gradient is
the column sums of Y(mu) less one: it takes nu(mu) by the row rule, then a
semismooth Newton step on mu.  Phi's generalized Hessian is the k x k
matrix sum over rows with nu > 0 of s s^T / |s|, less the diagonal of the
columns' support counts, where s is the row's support.  It is singular
where phi is linear along some direction of mu, as for a column with no
support; a small ridge keeps the system solvable, and the step is cut to
the entry range of V plus one, so that it stays bounded along such a
direction.  The step is then halved until phi rises by a fixed fraction
of the increase it predicts; an image whose step still fails, or whose
step predicts an increase below the rounding of phi, keeps nu(mu), which
is a round of plain block coordinate ascent, so phi never decreases.
The round ends with the column rule at the new nu.
Each round therefore ends with exact column sums and nu >= 0, and stops
on the remaining KKT conditions: every row sum is within the cap and
every row with nu > 0 sums to one, to ``PROJECTION_TOL``.  A feasible
input passes in the first round and comes back unchanged.

The constraint set, and with it the dual, separates by image, so the stop
rule is tested image by image: an image that passes it is settled, its
rows of the result are final, and later rounds run only on the images of
each block height that have not, with one batched solve of their Newton
systems per round.  An image's result therefore does not depend on the
other images in the stack.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionMismatch, InfeasibleK
from .model import BlockLayout

PROJECTION_TOL = 1e-6
PROJECTION_MAX_ITER = 500
ARMIJO = 1e-4  # share of its predicted increase a Newton step must deliver
BACKTRACKS = 8  # step lengths tried, halving from 1, before an image falls back
RIDGE = 1e-9  # added to the negated Hessian's diagonal, which may be singular


class ProjectionWarning(UserWarning):
    """Some image's projection reached ``PROJECTION_MAX_ITER`` rounds before its KKT stop rule held."""


def _threshold(v: np.ndarray) -> np.ndarray:
    """Per-row tau with sum(max(v - tau, 0)) = 1.

    tau is the largest (prefix sum - 1) / length over the prefixes of the
    descending-sorted row.
    """
    css = np.cumsum(np.sort(v, axis=-1)[..., ::-1], axis=-1)
    css -= 1.0
    css /= np.arange(1.0, v.shape[-1] + 1)
    return css.max(axis=-1)


def _column_step(v: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (b, k) mu that maximizes the dual at row multipliers nu, and the point it gives."""
    shifted = v - nu[:, :, None]
    mu = _threshold(shifted.transpose(0, 2, 1))
    return mu, np.maximum(shifted - mu[:, None, :], 0.0)


def _row_step(v: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """nu(mu), the point Y(mu) and phi(mu) less its constant ||V_i||^2 / 2, per block of ``v``."""
    shifted = v - mu[:, None, :]
    nu = np.maximum(_threshold(shifted), 0.0)
    y = np.maximum(shifted - nu[:, :, None], 0.0)
    return nu, y, -0.5 * (y * y).sum(axis=(1, 2)) - nu.sum(axis=1) - mu.sum(axis=1)


def _newton_step(v: np.ndarray, nu: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The (b, k) Newton step on phi at y = Y(mu) and nu = nu(mu), cut to V's entry range plus one."""
    support = (y > 0).astype(float)
    weight = (nu > 0) / np.maximum(support.sum(axis=2), 1.0)
    neg_hess = -(support * weight[:, :, None]).transpose(0, 2, 1) @ support
    np.einsum("bii->bi", neg_hess)[...] += support.sum(axis=1) + RIDGE
    step = np.linalg.solve(neg_hess, grad[:, :, None])[:, :, 0]
    reach = np.ptp(v, axis=(1, 2)) + 1.0
    return step * (reach / np.maximum(np.abs(step).max(axis=1), reach))[:, None]


def _ascend(v: np.ndarray) -> tuple[np.ndarray, int]:
    """Project a (b, p, k) stack of same-height blocks, each stopped on its own.

    Returns the projected stack and the count of blocks that had not
    settled after ``PROJECTION_MAX_ITER`` rounds.
    """
    out = np.empty_like(v)
    live = np.arange(v.shape[0])  # the blocks not yet settled
    vl, nu = v, np.zeros(v.shape[:2])  # their inputs and row multipliers
    mu, res = _column_step(vl, nu)
    for rnd in range(PROJECTION_MAX_ITER):
        if rnd:
            nu, y, phi = _row_step(vl, mu)
            grad = y.sum(axis=1) - 1.0
            step = _newton_step(vl, nu, y, grad)
            gain = (grad * step).sum(axis=1)
            # a gain below phi's rounding could pass the Armijo test only on noise
            trying, t = np.flatnonzero(gain > np.finfo(float).eps * np.abs(phi)), 1.0
            for _ in range(BACKTRACKS):
                if not trying.size:
                    break
                nu_t, _, phi_t = _row_step(vl[trying], mu[trying] + t * step[trying])
                rises = phi_t >= phi[trying] + ARMIJO * t * gain[trying]
                nu[trying[rises]] = nu_t[rises]
                trying, t = trying[~rises], 0.5 * t
            mu, res = _column_step(vl, nu)
        gap = res.sum(axis=2) - 1.0
        np.abs(gap, out=gap, where=nu > 0)
        settled = gap.max(axis=1) <= PROJECTION_TOL
        if settled.any():
            out[live[settled]] = res[settled]
            keep = ~settled
            live, vl, mu, res = live[keep], vl[keep], mu[keep], res[keep]
            if not live.size:
                break
    out[live] = res
    return out, live.size


def project_onto_C(y: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """Project an m x k matrix onto the constraint set described above.

    ``layout`` gives the per-image row blocks, each of at least one row
    (:class:`DimensionMismatch` otherwise).  Feasible
    inputs are returned unchanged after the first round.  If some images
    still fail the KKT stop rule after ``PROJECTION_MAX_ITER`` rounds, a
    :class:`ProjectionWarning` counts them and their current iterates are
    returned; their column sums are exact and any residual violation sits
    in the row caps.
    """
    v = np.asarray(y, dtype=float)
    if v.ndim != 2 or v.shape[0] != layout.m:
        raise DimensionMismatch(f"expected {layout.m} rows, got shape {v.shape}")
    if min(layout.sizes, default=0) < 1:
        raise DimensionMismatch("every image must contribute at least one candidate")
    if min(layout.sizes) < v.shape[1]:
        raise InfeasibleK("block column sums cannot reach 1 when k exceeds a block height")
    k = v.shape[1]
    out = np.empty_like(v)
    capped = 0
    for p, _, rows in layout.groups():
        block_out, left = _ascend(v[rows].reshape(-1, p, k))
        out[rows] = block_out.reshape(-1, k)
        capped += left
    if capped:
        warnings.warn(
            f"projection stopped after {PROJECTION_MAX_ITER} rounds with {capped} of {layout.n} "
            f"images unsettled, row sums up to {out.sum(axis=1).max():.6g}",
            ProjectionWarning,
            stacklevel=2,
        )
    return out


def feasibility_gap(y: np.ndarray, layout: BlockLayout) -> float:
    """Largest violation of the constraint set over ``layout``'s blocks; zero for feasible points."""
    y = np.asarray(y, dtype=float)
    gap = max(float(-y.min(initial=0.0)), float((y - 1.0).max(initial=0.0)))
    gap = max(gap, float((y.sum(axis=1) - 1.0).max(initial=0.0)))
    for p, images, rows in layout.groups():
        col_sums = y[rows].reshape(images.size, p, y.shape[1]).sum(axis=1)
        gap = max(gap, float(np.abs(col_sums - 1.0).max(initial=0.0)))
    return gap
