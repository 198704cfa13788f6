"""Block coordinate descent for joint feature selection and labeling.

Three variables are updated in turn at each coupling weight rho of an
increasing continuation schedule:

* ``Y``: the m x k relaxed labeling, confined to the convex set handled by
  the projection module, updated by projected gradient descent with Armijo
  backtracking until the subproblem stops improving;
* ``X``: the per-image selections, each refreshed exactly by a
  minimum-cost assignment whose cost mixes squared distances to the
  current geometric fit with the relaxed labeling;
* ``Z``: the rank-bounded 2n x k fit to the coordinates of the selected
  features, refreshed exactly by truncated SVD.

Every update is exact or monotone, so the combined objective never
increases within a fixed-rho stage.  Coordinates are preconditioned to a
per-image centered frame of mean norm sqrt(2) so that the geometric weight
acts on the same scale as the score residual; the fit is mapped back to
the input frame on the final state.

The cycle term 0.25 ||W - Y Y^T||_F^2 has one owner, :class:`Contraction`:
its value, its gradient (Y Y^T - W) Y and the curvature bound behind
the step sizes all contract through W Y and the k x k Gram matrix Y^T Y,
kept for the last iterate evaluated.  Every function that takes the
score matrix ``w`` also takes its contraction; a solve builds one and
passes it everywhere, so W is contracted once per iterate.

The start is spectral.  Consistent scores factor as W = Y Y^T, so the
top-k eigenvectors U of W span the labeling; k anchor rows S, chosen by
pivoted QR of U^T, turn that basis into the start point U U_S^{-1}, which
is clipped at zero, projected, and refined by projected gradient descent
on the score term alone.  The eigenvectors come from a block eigensolver
(the top eigenvalue of consistent scores is repeated k times, which a
single-vector Lanczos method cannot resolve) started from a Gaussian
block seeded by ``config.seed``; a dense eigensolver takes over on small
problems and whenever the block solver misses its tolerance.

Each line search of the Y update backtracks along the projection arc
until the Armijo condition holds, so every accepted step lowers the
objective and each stage's trace never increases.  The first line
search of an update tries the bound step
eta0 = 1 / (||Y||_2^2 + ||W||_inf + rho) at the update's starting point.
Each later one tries the two-point step s^T s / s^T (g+ - g) of Barzilai
and Borwein, the step rule of spectral projected gradient (Birgin,
Martinez and Raydan): s is the last accepted step and g, g+ are the
gradients before and after it.  That trial is clamped to
[eta0, SPECTRAL_CAP * eta0], and is eta0 itself when s^T (g+ - g) <= 0.

Step control is fixed here rather than configured: the backtracking
factor, the Armijo constant, the spectral step's cap, the inner and
outer stopping tolerances and the caps on inner steps and sweeps are the
module constants below, read at call time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import lobpcg

from .assignment import discretize, solve_lap
from .errors import InfeasibleK
from .model import (
    BlockLayout,
    ProblemInstance,
    SelectionLabeling,
    SolverConfig,
    assemble_block,
)
from . import projection
from .projection import ProjectionWarning, project_onto_C

STALL_ETA = 1e-12  # a line search that shrinks the step below this stalls
BACKTRACK = 0.5  # step shrink factor per rejected trial
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
SPECTRAL_CAP = 1e3  # a spectral first trial is at most this multiple of the bound step
INNER_TOL = 1e-6  # relative objective drop that ends update_Y
OUTER_TOL = 1e-7  # relative objective drop that ends a rho stage
MAX_INNER = 500  # accepted projected-gradient steps per update_Y call
MAX_SWEEPS = 100  # (Y, X, Z) sweeps per rho stage
EIGEN_MAXITER = 80  # lobpcg iterations before the dense fallback takes over


@dataclass(frozen=True)
class TraceRecord:
    """One objective snapshot: stage label, iteration, components, total."""

    stage: str
    iteration: int
    cycle: float
    geo: float
    coupling: float
    total: float


@dataclass
class MeasurementEstimate:
    """Stacked coordinates of the selected features and their low-rank fit.

    Rows 2i and 2i+1 hold image i.  Both matrices live in the input
    coordinate frame; the fit is exactly rank-bounded in the solver's
    normalized frame and may pick up one extra rank from the de-centering
    translation.
    """

    m_tilde: np.ndarray  # (2n, k)
    z: np.ndarray  # (2n, k)


@dataclass
class SolverState:
    """Final variables, the objective trace, and any solver warnings."""

    y: np.ndarray
    labeling: SelectionLabeling
    measurement: MeasurementEstimate
    objective_trace: list[TraceRecord]
    warnings: list[str] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return not self.warnings


class Contraction:
    """The cycle term 0.25 ||w - y y^T||_F^2 of one score matrix w.

    ``value(y)``, ``gradient(y)`` = (y y^T - w) y and ``step_bound(y)`` =
    ||y||_2^2 + ||w||_inf all read w @ y and y^T y from one slot that holds
    them for the last iterate evaluated: the trace record after an
    ``update_Y`` call and the next call's starting point evaluate the y
    that call returned, which it has evaluated already.  The slot is keyed
    on the array's identity, so an evaluated iterate must not be modified
    in place.  ||w||_F^2 is computed on construction and ||w||_inf on the
    first step bound.
    """

    def __init__(self, w):
        self.w = w
        self.wsq = float((w.data**2).sum()) if sp.issparse(w) else float((np.asarray(w) ** 2).sum())
        self._w_inf = None
        self._y = self._wy = self._gram = None

    @classmethod
    def of(cls, w) -> Contraction:
        """w itself when it is a contraction, else a new contraction of the matrix w."""
        return w if isinstance(w, cls) else cls(w)

    def _contract(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if y is not self._y:
            self._y, self._wy, self._gram = y, self.w @ y, y.T @ y
        return self._wy, self._gram

    def value(self, y: np.ndarray) -> float:
        wy, gram = self._contract(y)
        return 0.25 * (self.wsq - 2.0 * float(np.vdot(y, wy)) + float((gram * gram).sum()))

    def gradient(self, y: np.ndarray) -> np.ndarray:
        """A new array, which the caller may update in place."""
        wy, gram = self._contract(y)
        return y @ gram - wy

    def step_bound(self, y: np.ndarray) -> float:
        """||y||_2^2 + ||w||_inf, the curvature scale that sets the bound step of a line search."""
        if self._w_inf is None:
            self._w_inf = float(abs(self.w).sum(axis=1).max())  # maximum absolute row sum
        gram = self._contract(y)[1]
        return (float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0) + self._w_inf


def _coupling(y: np.ndarray, xs: np.ndarray, rho: float) -> float:
    if not rho:
        return 0.0
    diff = y - xs
    return 0.5 * rho * float((diff * diff).sum())


def objective_cycle(w, y: np.ndarray) -> float:
    """Quarter squared Frobenius mismatch between the scores and y y^T.

    ``w`` is the score matrix or its :class:`Contraction`.  Evaluated
    without forming the m x m product: the cross term contracts through
    w @ y and the quartic term through the k x k Gram matrix.
    """
    return Contraction.of(w).value(np.asarray(y, dtype=float))


def objective_geo(x: SelectionLabeling, z: np.ndarray, coords: list[np.ndarray]) -> float:
    """Half squared residual between selected coordinates and the fit z."""
    diff = assemble_measurements(x, coords) - z
    # per image, then sequentially over the images: a summation order that
    # does not depend on how numpy blocks one long sum
    per_image = (diff * diff).reshape(x.n, -1).sum(axis=1)
    return 0.5 * float(np.cumsum(per_image)[-1])


def objective_components(w, y, x: SelectionLabeling, z, coords, lam: float, rho: float) -> tuple[float, float, float]:
    """The (cycle, lam * geometric, coupling) terms of the full objective.

    Their sum is the objective the solver minimizes; a trace record stores
    the three terms and that sum.  ``w`` is the score matrix or its
    :class:`Contraction`, whose slot already holds y after an ``update_Y``
    call that returned it.
    """
    geo = lam * objective_geo(x, z, coords) if lam else 0.0
    return objective_cycle(w, y), geo, _coupling(y, x.stacked(), rho)


def assemble_measurements(x: SelectionLabeling, coords: list[np.ndarray]) -> np.ndarray:
    """Stack the coordinates of the selected features into a 2n x k matrix."""
    chosen = np.hstack(coords)[:, x.stacked_rows()]  # (2, n, k)
    return np.ascontiguousarray(chosen.transpose(1, 0, 2)).reshape(2 * x.n, x.k)


def normalize_coordinates(
    coords: list[np.ndarray],
) -> tuple[list[np.ndarray], list[tuple[float, np.ndarray]]]:
    """Per-image similarity normalization: centroid to origin, mean norm sqrt(2).

    Returns the normalized coordinate list and the (scale, center) pairs
    needed to undo the transform.
    """
    out, transforms = [], []
    for c in coords:
        center = c.mean(axis=1, keepdims=True)
        centered = c - center
        scale = float(np.linalg.norm(centered, axis=0).mean()) / math.sqrt(2.0)
        if scale < 1e-12:
            scale = 1.0
        out.append(centered / scale)
        transforms.append((scale, center))
    return out, transforms


def denormalize_fit(z: np.ndarray, transforms: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Map a fit from the normalized frame back to input coordinates."""
    out = np.empty_like(z)
    for i, (scale, center) in enumerate(transforms):
        out[2 * i : 2 * i + 2] = scale * z[2 * i : 2 * i + 2] + center
    return out


def spectral_step(s: np.ndarray, dg: np.ndarray, eta0: float) -> float:
    """First trial step after the step s that changed the gradient by dg.

    The two-point step s^T s / s^T dg of Barzilai and Borwein, clamped to
    [eta0, SPECTRAL_CAP * eta0]; eta0 itself when s^T dg <= 0, where the
    quotient says nothing about the curvature along s.
    """
    sdg = float(np.vdot(s, dg))
    if sdg <= 0.0:
        return eta0
    ss = float(np.vdot(s, s))
    cap = SPECTRAL_CAP * eta0
    # compared before dividing, so a tiny s^T dg cannot overflow the quotient
    return cap if ss >= cap * sdg else max(ss / sdg, eta0)


def update_Y(y: np.ndarray, x: np.ndarray, w, rho: float, sizes) -> tuple[np.ndarray, list[float], bool]:
    """Projected gradient descent on the relaxed subproblem at fixed x.

    Minimizes 0.25 ||w - y y^T||_F^2 + (rho / 2) ||y - x||_F^2 over the
    constraint set.  ``w`` is the score matrix or its :class:`Contraction`,
    which supplies the first term's value, gradient and step bound; one
    carried from call to call reuses its evaluation of y when it holds one,
    and ends holding the returned y's unless the line search stalled.
    Steps follow y <- proj(y - eta * grad) with Armijo backtracking along
    the projection arc, so every accepted step lowers the objective.  The
    bound step eta0 = 1 / (step bound + rho) at the starting y is the first
    trial of the first line search; each later one starts from the
    spectral step (:func:`spectral_step`) of the last accepted step and
    the change in the full gradient across it, which falls back to eta0
    when that step showed no positive curvature.  Stops when the relative
    objective decrease falls below ``INNER_TOL`` or after ``MAX_INNER``
    accepted steps.  Returns (new y, objective history, stalled flag); the
    stalled flag reports a line search that shrank the step below
    ``STALL_ETA`` without finding decrease, in which case the current
    iterate is kept.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    cycle = Contraction.of(w)

    def value(yc: np.ndarray) -> float:
        return cycle.value(yc) + _coupling(yc, x, rho)

    f_cur = value(y)
    history = [f_cur]
    eta0 = 1.0 / max(cycle.step_bound(y) + rho, 1e-12)
    stalled = False
    y_prev = grad_prev = None
    for _ in range(MAX_INNER):
        grad = cycle.gradient(y)
        if rho:
            grad += rho * (y - x)
        eta = eta0 if y_prev is None else spectral_step(y - y_prev, grad - grad_prev, eta0)
        accepted = False
        while eta >= STALL_ETA:
            y_new = project_onto_C(y - eta * grad, sizes)
            f_new = value(y_new)
            decrease = float(np.vdot(grad, y - y_new))
            if f_new <= f_cur - ARMIJO * decrease:
                accepted = True
                break
            eta *= BACKTRACK
        if not accepted:
            stalled = True
            break
        drop = f_cur - f_new
        y_prev, grad_prev = y, grad
        y, f_cur = y_new, f_new
        history.append(f_cur)
        if drop <= INNER_TOL * max(1.0, abs(f_cur)):
            break
    return y, history, stalled


def _squared_distances(ci: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the columns of ci and zi, per stack member.

    ``ci`` is (b, 2, p) and ``zi`` (b, 2, k); the result is (b, p, k).
    """
    c2 = (ci * ci).sum(axis=1)[:, :, None]
    z2 = (zi * zi).sum(axis=1)[:, None, :]
    return np.maximum(c2 + z2 - 2.0 * (ci.transpose(0, 2, 1) @ zi), 0.0)


def update_X(
    y: np.ndarray,
    z: np.ndarray,
    coords: list[np.ndarray],
    lam: float,
    rho: float,
) -> SelectionLabeling:
    """Exact per-image refresh of the binary selection at fixed y and z.

    Image i solves a k-column assignment with cost
    lam * D(coords_i, z_i) - 2 rho y_i, where D holds squared distances
    from candidates to fit columns; this minimizes the full objective over
    the image's selection with everything else held fixed.  Images of
    equal candidate count are solved as one stack.
    """
    layout = BlockLayout(tuple(c.shape[1] for c in coords))
    k = y.shape[1]
    index = np.empty((layout.n, k), dtype=np.intp)
    for p, images, rows in layout.groups():
        yg = y[rows].reshape(-1, p, k)
        if lam:
            ci = np.stack([coords[i] for i in images])
            cost = lam * _squared_distances(ci, z.reshape(-1, 2, k)[images])
            cost -= 2.0 * rho * yg
        else:
            cost = -2.0 * rho * yg
        index[images] = solve_lap(cost).column_to_row
    return SelectionLabeling(index, layout.sizes)


def update_Z(x, coords: list[np.ndarray], r: int) -> np.ndarray:
    """Best rank-r approximation of the stacked selected coordinates."""
    m_tilde = assemble_measurements(x, coords)
    if r >= min(m_tilde.shape):
        return m_tilde.copy()
    u, s, vt = np.linalg.svd(m_tilde, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vt[:r]


def top_eigenvectors(w, k: int, seed: int) -> np.ndarray:
    """Orthonormal basis of the top-k eigenspace of the symmetric matrix w.

    ``lobpcg`` iterates on a Gaussian (m, k) start block drawn from
    ``seed`` for at most ``EIGEN_MAXITER`` iterations.  Below m = 5k,
    where ``lobpcg`` would itself switch to a dense solver, and whenever
    some returned pair's residual ||w u - lambda u|| exceeds the block
    solver's tolerance, the basis comes from ``np.linalg.eigh`` on the
    dense matrix instead.
    """
    m = w.shape[0]
    if m >= 5 * k:
        tol = m * math.sqrt(np.finfo(float).eps)  # lobpcg's own default
        x0 = np.random.default_rng(seed).standard_normal((m, k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # convergence is checked below
            vals, vecs = lobpcg(w, x0, tol=tol, maxiter=EIGEN_MAXITER, largest=True)
        if (np.linalg.norm(w @ vecs - vecs * vals, axis=0) <= tol).all():
            return vecs
    dense = w.toarray() if sp.issparse(w) else np.asarray(w, dtype=float)
    return np.linalg.eigh(dense)[1][:, m - k :]


def spectral_start(w, k: int, seed: int, sizes) -> np.ndarray:
    """Feasible start point from the top-k eigenspace of w.

    Pivoted QR of U^T picks k anchor rows S; ``U U_S^{-1}`` maps them to
    the k unit labels and spreads every other row over the labels in
    proportion to its eigenspace coordinates.  The result does not depend
    on the basis chosen for the eigenspace.  Negative entries are clipped
    before the projection onto the constraint set.
    """
    u = top_eigenvectors(w, k, seed)
    anchors = scipy.linalg.qr(u.T, mode="r", pivoting=True)[1][:k]
    y0 = np.linalg.solve(u[anchors].T, u.T).T
    return project_onto_C(np.maximum(y0, 0.0), sizes)


def initialize(
    w, config: SolverConfig, sizes, *, warnings_out: list[str] | None = None
) -> tuple[np.ndarray, SelectionLabeling, list[float]]:
    """Solve the score-only relaxation from the spectral start.

    ``w`` is the score matrix or its :class:`Contraction`.  The start point
    is :func:`spectral_start` with its eigensolver seeded by
    ``config.seed``; projected gradient descent on the cycle term alone
    refines it, and the blocks are discretized into the initial selection,
    blocks of equal height as one stack.  A line search that stalls, or a
    descent that uses all ``MAX_INNER`` steps, is reported as a
    message appended to ``warnings_out`` when one is given.  Returns
    (y, selection, objective history).
    """
    sizes = tuple(int(p) for p in sizes)
    cycle = Contraction.of(w)
    y0 = spectral_start(cycle.w, config.k, config.seed, sizes)
    y, history, stalled = update_Y(y0, np.zeros_like(y0), cycle, 0.0, sizes)
    if warnings_out is not None:
        if stalled:
            warnings_out.append("line search stalled at init")
        if len(history) > MAX_INNER:  # every step used: history holds the start too
            warnings_out.append(f"max inner steps ({MAX_INNER}) reached at init")
    index = np.empty((len(sizes), config.k), dtype=np.intp)
    for p, images, rows in BlockLayout(sizes).groups():
        index[images] = discretize(y[rows].reshape(-1, p, config.k))
    return y, SelectionLabeling(index, sizes), history


def solve(instance: ProblemInstance, config: SolverConfig) -> SolverState:
    """Run initialization plus the full continuation schedule.

    Each rho stage sweeps (Y to convergence, X, Z) until the combined
    objective stops decreasing relative to ``OUTER_TOL``.  Hitting
    ``MAX_SWEEPS`` first, a stalled line search in any Y update, Y updates
    that use all ``MAX_INNER`` steps (the initial descent's, and one
    message per stage with the count of its sweeps whose update did), and
    projections that reach their round cap (one message with their count,
    in place of the :class:`ProjectionWarning` each one raises) are
    recorded as warnings on the state; other Python warnings
    raised during the solve are shown once it returns.  The trace carries
    the initialization objective per accepted step and one record per
    sweep and stage thereafter.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ProjectionWarning)
        state = _solve(instance, config)
    capped = 0
    for msg in caught:
        if issubclass(msg.category, ProjectionWarning):
            capped += 1
        else:
            warnings.showwarning(msg.message, msg.category, msg.filename, msg.lineno, msg.file, msg.line)
    if capped:
        state.warnings.append(
            f"projection reached its {projection.PROJECTION_MAX_ITER}-round cap in {capped} calls"
        )
    return state


def _solve(instance: ProblemInstance, config: SolverConfig) -> SolverState:
    sizes = instance.layout.sizes
    if config.k > min(sizes):
        raise InfeasibleK(f"k={config.k} exceeds the smallest candidate count {min(sizes)}")
    # y enters the trace as update_Y last evaluated it
    w = Contraction(assemble_block(instance.scores))
    coords, transforms = normalize_coordinates(instance.coordinates)

    trace: list[TraceRecord] = []
    warnings_list: list[str] = []
    y, x, init_history = initialize(w, config, sizes, warnings_out=warnings_list)
    trace.extend(
        TraceRecord("init", t, val, 0.0, 0.0, val) for t, val in enumerate(init_history)
    )
    z = update_Z(x, coords, config.r)

    for rho in config.rho_schedule:
        stage = f"rho={rho:g}"
        parts = objective_components(w, y, x, z, coords, config.lam, rho)
        trace.append(TraceRecord(stage, 0, *parts, sum(parts)))
        converged = False
        capped = 0
        for sweep in range(1, MAX_SWEEPS + 1):
            y, history, stalled = update_Y(y, x.stacked(), w, rho, sizes)
            if stalled:
                warnings_list.append(f"line search stalled at {stage} sweep {sweep}")
            capped += len(history) > MAX_INNER
            x = update_X(y, z, coords, config.lam, rho)
            z = update_Z(x, coords, config.r)
            parts = objective_components(w, y, x, z, coords, config.lam, rho)
            trace.append(TraceRecord(stage, sweep, *parts, sum(parts)))
            prev, total = trace[-2].total, trace[-1].total
            if prev - total <= OUTER_TOL * max(1.0, abs(prev)):
                converged = True
                break
        if capped:
            warnings_list.append(f"max inner steps ({MAX_INNER}) reached in {capped} sweeps at {stage}")
        if not converged:
            warnings_list.append(f"max sweeps ({MAX_SWEEPS}) reached at {stage}")

    return SolverState(
        y=y,
        labeling=x,
        measurement=MeasurementEstimate(
            assemble_measurements(x, instance.coordinates), denormalize_fit(z, transforms)
        ),
        objective_trace=trace,
        warnings=warnings_list,
    )


def selection_objective(w, labeling: SelectionLabeling, coords: list[np.ndarray], lam: float, r: int) -> float:
    """Objective of a binary labeling with the geometric fit optimized out.

    The cycle term is evaluated at the labeling itself and the geometric
    term at the best rank-r fit of the induced measurements, i.e. half the
    energy of the discarded singular values.  ``w`` is the score matrix or
    its :class:`Contraction`; a caller that scores many labelings passes
    one contraction, so ||w||_F^2 is computed once.
    """
    xs = labeling.stacked()
    val = objective_cycle(w, xs)
    if lam:
        m_tilde = assemble_measurements(labeling, coords)
        if r < min(m_tilde.shape):
            s = np.linalg.svd(m_tilde, compute_uv=False)
            val += 0.5 * lam * float((s[r:] ** 2).sum())
    return val
