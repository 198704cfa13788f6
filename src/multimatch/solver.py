"""Block coordinate descent for joint feature selection and labeling.

Three variables are updated in turn at each coupling weight rho of an
increasing continuation schedule, which ends early after the first stage
that leaves the selection X where it found it:

* ``Y``: the m x k relaxed labeling, confined to the convex set handled by
  the projection module, updated by projected gradient descent with Armijo
  backtracking until the subproblem stops improving;
* ``X``: the per-image selections, each refreshed exactly by a
  minimum-cost assignment whose cost mixes squared distances to the
  current geometric fit with the relaxed labeling;
* ``Z``: the rank-bounded 2n x k fit to the coordinates of the selected
  features, refreshed exactly by truncated SVD.

Every update is exact or monotone, so the combined objective never
increases within a fixed-rho stage.  A solve stacks the coordinates once,
into one (2, m) array whose columns follow the rows of Y, and
preconditions them to a per-image centered frame of mean norm sqrt(2) so
that the geometric weight acts on the same scale as the score residual;
the fit is mapped back to the input frame on the final state.

The cycle term 0.25 ||W - Y Y^T||_F^2 has one owner, :class:`Contraction`:
its value, its gradient (Y Y^T - W) Y and the curvature bound behind
the step sizes all contract through W Y and the k x k Gram matrix Y^T Y,
kept for the last iterate evaluated.  The functions of the term take a
contraction (any object with ``product``, ``row_sums``, ``value``,
``gradient`` and ``step_bound``), not W; a solve builds one and passes
it everywhere, so W is contracted once per iterate, and passes the
instance's block layout and the stacked coordinates the same way.  It
is built from the canonical scores, which store the upper triangle of
W: every product is taken with that triangle and its transpose, and no
mirrored W is formed.  The geometric term has one owner too:
:func:`update_Z` returns it with the fit it makes.  The trace and
:func:`selection_objective` both sum the terms through
:func:`objective_components`.

The start is spectral.  Consistent scores factor as W = Y Y^T, so the
top-k eigenvectors U of W span the labeling; k anchor rows S, chosen by
pivoted QR of U^T, turn that basis into the start point U U_S^{-1}, which
is clipped at zero and projected; its per-image rounding is the initial
selection, and the first rho stage runs the solve's first descent.  The
eigenvectors come from a block eigensolver
(the top eigenvalue of consistent scores is repeated k times, which a
single-vector Lanczos method cannot resolve) started from k columns of W
itself: for consistent scores those columns lie in the top-k eigenspace.
They are the columns of the image with the largest absolute row sums,
whose identity diagonal block gives them rank k, ranked by pivoted QR;
the image with the most evidence keeps the block off the eigenvalue-1
subspace of an image that matches nothing.  The solver stops at a
residual of ``EIGEN_TOL`` times ||W||_inf, the precision the descent that
follows needs, and the start involves no random draw.  A dense
eigensolver takes over on small problems and whenever the block solver
misses its tolerance.  When the solve ends, its labels are put in the
order of image 0's chosen candidates, so that two solves that select the
same candidates write the same bytes.

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
from .errors import InfeasibleK, MatchingError
from .model import (
    BlockLayout,
    ProblemInstance,
    SelectionLabeling,
    SolverConfig,
    assemble_block,  # not called here: bench/spans.py wraps this binding, and its install needs it
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
EIGEN_TOL = 1e-4  # lobpcg's residual tolerance, as a multiple of ||W||_inf


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
    """The cycle term 0.25 ||w - y y^T||_F^2 of one symmetric score matrix w, and the only reader of w.

    Takes u, the upper triangle of w with its diagonal, such as the matrix
    of validated scores; a stored entry below the diagonal raises
    :class:`MatchingError`, so a full w is refused rather than counted
    twice.  u is stored once, as float CSR (a CSR input keeps its arrays),
    beside its transpose view, and w is never formed: ``product(y)`` =
    w @ y = u y + u^T y - diag(u) y is the one product taken with it,
    ``wsq`` = ||w||_F^2 = 2 ||u||_F^2 - ||diag u||^2, and ``row_sums`` =
    |w| 1 = |u| 1 + |u|^T 1 - |diag u|, whose largest is ||w||_inf.
    ``value(y)``, ``gradient(y)`` = (y y^T - w) y and ``step_bound(y)`` =
    ||y||_2^2 + ||w||_inf read w @ y and y^T y from one slot that holds
    them for the last iterate evaluated, which the next ``update_Y`` call
    and the trace record after one reuse.  The slot is keyed on the
    array's identity, so an evaluated iterate must not be modified in place.
    """

    def __init__(self, u):
        self._u = sp.csr_matrix(u, dtype=float)
        rows = np.repeat(np.arange(self._u.shape[0]), np.diff(self._u.indptr))
        below = np.flatnonzero(self._u.indices < rows)
        if below.size:
            t = below[0]
            raise MatchingError(
                f"score matrix stores entry ({rows[t]}, {self._u.indices[t]}) below the diagonal; "
                "pass the upper triangle of w"
            )
        self._ut = self._u.T  # a view on u's arrays, built once
        self._diag = self._u.diagonal()
        self.wsq = float(2.0 * (self._u.data**2).sum() - (self._diag**2).sum())
        mag = abs(self._u)
        self.row_sums = np.asarray(mag.sum(axis=1)).ravel() + np.asarray(mag.sum(axis=0)).ravel() - abs(self._diag)
        self._y = self._wy = self._gram = None

    def product(self, y: np.ndarray) -> np.ndarray:
        """w @ y, the one product with w, from u and its transpose view."""
        out = self._u @ y
        out += self._ut @ y
        out -= (self._diag * y.T).T  # the diagonal, counted by both halves
        return out

    def _contract(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if y is not self._y:
            self._y, self._wy, self._gram = y, self.product(y), y.T @ y
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
        gram = self._contract(y)[1]
        return (float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0) + float(self.row_sums.max())


def _coupling(y: np.ndarray, xs: np.ndarray, rho: float) -> float:
    if not rho:
        return 0.0
    diff = y - xs
    return 0.5 * rho * float((diff * diff).sum())


def objective_components(cycle, y, xs, geo: float, lam: float, rho: float) -> tuple[float, float, float]:
    """The (cycle, lam * geometric, coupling) terms of the full objective.

    Their sum is the objective the solver minimizes; a trace record stores
    the three terms and that sum.  ``cycle`` is the contraction of the
    score matrix, whose slot already holds y after an ``update_Y`` call
    that returned it; ``xs`` is the stacked binary selection and ``geo``
    the geometric term that :func:`update_Z` returned with its fit.
    """
    return cycle.value(y), lam * geo, _coupling(y, xs, rho)


def assemble_measurements(x: SelectionLabeling, coords: list[np.ndarray]) -> np.ndarray:
    """Stack the coordinates of the selected features into a 2n x k matrix.

    ``coords`` is a list of (2, p) arrays, per image or one (2, m) array,
    whose columns laid end to end follow ``x``'s layout order.
    """
    chosen = np.hstack(coords)[:, x.stacked_rows()]  # (2, n, k)
    return np.ascontiguousarray(chosen.transpose(1, 0, 2)).reshape(2 * x.n, x.k)


def normalize_coordinates(points: np.ndarray, layout: BlockLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-image similarity normalization: centroid to origin, mean norm sqrt(2).

    ``points`` is the (2, m) array of every candidate's coordinates in
    ``layout`` order.  Returns the normalized (2, m) array, the (n,)
    scales and the (2, n) centers that :func:`denormalize_fit` undoes the
    transform with.  The scales and centers of images of equal height are
    computed as one stack.
    """
    scale, center = np.empty(layout.n), np.empty((2, layout.n))
    for p, images, rows in layout.groups():
        block = points[:, rows].reshape(2, -1, p)
        center[:, images] = block.mean(axis=2)
        scale[images] = np.linalg.norm(block - center[:, images, None], axis=0).mean(axis=1) / math.sqrt(2.0)
    scale[scale < 1e-12] = 1.0
    image = layout.candidate_images()
    return (points - center[:, image]) / scale[image], scale, center


def denormalize_fit(z: np.ndarray, scale: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Map a (2n, k) fit from the normalized frame back to input coordinates."""
    return np.repeat(scale, 2)[:, None] * z + center.T.reshape(-1, 1)


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


def update_Y(y: np.ndarray, x: np.ndarray, cycle, rho: float, layout: BlockLayout) -> tuple[np.ndarray, list[float], bool]:
    """Projected gradient descent on the relaxed subproblem at fixed x.

    Minimizes 0.25 ||w - y y^T||_F^2 + (rho / 2) ||y - x||_F^2 over the
    constraint set of ``layout``'s blocks.  ``cycle`` is the contraction
    of w, which supplies the first term's value, gradient and step bound;
    one carried from call to call reuses its evaluation of y when it holds
    one, and ends holding the returned y's unless the line search stalled.
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
            y_new = project_onto_C(y - eta * grad, layout)
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


def update_X(y: np.ndarray, z: np.ndarray, points: np.ndarray, lam: float, rho: float, layout: BlockLayout) -> SelectionLabeling:
    """Exact per-image refresh of the binary selection at fixed y and z.

    Image i solves a k-column assignment with cost
    lam * D(points_i, z_i) - 2 rho y_i, where D holds squared distances
    from its candidates to its fit columns; this minimizes the full
    objective over the image's selection with everything else held fixed.
    ``points`` is the (2, m) coordinate array in ``layout`` order, and
    images of equal candidate count are solved as one stack.
    """
    k = y.shape[1]
    index = np.empty((layout.n, k), dtype=np.intp)
    for p, images, rows in layout.groups():
        ci = points[:, rows].reshape(2, -1, p).transpose(1, 0, 2)  # (images, 2, p)
        cost = lam * _squared_distances(ci, z.reshape(-1, 2, k)[images]) - 2.0 * rho * y[rows].reshape(-1, p, k)
        index[images] = solve_lap(cost)
    return SelectionLabeling(index, layout)


def update_Z(x: SelectionLabeling, points: np.ndarray, r: int) -> tuple[np.ndarray, float]:
    """Best rank-r fit z of the selected coordinates, and the geometric term at z.

    ``points`` is the (2, m) coordinate array in ``x``'s layout order.
    The term is half the squared residual, summed per image and then in
    sequence over the images, an order independent of numpy's blocking.
    """
    m_tilde = assemble_measurements(x, [points])
    if r >= min(m_tilde.shape):
        return m_tilde.copy(), 0.0
    u, s, vt = np.linalg.svd(m_tilde, full_matrices=False)
    z = (u[:, :r] * s[:r]) @ vt[:r]
    per_image = np.square(m_tilde - z).reshape(x.n, -1).sum(axis=1)
    return z, 0.5 * float(np.cumsum(per_image)[-1])


def top_eigenvectors(cycle, k: int, layout: BlockLayout) -> np.ndarray:
    """Orthonormal basis of the top-k eigenspace of the symmetric score matrix w of ``cycle``.

    ``cycle`` is the :class:`Contraction` of w, read through ``product``
    and ``row_sums`` alone.  ``lobpcg`` starts from the k columns of w,
    ranked first by pivoted QR, of the image of ``layout`` whose rows have
    the largest summed absolute row sums; the image's identity diagonal
    block gives them rank k.  It runs for at most ``EIGEN_MAXITER``
    iterations to a residual of ``EIGEN_TOL * ||w||_inf``.  Below m = 5k,
    where ``lobpcg`` would itself switch to a dense solver, and whenever
    some returned pair's residual ||w u - lambda u||, as ``lobpcg`` reports
    it, exceeds that tolerance, ``np.linalg.eigh`` of w gives the basis
    instead.  The result is a function of w and the layout alone.
    """
    m = layout.m
    if m >= 5 * k:
        tol = EIGEN_TOL * float(cycle.row_sums.max())
        image = int(np.argmax(np.bincount(layout.candidate_images(), weights=cycle.row_sums, minlength=layout.n)))
        block = cycle.product(np.eye(m, layout.sizes[image], -layout.offsets[image]))  # the image's columns
        x0 = block[:, scipy.linalg.qr(block, mode="r", pivoting=True)[1][:k]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # convergence is checked below
            vecs, residuals = lobpcg(cycle.product, x0, tol=tol, maxiter=EIGEN_MAXITER, largest=True, retResidualNormsHistory=True)[1:]
        if (residuals[-1] <= tol).all():  # the last entry holds the returned pairs' residuals
            return vecs
    return np.linalg.eigh(cycle.product(np.eye(m)))[1][:, m - k :]


def spectral_start(cycle, k: int, layout: BlockLayout) -> np.ndarray:
    """Feasible start point from the top-k eigenspace of ``cycle``'s score matrix, over ``layout``'s blocks.

    The eigenspace comes from :func:`top_eigenvectors` of the contraction
    ``cycle``.  Pivoted QR of U^T picks k anchor rows S;
    ``U U_S^{-1}`` maps them to the k unit labels and spreads every other
    row over the labels in proportion to its eigenspace coordinates.  The
    result does not depend on the basis chosen for the eigenspace.
    Negative entries are clipped before the projection onto the constraint
    set.
    """
    u = top_eigenvectors(cycle, k, layout)
    anchors = scipy.linalg.qr(u.T, mode="r", pivoting=True)[1][:k]
    y0 = np.linalg.solve(u[anchors].T, u.T).T
    return project_onto_C(np.maximum(y0, 0.0), layout)


def initialize(cycle, config: SolverConfig, layout: BlockLayout) -> tuple[np.ndarray, SelectionLabeling]:
    """The spectral start and its rounding: (y, the initial selection).

    y is :func:`spectral_start` of the contraction ``cycle``; ``layout``'s
    blocks of it are discretized into the selection, blocks of equal
    height as one stack.  The first rho stage does the descent.
    """
    y = spectral_start(cycle, config.k, layout)
    index = np.empty((layout.n, config.k), dtype=np.intp)
    for p, images, rows in layout.groups():
        index[images] = discretize(y[rows].reshape(-1, p, config.k))
    return y, SelectionLabeling(index, layout)


def solve(instance: ProblemInstance, config: SolverConfig) -> SolverState:
    """Run initialization plus the continuation schedule, up to its first stage that keeps X.

    Each rho stage sweeps (Y to convergence, X, Z) until the combined
    objective stops decreasing relative to ``OUTER_TOL``.  The schedule
    is an upper limit: the continuation ends after the first stage whose
    last selection equals the one it started from, since the output is
    the selection and the later stages only pull Y closer to it.  The
    rule is a heuristic; a later stage could still have changed X.  Hitting
    ``MAX_SWEEPS`` first, Y updates whose line search stalled and Y updates
    that use all ``MAX_INNER`` steps (per stage one message of each kind
    with the count of its sweeps), and projections that reach their round
    cap (one message with their count, in place of the
    :class:`ProjectionWarning` each one raises) are recorded as warnings on
    the state, for the stages that ran; other Python warnings raised during
    the solve are shown once it returns, not counted on the state, and
    under the default filter once per solve rather than once per call
    site, since the solve records them afresh.  The trace carries one
    ``init`` record, the cycle term of the start, and then one record per
    sweep of each stage that ran.  The returned labels are ordered by image
    0's chosen candidate, and y and the fit follow that order; the trace
    does not depend on it.
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
    layout = instance.layout
    if config.k > min(layout.sizes):
        raise InfeasibleK(f"k={config.k} exceeds the smallest candidate count {min(layout.sizes)}")
    # y enters the trace as update_Y last evaluated it
    cycle = Contraction(instance.scores.matrix)
    raw = np.hstack(instance.coordinates)
    points, scale, center = normalize_coordinates(raw, layout)

    trace: list[TraceRecord] = []
    warnings_list: list[str] = []
    y, x = initialize(cycle, config, layout)
    f0 = cycle.value(y)
    trace.append(TraceRecord("init", 0, f0, 0.0, 0.0, f0))
    xs = x.stacked()
    z, geo = update_Z(x, points, config.r)

    for rho in config.rho_schedule:
        stage = f"rho={rho:g}"
        start = x.index
        parts = objective_components(cycle, y, xs, geo, config.lam, rho)
        trace.append(TraceRecord(stage, 0, *parts, sum(parts)))
        converged = False
        stalls = capped = 0
        for sweep in range(1, MAX_SWEEPS + 1):
            y, history, stalled = update_Y(y, xs, cycle, rho, layout)
            stalls += stalled
            capped += len(history) > MAX_INNER
            x = update_X(y, z, points, config.lam, rho, layout)
            xs = x.stacked()
            z, geo = update_Z(x, points, config.r)
            parts = objective_components(cycle, y, xs, geo, config.lam, rho)
            trace.append(TraceRecord(stage, sweep, *parts, sum(parts)))
            prev, total = trace[-2].total, trace[-1].total
            if prev - total <= OUTER_TOL * max(1.0, abs(prev)):
                converged = True
                break
        if stalls:
            warnings_list.append(f"line search stalled in {stalls} sweeps at {stage}")
        if capped:
            warnings_list.append(f"max inner steps ({MAX_INNER}) reached in {capped} sweeps at {stage}")
        if not converged:
            warnings_list.append(f"max sweeps ({MAX_SWEEPS}) reached at {stage}")
        if np.array_equal(x.index, start):  # X is the output: a stage that kept it ends the continuation
            break

    # canonical label order: by image 0's chosen candidate, the same permutation for every variable
    order = np.argsort(x.index[0])
    x, y, z = SelectionLabeling(x.index[:, order], layout), y[:, order], z[:, order]
    return SolverState(
        y=y,
        labeling=x,
        measurement=MeasurementEstimate(assemble_measurements(x, [raw]), denormalize_fit(z, scale, center)),
        objective_trace=trace,
        warnings=warnings_list,
    )


def selection_objective(cycle, labeling: SelectionLabeling, points: np.ndarray, lam: float, r: int) -> float:
    """Objective of a binary labeling with the geometric fit optimized out.

    The total a trace records at y = x = the labeling and z its rank-r
    fit to ``points``, the (2, m) coordinate array in the labeling's
    layout order.  ``cycle`` is the contraction of the score matrix; a
    caller that scores many labelings passes the same one, so ||w||_F^2
    is computed once.
    """
    xs = labeling.stacked()
    return sum(objective_components(cycle, xs, xs, update_Z(labeling, points, r)[1], lam, 0.0))
