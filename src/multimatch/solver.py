"""Block coordinate descent for joint feature selection and labeling.

Three variables are updated in turn at each coupling weight rho of an
increasing continuation schedule:

* ``Y``: the m x k relaxed labeling, confined to the convex set handled by
  the projection module, updated by projected gradient descent with Armijo
  backtracking until the subproblem stops improving;
* ``X``: the per-image binary selections, each refreshed exactly by a
  minimum-cost assignment whose cost mixes squared distances to the
  current geometric fit with the relaxed labeling;
* ``Z``: the rank-bounded 2n x k fit to the coordinates of the selected
  features, refreshed exactly by truncated SVD.

Every update is exact or monotone, so the combined objective never
increases within a fixed-rho stage.  Coordinates are preconditioned to a
per-image centered frame of mean norm sqrt(2) so that the geometric weight
acts on the same scale as the score residual; the fit is mapped back to
the input frame on the final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assignment import discretize, solve_lap
from .errors import InfeasibleK
from .model import (
    BlockLayout,
    ProblemInstance,
    SelectionLabeling,
    SolverConfig,
    assemble_block,
)
from .projection import project_onto_C

STALL_ETA = 1e-12


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
    rho: float
    objective_trace: list[TraceRecord]
    layout: BlockLayout
    warnings: list[str] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return not self.warnings


def _frob2(w) -> float:
    if sp.issparse(w):
        return float((w.data**2).sum())
    return float((np.asarray(w) ** 2).sum())


def _inf_norm(w) -> float:
    """Maximum absolute row sum."""
    return float(abs(w).sum(axis=1).max())


def objective_cycle(w, y: np.ndarray) -> float:
    """Quarter squared Frobenius mismatch between the scores and y y^T.

    Evaluated without forming the m x m product: the cross term contracts
    through w @ y and the quartic term through the k x k Gram matrix.
    """
    y = np.asarray(y, dtype=float)
    wy = w @ y
    gram = y.T @ y
    return 0.25 * (_frob2(w) - 2.0 * float(np.vdot(y, wy)) + float((gram * gram).sum()))


def objective_geo(x, z: np.ndarray, coords: list[np.ndarray]) -> float:
    """Half squared residual between selected coordinates and the fit z."""
    blocks = x.assignments if isinstance(x, SelectionLabeling) else x
    total = 0.0
    for i, (xi, ci) in enumerate(zip(blocks, coords)):
        diff = ci @ xi - z[2 * i : 2 * i + 2]
        total += float((diff * diff).sum())
    return 0.5 * total


def objective_total(w, y, x, z, coords, lam: float, rho: float) -> float:
    """Full objective: cycle term + lam * geometric term + coupling term."""
    xs = x.stacked() if isinstance(x, SelectionLabeling) else np.asarray(x, dtype=float)
    val = objective_cycle(w, y)
    if lam:
        val += lam * objective_geo(x, z, coords)
    if rho:
        diff = xs - y
        val += 0.5 * rho * float((diff * diff).sum())
    return val


def assemble_measurements(x, coords: list[np.ndarray]) -> np.ndarray:
    """Stack the coordinates of the selected features into a 2n x k matrix."""
    blocks = x.assignments if isinstance(x, SelectionLabeling) else x
    return np.vstack([ci @ xi for xi, ci in zip(blocks, coords)])


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


def update_Y(
    y: np.ndarray,
    x: np.ndarray,
    w,
    rho: float,
    sizes,
    *,
    eta0: float | None = None,
    backtrack: float = 0.5,
    armijo: float = 1e-4,
    inner_tol: float = 1e-6,
    max_inner: int = 500,
) -> tuple[np.ndarray, list[float], bool]:
    """Projected gradient descent on the relaxed subproblem at fixed x.

    Minimizes 0.25 ||w - y y^T||_F^2 + (rho / 2) ||y - x||_F^2 over the
    constraint set.  Steps follow y <- proj(y - eta * grad) with Armijo
    backtracking along the projection arc; the default initial step is
    1 / (||y||_2^2 + ||w||_inf + rho).  Stops when the relative objective
    decrease falls below ``inner_tol`` or after ``max_inner`` accepted
    steps.  Returns (new y, objective history, stalled flag); the stalled
    flag reports a line search that shrank the step below 1e-12 without
    finding decrease, in which case the current iterate is kept.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    wsq = _frob2(w)
    use_rho = float(rho) != 0.0

    def value(yc: np.ndarray):
        wy = w @ yc
        gram = yc.T @ yc
        val = 0.25 * (wsq - 2.0 * float(np.vdot(yc, wy)) + float((gram * gram).sum()))
        if use_rho:
            diff = yc - x
            val += 0.5 * rho * float((diff * diff).sum())
        return val, wy, gram

    f_cur, wy, gram = value(y)
    history = [f_cur]
    if eta0 is None:
        spectral = float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0
        eta0 = 1.0 / max(spectral + _inf_norm(w) + rho, 1e-12)
    stalled = False
    for _ in range(max_inner):
        grad = y @ gram - wy
        if use_rho:
            grad += rho * (y - x)
        eta = eta0
        accepted = False
        while eta >= STALL_ETA:
            y_new = project_onto_C(y - eta * grad, sizes)
            f_new, wy_new, gram_new = value(y_new)
            decrease = float(np.vdot(grad, y - y_new))
            if f_new <= f_cur - armijo * decrease:
                accepted = True
                break
            eta *= backtrack
        if not accepted:
            stalled = True
            break
        drop = f_cur - f_new
        y, f_cur, wy, gram = y_new, f_new, wy_new, gram_new
        history.append(f_cur)
        if drop <= inner_tol * max(1.0, abs(f_cur)):
            break
    return y, history, stalled


def _squared_distances(ci: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between columns of ci and zi."""
    c2 = (ci * ci).sum(axis=0)[:, None]
    z2 = (zi * zi).sum(axis=0)[None, :]
    return np.maximum(c2 + z2 - 2.0 * (ci.T @ zi), 0.0)


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
    the image's selection with everything else held fixed.
    """
    sizes = [c.shape[1] for c in coords]
    k = y.shape[1]
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    blocks = []
    for i, p in enumerate(sizes):
        yi = y[offsets[i] : offsets[i + 1]]
        if lam:
            cost = lam * _squared_distances(coords[i], z[2 * i : 2 * i + 2])
            cost -= 2.0 * rho * yi
        else:
            cost = -2.0 * rho * yi
        blocks.append(solve_lap(cost).as_matrix(p))
    return SelectionLabeling(blocks, k)


def update_Z(x, coords: list[np.ndarray], r: int) -> np.ndarray:
    """Best rank-r approximation of the stacked selected coordinates."""
    m_tilde = assemble_measurements(x, coords)
    if r >= min(m_tilde.shape):
        return m_tilde.copy()
    u, s, vt = np.linalg.svd(m_tilde, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vt[:r]


def initialize(w, config: SolverConfig, sizes) -> tuple[np.ndarray, SelectionLabeling, list[float]]:
    """Solve the score-only relaxation from a near-uniform start.

    The start point is the uniform feasible matrix (every block entry
    1 / p_i) with a small seeded multiplicative jitter; the exact uniform
    point is invariant under label permutation, so the jitter is what lets
    gradient descent break the label symmetry deterministically per seed.
    One projection maps the jittered point back into the constraint set.
    """
    sizes = tuple(int(p) for p in sizes)
    k = config.k
    rng = np.random.default_rng(config.seed)
    y0 = np.vstack([np.full((p, k), 1.0 / p) for p in sizes])
    if config.init_jitter:
        y0 = y0 * (1.0 + config.init_jitter * rng.random(y0.shape))
    y0 = project_onto_C(y0, sizes)
    y, history, _ = update_Y(
        y0,
        np.zeros_like(y0),
        w,
        0.0,
        sizes,
        eta0=config.eta0,
        backtrack=config.backtrack,
        armijo=config.armijo,
        inner_tol=config.inner_tol,
        max_inner=config.max_inner,
    )
    layout = BlockLayout(sizes)
    x = SelectionLabeling([discretize(block) for block in layout.split(y)], k)
    return y, x, history


def solve(instance: ProblemInstance, config: SolverConfig) -> SolverState:
    """Run initialization plus the full continuation schedule.

    Each rho stage sweeps (Y to convergence, X, Z) until the combined
    objective stops decreasing relative to ``config.outer_tol``; hitting
    ``config.max_sweeps`` first is recorded as a warning on the state.
    The trace carries the initialization objective per accepted step and
    one record per sweep and stage thereafter.
    """
    layout = instance.layout
    sizes = layout.sizes
    if config.k > min(sizes):
        raise InfeasibleK(f"k={config.k} exceeds the smallest candidate count {min(sizes)}")
    w = assemble_block(instance.scores)
    coords_raw = instance.coordinates
    if config.normalize_coords:
        coords, transforms = normalize_coordinates(coords_raw)
    else:
        coords, transforms = coords_raw, None

    trace: list[TraceRecord] = []
    y, x, init_history = initialize(w, config, sizes)
    trace.extend(
        TraceRecord("init", t, val, 0.0, 0.0, val) for t, val in enumerate(init_history)
    )
    z = update_Z(x, coords, config.r)

    warnings_list: list[str] = []
    rho = config.rho_schedule[-1]
    for rho in config.rho_schedule:
        stage = f"rho={rho:g}"
        xs = x.stacked()
        prev = _record(trace, stage, 0, w, y, x, xs, z, coords, config.lam, rho)
        converged = False
        for sweep in range(1, config.max_sweeps + 1):
            y, _, _ = update_Y(
                y,
                xs,
                w,
                rho,
                sizes,
                eta0=config.eta0,
                backtrack=config.backtrack,
                armijo=config.armijo,
                inner_tol=config.inner_tol,
                max_inner=config.max_inner,
            )
            x = update_X(y, z, coords, config.lam, rho)
            xs = x.stacked()
            z = update_Z(x, coords, config.r)
            total = _record(trace, stage, sweep, w, y, x, xs, z, coords, config.lam, rho)
            if prev - total <= config.outer_tol * max(1.0, abs(prev)):
                converged = True
                break
            prev = total
        if not converged:
            warnings_list.append(f"max sweeps ({config.max_sweeps}) reached at {stage}")

    m_pixel = assemble_measurements(x, coords_raw)
    z_pixel = denormalize_fit(z, transforms) if transforms is not None else z.copy()
    return SolverState(
        y=y,
        labeling=x,
        measurement=MeasurementEstimate(m_pixel, z_pixel),
        rho=float(rho),
        objective_trace=trace,
        layout=layout,
        warnings=warnings_list,
    )


def _record(trace, stage, iteration, w, y, x, xs, z, coords, lam, rho) -> float:
    cycle = objective_cycle(w, y)
    geo = lam * objective_geo(x, z, coords) if lam else 0.0
    diff = xs - y
    coupling = 0.5 * rho * float((diff * diff).sum())
    total = cycle + geo + coupling
    trace.append(TraceRecord(stage, iteration, cycle, geo, coupling, total))
    return total


def selection_objective(w, labeling: SelectionLabeling, coords: list[np.ndarray], lam: float, r: int) -> float:
    """Objective of a binary labeling with the geometric fit optimized out.

    The cycle term is evaluated at the labeling itself and the geometric
    term at the best rank-r fit of the induced measurements, i.e. half the
    energy of the discarded singular values.
    """
    xs = labeling.stacked()
    val = objective_cycle(w, xs)
    if lam:
        m_tilde = assemble_measurements(labeling, coords)
        if r < min(m_tilde.shape):
            s = np.linalg.svd(m_tilde, compute_uv=False)
            val += 0.5 * lam * float((s[r:] ** 2).sum())
    return val
