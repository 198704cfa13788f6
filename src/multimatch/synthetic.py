"""Planted multi-image matching problems with known ground truth.

A rigid 3D point cloud is observed by random orthographic cameras; each
image receives all projected scene points (optionally perturbed by
Gaussian noise) plus uniformly placed outlier candidates, in shuffled
order.  Pairwise score blocks are built from the true correspondences and
then corrupted by reassigning a chosen fraction of each block's matches,
which mimics a matcher that confuses candidates rather than additive
score noise.  Tiny instances can be solved exactly by enumeration, which
serves as the oracle for optimality checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InstanceTooLarge, MatchingError
from .model import (
    BlockLayout,
    FeatureSet,
    PairwiseScores,
    ProblemInstance,
    SelectionLabeling,
    SolverConfig,
    assemble_block,
    validate_instance,
)
from .solver import Contraction, normalize_coordinates, selection_objective

BRUTE_FORCE_BUDGET = 1_000_000


@dataclass(frozen=True)
class Camera:
    """Orthographic view: two projection rows and an image-plane shift."""

    projection: np.ndarray  # (2, 3)
    translation: np.ndarray  # (2,)

    def project(self, points: np.ndarray) -> np.ndarray:
        return self.projection @ points + self.translation[:, None]


@dataclass
class PlantedInstance:
    """A validated problem plus everything needed to score a solution."""

    instance: ProblemInstance
    ground_truth: SelectionLabeling  # one label per scene point
    scene: np.ndarray  # (3, u)
    cameras: list[Camera]

    @property
    def universe_size(self) -> int:
        return self.scene.shape[1]

    @property
    def truth_labels(self) -> list[np.ndarray]:
        return self.ground_truth.labels()

    def true_measurement(self) -> np.ndarray:
        """Noiseless stacked projections of the scene, one column per point."""
        return np.vstack([cam.project(self.scene) for cam in self.cameras])


def generate(
    n: int,
    u: int,
    outliers_per_image: int = 0,
    coord_noise_sigma: float = 0.0,
    match_corruption_rate: float = 0.0,
    seed: int = 0,
) -> PlantedInstance:
    """Sample a planted instance; identical seeds give identical instances.

    Scene points are uniform in the unit cube and camera rotations are
    drawn Haar-uniform via QR of Gaussian matrices (keeping the first two
    rows), so every noiseless stacked measurement matrix has rank at most
    four.  Outliers are uniform over the bounding box of each image's
    projected points.  Per block, round(rate * u) of the true matches are
    reassigned to targets drawn without replacement from the block's free
    column candidates plus their own.  These draws come last, for all
    pairs i < j at once in row-major pair order: one row-wise permutation
    picks each pair's victims, a second its targets.  At rate 0 nothing is
    drawn for the pairs.
    """
    if n < 2:
        raise MatchingError("need at least two images")
    if u < 1:
        raise MatchingError("need at least one scene point")
    if outliers_per_image < 0 or coord_noise_sigma < 0:
        raise MatchingError("outlier count and noise sigma must be nonnegative")
    if not 0.0 <= match_corruption_rate <= 1.0:
        raise MatchingError("corruption rate must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    scene = rng.uniform(0.0, 1.0, size=(3, u))
    p = u + outliers_per_image

    cameras: list[Camera] = []
    features: list[FeatureSet] = []
    positions: list[np.ndarray] = []  # positions[i][s] = candidate index of scene point s in image i
    for i in range(n):
        q, rmat = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(rmat))  # Haar-uniform orthogonal frame
        cam = Camera(q[:2], rng.uniform(-0.5, 0.5, size=2))
        cameras.append(cam)

        inliers = cam.project(scene)
        if coord_noise_sigma:
            inliers = inliers + rng.normal(0.0, coord_noise_sigma, size=inliers.shape)
        if outliers_per_image:
            lo = inliers.min(axis=1)
            hi = inliers.max(axis=1)
            degenerate = hi - lo < 1e-6
            lo[degenerate] -= 0.5
            hi[degenerate] += 0.5
            outliers = rng.uniform(
                lo[:, None], hi[:, None], size=(2, outliers_per_image)
            )
            coords = np.concatenate([inliers, outliers], axis=1)
        else:
            coords = inliers
        perm = rng.permutation(p)
        # shuffled candidate t is original column perm[t]; originals < u are inliers
        features.append(FeatureSet(f"img{i:03d}", coords[:, perm]))
        positions.append(np.argsort(perm)[:u])

    table = np.stack(positions)
    matrix = _planted_scores(rng, table, p, int(round(match_corruption_rate * u)))
    layout = BlockLayout((p,) * n)
    instance = validate_instance(features, PairwiseScores(matrix, layout), SolverConfig(k=u))
    return PlantedInstance(instance, SelectionLabeling(table, layout), scene, cameras)


def _planted_scores(rng: np.random.Generator, positions: np.ndarray, p: int, n_corrupt: int) -> sp.csr_matrix:
    """Score matrix of the true matches of every pair i < j, n_corrupt of each block's moved.

    ``positions`` is the (n, u) table of each scene point's candidate per
    image.  Each pair's victims are the first n_corrupt entries of its own
    permutation of the u matches, and their targets the first n_corrupt
    of a permutation of its pool: the victims' targets plus image j's
    p - u free candidates.  The (pairs, u) temporaries die on return,
    before the instance is validated.
    """
    n, u = positions.shape
    pi, pj = np.triu_indices(n, 1)
    targets = positions[pj]
    if n_corrupt:
        victims = rng.permuted(np.broadcast_to(np.arange(u, dtype=np.int32), targets.shape), axis=1)
        victims = victims[:, :n_corrupt]
        taken = np.zeros((n, p), dtype=bool)
        taken[np.arange(n)[:, None], positions] = True
        free = np.nonzero(~taken)[1].reshape(n, p - u)
        pool = np.concatenate([np.take_along_axis(targets, victims, axis=1), free[pj]], axis=1)
        picks = rng.permuted(pool, axis=1)[:, :n_corrupt]
        np.put_along_axis(targets, victims, picks, axis=1)
    rows = (pi * p)[:, None] + positions[pi]
    cols = (pj * p)[:, None] + targets
    return sp.csr_matrix((np.ones(rows.size), (rows.ravel(), cols.ravel())), shape=(n * p, n * p))


def brute_force_solve(
    instance: ProblemInstance,
    config: SolverConfig,
) -> tuple[SelectionLabeling, float]:
    """Enumerate every labeling and return the global optimum.

    The objective matches the solver's own accounting: the score term at
    the binary labeling and the geometric term at its optimal rank-r fit,
    in the solver's normalized coordinate frame.  Refuses instances whose
    labeling count exceeds ``BRUTE_FORCE_BUDGET``.
    """
    layout = instance.layout
    k = config.k
    count = 1
    for p in layout.sizes:
        count *= math.perm(p, k)
        if count > BRUTE_FORCE_BUDGET:
            raise InstanceTooLarge(
                f"{count}+ labelings exceed the enumeration budget {BRUTE_FORCE_BUDGET}"
            )
    cycle = Contraction(assemble_block(instance.scores))  # ||w||_F^2 once for all labelings
    points = normalize_coordinates(np.hstack(instance.coordinates), layout)[0]

    best_obj = np.inf
    best: SelectionLabeling | None = None
    per_image = [list(itertools.permutations(range(p), k)) for p in layout.sizes]
    for combo in itertools.product(*per_image):
        labeling = SelectionLabeling(combo, layout)
        obj = selection_objective(cycle, labeling, points, config.lam, config.r)
        if obj < best_obj:
            best_obj = obj
            best = labeling
    assert best is not None
    return best, float(best_obj)
