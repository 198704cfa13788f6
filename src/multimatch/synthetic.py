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

from .errors import InstanceTooLarge
from .model import (
    FeatureSet,
    PairwiseScores,
    ProblemInstance,
    SelectionLabeling,
    SolverConfig,
    assemble_block,
    validate_instance,
)
from .solver import normalize_coordinates, selection_objective

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
    ground_truth: SelectionLabeling  # p_i x u blocks, one column per scene point
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
    column candidates plus their own.
    """
    if n < 2:
        raise ValueError("need at least two images")
    if u < 1:
        raise ValueError("need at least one scene point")
    if outliers_per_image < 0 or coord_noise_sigma < 0:
        raise ValueError("outlier count and noise sigma must be nonnegative")
    if not 0.0 <= match_corruption_rate <= 1.0:
        raise ValueError("corruption rate must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    scene = rng.uniform(0.0, 1.0, size=(3, u))
    p = u + outliers_per_image

    cameras: list[Camera] = []
    features: list[FeatureSet] = []
    labels: list[np.ndarray] = []
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
        label = np.where(perm < u, perm, -1)
        features.append(FeatureSet(f"img{i:03d}", coords[:, perm]))
        labels.append(label)

    # positions[i][s] = candidate index of scene point s in image i
    positions = []
    for lab in labels:
        pos = np.empty(u, dtype=int)
        sel = lab >= 0
        pos[lab[sel]] = np.nonzero(sel)[0]
        positions.append(pos)

    n_corrupt = int(round(match_corruption_rate * u))
    # free[j] = candidates of image j that no scene point lands on
    free = [np.setdiff1d(np.arange(p), pos) for pos in positions] if n_corrupt else []
    rows, cols = [], []
    for i in range(n):
        for j in range(i + 1, n):
            targets = positions[j].copy()
            if n_corrupt:
                victims = rng.choice(u, size=n_corrupt, replace=False)
                pool = np.concatenate([targets[victims], free[j]])
                targets[victims] = rng.choice(pool, size=n_corrupt, replace=False)
            rows.append(i * p + positions[i])
            cols.append(j * p + targets)

    rows, cols = np.concatenate(rows), np.concatenate(cols)
    matrix = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n * p, n * p))
    scores = PairwiseScores(matrix, tuple(p for _ in range(n)))
    instance = validate_instance(features, scores, SolverConfig(k=u))
    ground_truth = SelectionLabeling.from_labels(labels, u)
    return PlantedInstance(instance, ground_truth, scene, cameras)


def brute_force_solve(
    instance: ProblemInstance,
    config: SolverConfig,
    budget: int = BRUTE_FORCE_BUDGET,
) -> tuple[SelectionLabeling, float]:
    """Enumerate every labeling and return the global optimum.

    The objective matches the solver's own accounting: the score term at
    the binary labeling and the geometric term at its optimal rank-r fit,
    in the solver's normalized coordinate frame.  Refuses instances whose
    labeling count exceeds ``budget``.
    """
    sizes = [f.p for f in instance.features]
    k = config.k
    count = 1
    for p in sizes:
        count *= math.perm(p, k)
        if count > budget:
            raise InstanceTooLarge(
                f"{count}+ labelings exceed the enumeration budget {budget}"
            )
    w = assemble_block(instance.scores).toarray()
    coords, _ = normalize_coordinates(instance.coordinates)

    best_obj = np.inf
    best: SelectionLabeling | None = None
    per_image = [list(itertools.permutations(range(p), k)) for p in sizes]
    for combo in itertools.product(*per_image):
        blocks = []
        for p, rows in zip(sizes, combo):
            x = np.zeros((p, k), dtype=int)
            x[list(rows), np.arange(k)] = 1
            blocks.append(x)
        labeling = SelectionLabeling(blocks, k)
        obj = selection_objective(w, labeling, coords, config.lam, config.r)
        if obj < best_obj:
            best_obj = obj
            best = labeling
    assert best is not None
    return best, float(best_obj)
