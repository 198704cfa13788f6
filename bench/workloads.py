"""The benchmark's workloads and the inputs each one builds from its seed.

Every workload is a fixed number of planted instances.  Instance t of a
run with seed s is generated from seed ``1000 * s + t``, so one seed always
gives the same inputs and a claim can be rechecked on a seed nobody tuned on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # images
    universe: int  # repeatable scene points = k
    outliers: int  # clutter candidates per image
    sigma: float  # coordinate noise
    corruption: float  # share of each planted score block's matches reassigned
    instances: int
    descriptor_dim: int = 0  # > 0: scores come from descriptors via the frontend
    descriptor_noise: float = 0.0  # per-dimension noise on an inlier's descriptor


WORKLOADS = {
    w.name: w
    for w in (
        # Many clutter candidates: the per-image LAP in update_X dominates
        # solve, since every p x k cost is padded to p x p.  Corruption 0.6
        # spread solve times across instances twice as much as 0.5.  Run by
        # hand only: BENCHMARK.json leaves it out for time (see README).
        Workload("clutter", n=12, universe=10, outliers=40, sigma=0.02, corruption=0.5, instances=4),
        # Scale in images: O(n^2) dense score blocks drive set-up, memory,
        # file size and eval; init and projection run over m = 2400 rows.
        Workload("crowd", n=200, universe=8, outliers=4, sigma=0.01, corruption=0.2, instances=5),
        # The real-input path: scores come from 190 frontend LAPs on noisy
        # descriptors, and the solve repairs the matcher's errors.  More
        # clutter makes solve times bimodal (see README), so one per image.
        Workload(
            "descriptors", n=20, universe=12, outliers=1, sigma=0.01, corruption=0.0, instances=18,
            descriptor_dim=32, descriptor_noise=0.25,
        ),
    )
}


def instance_seed(run_seed: int, t: int) -> int:
    return 1000 * run_seed + t


def _unit_columns(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=0, keepdims=True)


def descriptor_features(mm, planted, dim: int, noise: float, seed: int):
    """Give every candidate a unit descriptor.

    Each scene point has a random descriptor; an inlier candidate carries a
    noisy copy of its scene point's, and a clutter candidate a random one.
    """
    rng = np.random.default_rng((seed, 1))
    scene = _unit_columns(rng.normal(size=(dim, planted.universe_size)))
    features = []
    for f, lab in zip(planted.instance.features, planted.truth_labels):
        desc = rng.normal(size=(dim, f.p))
        inl = lab >= 0
        desc[:, inl] = scene[:, lab[inl]] + noise * rng.normal(size=(dim, int(inl.sum())))
        features.append(mm.FeatureSet(f.image_id, f.coordinates, _unit_columns(desc)))
    return features


@dataclass
class Instance:
    """One instance's inputs and the files its pipeline reads and writes."""

    index: int
    features: list
    truth: list[np.ndarray]
    problem: Path
    truth_file: Path
    labeling: Path
    cloud: Path
    solver_instance: object = None  # validated ProblemInstance for multimatch.solve

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(f.p for f in self.features)


def build_instance(mm, w: Workload, run_seed: int, t: int, work: Path) -> Instance:
    """Generate instance t and write the files its pipeline starts from."""
    seed = instance_seed(run_seed, t)
    planted = mm.synthetic.generate(
        w.n, w.universe, outliers_per_image=w.outliers, coord_noise_sigma=w.sigma,
        match_corruption_rate=w.corruption, seed=seed,
    )
    inst = Instance(
        index=t,
        features=planted.instance.features,
        truth=planted.truth_labels,
        problem=work / f"problem{t}.json",
        truth_file=work / f"truth{t}.json",
        labeling=work / f"labeling{t}.json",
        cloud=work / f"cloud{t}.txt",
    )
    ids = [f.image_id for f in inst.features]
    if w.descriptor_dim:
        # the pipeline writes the problem file after matching descriptors
        inst.features = descriptor_features(mm, planted, w.descriptor_dim, w.descriptor_noise, seed)
    else:
        mm.serialize.save_problem(inst.problem, inst.features, planted.instance.scores, {"k": w.universe})
        inst.solver_instance = planted.instance
    mm.serialize.save_truth(inst.truth_file, inst.truth, ids, w.universe)
    return inst
