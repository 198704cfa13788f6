"""Problem model: feature sets, pairwise score blocks, and selection labelings.

A matching problem is posed on a collection of n images.  Image i
contributes p_i candidate feature points (2D coordinates, optionally a
unit-norm descriptor per candidate) and every image pair (i, j) carries a
p_i x p_j score block whose entries grade candidate-to-candidate matches;
the blocks are held together as one sparse matrix over all candidates.
A solution selects k candidates per image and labels them consistently,
encoded as per-image binary matrices with row sums at most one and column
sums exactly one (each of the k labels is realized once in every image).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, InfeasibleK, NonFiniteEntry, MatchingError

UNIT_NORM_TOL = 1e-6
SCORE_RANGE_SLACK = 1e-9


@dataclass(frozen=True)
class BlockLayout:
    """Row layout of per-image blocks inside stacked m x k matrices."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or any(int(p) < 1 for p in self.sizes):
            raise DimensionMismatch("every image must contribute at least one candidate")
        object.__setattr__(self, "sizes", tuple(int(p) for p in self.sizes))

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def m(self) -> int:
        return sum(self.sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for p in self.sizes:
            out.append(acc)
            acc += p
        return tuple(out)

    def block_slice(self, i: int) -> slice:
        off = self.offsets[i]
        return slice(off, off + self.sizes[i])

    def split(self, stacked: np.ndarray) -> list[np.ndarray]:
        """Views of the per-image row blocks of an (m, ...) array."""
        return [stacked[self.block_slice(i)] for i in range(self.n)]

    def locate(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Image and local candidate index of each stacked candidate index."""
        offsets = np.asarray(self.offsets)
        image = np.searchsorted(offsets, index, side="right") - 1
        return image, index - offsets[image]


@dataclass
class FeatureSet:
    """Feature candidates of one image: coordinates and optional descriptors."""

    image_id: str
    coordinates: np.ndarray  # (2, p)
    descriptors: np.ndarray | None = None  # (d, p), unit-norm columns

    def __post_init__(self):
        self.coordinates = np.asarray(self.coordinates, dtype=float)
        if self.coordinates.ndim != 2 or self.coordinates.shape[0] != 2:
            raise DimensionMismatch(
                f"{self.image_id}: coordinates must be 2 x p, got {self.coordinates.shape}"
            )
        if self.coordinates.shape[1] < 1:
            raise DimensionMismatch(f"{self.image_id}: at least one candidate required")
        if not np.isfinite(self.coordinates).all():
            raise NonFiniteEntry(f"{self.image_id}: non-finite coordinate")
        if self.descriptors is not None:
            self.descriptors = np.asarray(self.descriptors, dtype=float)
            if self.descriptors.ndim != 2 or self.descriptors.shape[1] != self.p:
                raise DimensionMismatch(
                    f"{self.image_id}: descriptors must have one column per candidate"
                )
            if not np.isfinite(self.descriptors).all():
                raise NonFiniteEntry(f"{self.image_id}: non-finite descriptor")
            norms = np.linalg.norm(self.descriptors, axis=0)
            if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
                raise MatchingError(
                    f"{self.image_id}: descriptor columns must have unit norm"
                )

    @property
    def p(self) -> int:
        return self.coordinates.shape[1]


@dataclass
class PairwiseScores:
    """Pairwise scores: one sparse m x m matrix over the stacked candidates.

    Candidates are numbered image by image as in :class:`BlockLayout`.  Raw
    scores may store a pair in either orientation or both; a pair with no
    stored entry scores 0.  Canonical scores, as :func:`validate_instance`
    returns them, are block-upper-triangular with identity diagonal blocks
    and every score in [0, 1].
    """

    matrix: sp.csr_matrix
    sizes: tuple[int, ...]

    def __post_init__(self):
        self.sizes = tuple(int(p) for p in self.sizes)
        # a private copy: sum_duplicates sorts the indices in place
        self.matrix = sp.csr_matrix(self.matrix, dtype=float, copy=True)
        self.matrix.sum_duplicates()
        if self.matrix.shape != (self.m, self.m):
            raise DimensionMismatch(
                f"score matrix has shape {self.matrix.shape}, expected ({self.m}, {self.m})"
            )

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def m(self) -> int:
        return sum(self.sizes)

    @property
    def blocks(self) -> dict[tuple[int, int], np.ndarray]:
        """Dense p_i x p_j block of every (i, j) holding a stored entry.

        Rebuilt on each access; writing to a block leaves ``matrix`` as it
        is.  Keys keep the stored orientation, and canonical scores include
        their identity (i, i) blocks.
        """
        w = self.matrix.tocoo()
        layout = BlockLayout(self.sizes)
        (bi, rows), (bj, cols) = layout.locate(w.row), layout.locate(w.col)
        key = bi * self.n + bj
        order = np.argsort(key, kind="stable")
        keys, starts = np.unique(key[order], return_index=True)
        out = {}
        for key, sel in zip(keys.tolist(), np.split(order, starts[1:])):
            i, j = divmod(key, self.n)
            block = np.zeros((self.sizes[i], self.sizes[j]))
            block[rows[sel], cols[sel]] = w.data[sel]
            out[(i, j)] = block
        return out


@dataclass
class SelectionLabeling:
    """Per-image binary selection matrices mapping candidates to k labels.

    Each assignment matrix is p_i x k with row sums <= 1 and column sums
    exactly 1, i.e. the k labels pick k distinct candidates per image.
    """

    assignments: list[np.ndarray]
    k: int

    def __post_init__(self):
        self.k = int(self.k)
        self.assignments = [np.asarray(a) for a in self.assignments]

    @property
    def n(self) -> int:
        return len(self.assignments)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.assignments)

    @property
    def layout(self) -> BlockLayout:
        return BlockLayout(self.sizes)

    def validate(self) -> None:
        """Raise if any block violates the partial-permutation constraints."""
        for i, a in enumerate(self.assignments):
            if a.ndim != 2 or a.shape[1] != self.k:
                raise DimensionMismatch(f"image {i}: assignment must have {self.k} columns")
            if a.shape[0] < self.k:
                raise InfeasibleK(f"image {i}: k={self.k} exceeds p={a.shape[0]}")
            if not np.isin(a, (0, 1)).all():
                raise MatchingError(f"image {i}: assignment entries must be binary")
            if (a.sum(axis=1) > 1).any():
                raise MatchingError(f"image {i}: some candidate carries multiple labels")
            if (a.sum(axis=0) != 1).any():
                raise MatchingError(f"image {i}: every label must be used exactly once")

    def stacked(self) -> np.ndarray:
        """All blocks stacked into one (m, k) float matrix."""
        return np.vstack([a.astype(float) for a in self.assignments])

    def labels(self) -> list[np.ndarray]:
        """Per-image candidate labels; -1 marks unselected candidates."""
        out = []
        for a in self.assignments:
            lab = np.full(a.shape[0], -1, dtype=int)
            rows, cols = np.nonzero(a)
            lab[rows] = cols
            out.append(lab)
        return out

    @classmethod
    def from_labels(cls, labels: list[np.ndarray], k: int) -> "SelectionLabeling":
        blocks = []
        for lab in labels:
            lab = np.asarray(lab, dtype=int)
            a = np.zeros((lab.shape[0], k), dtype=int)
            sel = lab >= 0
            a[np.nonzero(sel)[0], lab[sel]] = 1
            blocks.append(a)
        return cls(blocks, k)

    def pair_matrix(self, i: int, j: int) -> np.ndarray:
        """Induced candidate-to-candidate matches between images i and j."""
        return self.assignments[i] @ self.assignments[j].T


@dataclass
class SolverConfig:
    """The tunables of the joint solver.

    ``k`` is the number of features selected per image, ``r`` the rank bound
    of the geometric fit, ``lam`` the geometric weight, ``rho_schedule`` the
    increasing sequence of coupling weights, ``max_inner`` the cap on
    accepted projected-gradient steps per Y update, ``max_sweeps`` the cap
    on (Y, X, Z) sweeps per rho stage, and ``seed`` the seed of the jittered
    start.  Step control and stopping tolerances are constants of the
    solver module.
    """

    k: int
    r: int = 4
    lam: float = 1.0
    rho_schedule: tuple[float, ...] = (1.0, 10.0, 100.0)
    max_inner: int = 500
    max_sweeps: int = 100
    seed: int = 0

    def __post_init__(self):
        self.k = int(self.k)
        self.r = int(self.r)
        self.rho_schedule = tuple(float(r) for r in self.rho_schedule)
        if self.k < 1:
            raise InfeasibleK("k must be at least 1")
        if self.r < 1:
            raise MatchingError("rank bound must be at least 1")
        if self.lam < 0:
            raise MatchingError("geometric weight must be nonnegative")
        if not self.rho_schedule or min(self.rho_schedule) <= 0:
            raise MatchingError("rho schedule must be positive and nonempty")
        if any(b <= a for a, b in zip(self.rho_schedule, self.rho_schedule[1:])):
            raise MatchingError("rho schedule must be strictly increasing")
        if min(self.max_inner, self.max_sweeps) < 1:
            raise MatchingError("iteration limits must be at least 1")


@dataclass
class ProblemInstance:
    """A validated matching problem: features plus canonical score blocks."""

    features: list[FeatureSet]
    scores: PairwiseScores

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def m(self) -> int:
        return sum(f.p for f in self.features)

    @property
    def layout(self) -> BlockLayout:
        return BlockLayout(tuple(f.p for f in self.features))

    @property
    def coordinates(self) -> list[np.ndarray]:
        return [f.coordinates for f in self.features]


def validate_instance(
    features: list[FeatureSet], scores: PairwiseScores, config: SolverConfig
) -> ProblemInstance:
    """Check shapes and ranges, and canonicalize the scores.

    Diagonal blocks become the identity: a candidate always matches itself.
    A pair stored in both orientations is averaged, 0.5 * (fwd + rev.T),
    one stored once is taken as it is, and the result is folded into the
    upper block triangle.  Raises :class:`InfeasibleK` when ``config.k``
    exceeds some image's candidate count, :class:`DimensionMismatch` on
    shape disagreements, and :class:`NonFiniteEntry` on NaN or infinite scores.
    """
    if not features:
        raise DimensionMismatch("at least one image is required")
    ids = [f.image_id for f in features]
    if len(set(ids)) != len(ids):
        raise MatchingError("image ids must be unique")
    sizes = tuple(f.p for f in features)
    if config.k > min(sizes):
        raise InfeasibleK(
            f"k={config.k} exceeds the smallest candidate count {min(sizes)}"
        )
    if tuple(scores.sizes) != sizes:
        raise DimensionMismatch(
            f"score sizes {scores.sizes} disagree with feature counts {sizes}"
        )

    layout = BlockLayout(sizes)
    n, m = layout.n, layout.m
    raw = scores.matrix.tocoo()
    (bi, _), (bj, _) = layout.locate(raw.row), layout.locate(raw.col)
    off = bi != bj
    rows, cols, vals, bi, bj = raw.row[off], raw.col[off], raw.data[off], bi[off], bj[off]
    if not np.isfinite(vals).all():
        t = np.flatnonzero(~np.isfinite(vals))[0]
        raise NonFiniteEntry(f"block ({bi[t]}, {bj[t]}) contains non-finite scores")
    lower = bi > bj
    pair = np.minimum(bi, bj) * n + np.maximum(bi, bj)
    both = np.intersect1d(pair[lower], pair[~lower])
    rows, cols = np.where(lower, cols, rows), np.where(lower, rows, cols)
    merged = sp.coo_matrix((vals, (rows, cols)), shape=(m, m))
    merged.sum_duplicates()  # adds the two orientations of a pair
    (bi, _), (bj, _) = layout.locate(merged.row), layout.locate(merged.col)
    merged.data[np.isin(bi * n + bj, both)] *= 0.5
    bad = (merged.data < -SCORE_RANGE_SLACK) | (merged.data > 1.0 + SCORE_RANGE_SLACK)
    if bad.any():
        t = np.flatnonzero(bad)[0]
        raise MatchingError(f"block ({bi[t]}, {bj[t]}) has scores outside [0, 1]")
    np.clip(merged.data, 0.0, 1.0, out=merged.data)
    canonical = merged.tocsr()
    canonical.eliminate_zeros()
    return ProblemInstance(
        list(features), PairwiseScores(canonical + sp.identity(m, format="csr"), sizes)
    )


def assemble_block(scores: PairwiseScores) -> sp.csr_matrix:
    """The symmetric m x m score matrix: canonical scores plus their mirror image.

    Sparse, so the solver's per-iteration products stay linear in the
    number of stored matches rather than quadratic in m.
    """
    w = scores.matrix
    return (w + sp.triu(w, 1).T).tocsr()
