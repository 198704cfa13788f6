"""Problem model: feature sets, pairwise score blocks, and selection labelings.

A matching problem is posed on a collection of n images.  Image i
contributes p_i candidate feature points (2D coordinates, optionally a
unit-norm descriptor per candidate) and every image pair (i, j) carries a
p_i x p_j score block whose entries grade candidate-to-candidate matches;
the blocks are held together as one sparse matrix over all candidates.
A solution selects k candidates per image and labels them consistently:
an n x k table of candidate indices whose row i lists, label by label, the
k distinct candidates chosen in image i.  The binary selection matrices of
the relaxation are derived from that table.
"""

from __future__ import annotations

import itertools
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, InfeasibleK, NonFiniteEntry, MatchingError

UNIT_NORM_TOL = 1e-6
SCORE_RANGE_SLACK = 1e-9


@dataclass(frozen=True)
class BlockLayout:
    """Row layout of per-image blocks inside stacked m x k matrices: any partition, empty blocks too."""

    sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        sizes = tuple(map(int, self.sizes))
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "offsets", tuple(itertools.accumulate(sizes, initial=0))[:-1])

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def m(self) -> int:
        return sum(self.sizes)

    def block_slice(self, i: int) -> slice:
        off = self.offsets[i]
        return slice(off, off + self.sizes[i])

    def split(self, stacked: np.ndarray) -> list[np.ndarray]:
        """Views of the per-image row blocks of an (m, ...) array."""
        return [stacked[self.block_slice(i)] for i in range(self.n)]

    def groups(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Images of equal block height, lowest height first: (p, images, rows).

        ``images`` lists the images of height p in order and ``rows`` their
        stacked rows, block after block, so ``stacked[rows].reshape(-1, p, k)``
        is the (len(images), p, k) stack of their blocks.
        """
        sizes, offsets = np.asarray(self.sizes), np.asarray(self.offsets)
        out = []
        for p in np.unique(sizes):
            images = np.flatnonzero(sizes == p)
            out.append((int(p), images, (offsets[images, None] + np.arange(p)).ravel()))
        return out

    def candidate_images(self) -> np.ndarray:
        """The image of every stacked candidate, an m-long array to gather from."""
        return np.repeat(np.arange(self.n), self.sizes)

    def locate(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Image and local candidate index of each stacked candidate index."""
        image = self.candidate_images()[index]
        return image, index - np.asarray(self.offsets)[image]


@dataclass
class FeatureSet:
    """Feature candidates of one image: coordinates and optional descriptors."""

    image_id: str
    coordinates: np.ndarray  # (2, p)
    descriptors: np.ndarray | None = None  # (d, p), unit-norm columns

    def __post_init__(self):
        if not isinstance(self.image_id, str):
            raise MatchingError(f"image id must be a string, got {self.image_id!r}")
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

    Candidates are numbered image by image as ``layout`` lays them out.  Raw
    scores may store a pair in either orientation or both; a pair with no
    stored entry scores 0.  Canonical scores, as :func:`validate_instance`
    returns them, are block-upper-triangular with identity diagonal blocks
    and every score in [0, 1].
    """

    matrix: sp.csr_matrix
    layout: BlockLayout

    def __post_init__(self):
        # a private copy: sum_duplicates sorts the indices in place
        self.matrix = sp.csr_matrix(self.matrix, dtype=float, copy=True)
        self.matrix.sum_duplicates()
        if self.matrix.shape != (self.m, self.m):
            raise DimensionMismatch(
                f"score matrix has shape {self.matrix.shape}, expected ({self.m}, {self.m})"
            )

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.layout.sizes

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def m(self) -> int:
        return self.layout.m

    @property
    def blocks(self) -> dict[tuple[int, int], np.ndarray]:
        """Dense p_i x p_j block of every (i, j) holding a stored entry.

        Rebuilt on each access; writing to a block leaves ``matrix`` as it
        is.  Keys keep the stored orientation, and canonical scores include
        their identity (i, i) blocks.
        """
        w = self.matrix.tocoo()
        (bi, rows), (bj, cols) = self.layout.locate(w.row), self.layout.locate(w.col)
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
    """The k chosen candidates of every image, one per label.

    ``index`` is an (n, k) integer array: ``index[i, l]`` is the candidate
    of image i that carries label l, and ``layout`` holds every image's
    candidate count p_i.  A valid labeling has k distinct candidates in
    [0, p_i) on every row.  The stacked binary matrix, the label arrays
    and the per-image assignment matrices are derived from ``index``.
    """

    index: np.ndarray
    layout: BlockLayout

    def __post_init__(self):
        self.index = np.asarray(self.index, dtype=np.intp)
        if self.index.ndim != 2 or self.index.shape[0] != self.n:
            raise DimensionMismatch(f"index must be {self.n} x k, got {self.index.shape}")

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.layout.sizes

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def k(self) -> int:
        return self.index.shape[1]

    def validate(self) -> None:
        """Raise unless every row holds k distinct candidates of its image.

        The first image at fault is named: :class:`InfeasibleK` when its p
        is below k, else :class:`MatchingError`.
        """
        sizes = np.asarray(self.sizes, dtype=np.intp)
        short = sizes < self.k
        outside = ((self.index < 0) | (self.index >= sizes[:, None])).any(axis=1)
        ordered = np.sort(self.index, axis=1)
        repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        faulty = np.flatnonzero(short | outside | repeated)
        if faulty.size:
            i = int(faulty[0])
            if short[i]:
                raise InfeasibleK(f"image {i}: k={self.k} exceeds p={self.sizes[i]}")
            if outside[i]:
                raise MatchingError(f"image {i}: a chosen candidate lies outside [0, {self.sizes[i]})")
            raise MatchingError(f"image {i}: some candidate carries multiple labels")

    def stacked_rows(self) -> np.ndarray:
        """Row of each chosen candidate in the stacked (m, k) layout, as an (n, k) array."""
        return np.asarray(self.layout.offsets, dtype=np.intp)[:, None] + self.index

    def stacked(self) -> np.ndarray:
        """The (m, k) float matrix with a one at each chosen (candidate, label)."""
        out = np.zeros((self.layout.m, self.k))
        out[self.stacked_rows(), np.arange(self.k)] = 1.0
        return out

    @property
    def assignments(self) -> list[np.ndarray]:
        """Per-image p_i x k binary int matrices, rebuilt on each access."""
        return self.layout.split(self.stacked().astype(int))

    def labels(self) -> list[np.ndarray]:
        """Per-image candidate labels; -1 marks unselected candidates."""
        out = np.full(self.layout.m, -1, dtype=int)
        out[self.stacked_rows()] = np.arange(self.k)
        return self.layout.split(out)


@dataclass
class SolverConfig:
    """The tunables of the joint solver.

    ``k`` is the number of features selected per image, ``r`` the rank bound
    of the geometric fit, ``lam`` the geometric weight, ``rho_schedule`` the
    increasing sequence of coupling weights.  ``seed`` is checked and has
    no effect (the solve draws no random numbers); no flag or file sets it.  Step
    control, stopping tolerances and iteration caps are constants of the
    solver module.  Raises :class:`MatchingError` unless ``k``, ``r`` and
    ``seed`` are integers (not booleans), ``lam`` and every rho are finite
    real numbers, ``rho_schedule`` is a sequence, and each lies in its
    range; values are never cast.
    """

    k: int
    r: int = 4
    lam: float = 1.0
    rho_schedule: tuple[float, ...] = (1.0, 10.0, 100.0)
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "r", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise MatchingError(f"{name} must be an integer, got {value!r}")
        try:
            self.rho_schedule = tuple(self.rho_schedule)
        except TypeError:
            raise MatchingError(f"rho schedule must be a sequence, got {self.rho_schedule!r}") from None
        for what, value in [("geometric weight", self.lam), *(("rho", r) for r in self.rho_schedule)]:
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            # the bound fails for NaN, infinities and integers too large for a float
            if not (real and abs(value) <= sys.float_info.max):
                raise MatchingError(f"{what} must be a finite number, got {value!r}")
        if self.k < 1:
            raise InfeasibleK("k must be at least 1")
        if self.r < 1:
            raise MatchingError("rank bound must be at least 1")
        if self.seed < 0:
            raise MatchingError("seed must be nonnegative")
        if self.lam < 0:
            raise MatchingError("geometric weight must be nonnegative")
        if not self.rho_schedule or min(self.rho_schedule) <= 0:
            raise MatchingError("rho schedule must be positive and nonempty")
        if any(b <= a for a, b in zip(self.rho_schedule, self.rho_schedule[1:])):
            raise MatchingError("rho schedule must be strictly increasing")


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
        return self.layout.m

    @property
    def layout(self) -> BlockLayout:
        return self.scores.layout

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
    upper block triangle.  Each step is one pass over the stored entries:
    their images are gathered from an m-long array, the pairs stored in
    both orientations are read off an n x n table of stored blocks, and one
    CSR build adds the two orientations (it sorts only the rows that
    receive folded lower-triangle entries).  Raises :class:`InfeasibleK`
    when ``config.k`` exceeds some image's candidate count,
    :class:`DimensionMismatch` on shape disagreements, and
    :class:`NonFiniteEntry` on NaN or infinite scores.
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
    if scores.sizes != sizes:
        raise DimensionMismatch(
            f"score sizes {scores.sizes} disagree with feature counts {sizes}"
        )

    layout = scores.layout
    n, m = layout.n, layout.m
    image = layout.candidate_images()
    raw = scores.matrix.tocoo()
    bi, bj = image[raw.row], image[raw.col]
    off = bi != bj
    rows, cols, vals, bi, bj = raw.row[off], raw.col[off], raw.data[off], bi[off], bj[off]
    if not np.isfinite(vals).all():
        t = np.flatnonzero(~np.isfinite(vals))[0]
        raise NonFiniteEntry(f"block ({bi[t]}, {bj[t]}) contains non-finite scores")
    stored = np.zeros((n, n), dtype=bool)
    stored[bi, bj] = True
    both = stored & stored.T  # image pairs stored in both orientations
    lower = bi > bj
    rows, cols = np.where(lower, cols, rows), np.where(lower, rows, cols)
    merged = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    bi, bj = np.repeat(image, np.diff(merged.indptr)), image[merged.indices]
    merged.data[both[bi, bj]] *= 0.5
    bad = (merged.data < -SCORE_RANGE_SLACK) | (merged.data > 1.0 + SCORE_RANGE_SLACK)
    if bad.any():
        t = np.flatnonzero(bad)[0]
        raise MatchingError(f"block ({bi[t]}, {bj[t]}) has scores outside [0, 1]")
    np.clip(merged.data, 0.0, 1.0, out=merged.data)
    merged.eliminate_zeros()
    return ProblemInstance(
        list(features), PairwiseScores(merged + sp.identity(m, format="csr"), layout)
    )


def assemble_block(scores: PairwiseScores) -> sp.csr_matrix:
    """The symmetric m x m score matrix: canonical scores plus their mirror image.

    Sparse, with twice the canonical scores' off-diagonal entries.  The
    solver does not build it: its contraction multiplies by the stored
    upper triangle and that triangle's transpose.
    """
    w = scores.matrix
    return (w + sp.triu(w, 1).T).tocsr()
