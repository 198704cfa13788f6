"""Plain-text documents for problems, labelings, ground truth, and traces.

Problems are single JSON documents: a format version (2), per-image
records (id, coordinates as two rows, optional descriptors), pairwise
records keyed by image ids, and optional solver defaults. A pairwise
record holds its sparse entries as one flat run of numbers,
``[row, col, value, row, col, value, ...]``: the sparse encoding keeps
linear-matching blocks compact, and a flat run decodes into one Python
list per image pair, where version 1's ``[row, col, value]`` triples made
one list per entry. On a 200-image benchmark problem (19,900 image
pairs, 159,200 entries) that takes the file from 3.1 to 2.8 MB, its write
from 0.40 to 0.26 s and its read from 0.31 to 0.18 s (medians of four
traced benchmark runs, Python 3.11 on a shared 2-core Xeon). The writer
puts every image record and every pairwise record on a line of its own,
in compact JSON: diffs stay line by line, the file carries no
indentation, and the dump runs in the C JSON encoder. Ground truth and
labeling sidecars share one shape, written the same way: per image,
(candidate index, label) pairs with -1 marking outliers. Every value the
readers turn into a number must be a JSON number; a string, boolean or
null raises :class:`ParseError`. Objective traces are CSV, one line per
recorded sweep.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ParseError
from .model import BlockLayout, FeatureSet, PairwiseScores, SelectionLabeling
from .solver import TraceRecord

FORMAT_VERSION = 2

_DEFAULT_KEYS = ("k", "lambda", "r", "rho_schedule", "seed")


def problem_document(
    features: list[FeatureSet],
    scores: PairwiseScores,
    defaults: dict | None = None,
) -> str:
    """Render a problem as canonical JSON text (deterministic ordering)."""
    images = []
    for f in features:
        rec = {"id": f.image_id, "coordinates": f.coordinates.tolist()}
        if f.descriptors is not None:
            rec["descriptors"] = f.descriptors.tolist()
        images.append(rec)
    ids = [f.image_id for f in features]
    w = scores.matrix.tocoo()
    layout = BlockLayout(scores.sizes)
    (bi, rows), (bj, cols) = layout.locate(w.row), layout.locate(w.col)
    keep = np.flatnonzero((bi != bj) & (w.data != 0))  # identity diagonals are implicit
    keep = keep[np.lexsort((cols[keep], rows[keep], bj[keep], bi[keep]))]
    bi, bj = bi[keep], bj[keep]
    # where each image pair's entries start, and where the last pair's end
    bounds = np.flatnonzero(np.diff(bi * layout.n + bj, prepend=-1)).tolist() + [keep.size]
    flat = [None] * (3 * keep.size)  # row, col, value, row, col, value, ...
    flat[0::3], flat[1::3], flat[2::3] = rows[keep].tolist(), cols[keep].tolist(), w.data[keep].tolist()
    pairwise = [
        {"i": ids[bi[a]], "j": ids[bj[a]], "entries": flat[3 * a : 3 * b]}
        for a, b in zip(bounds, bounds[1:])
    ]
    doc = {"format_version": FORMAT_VERSION, "images": images, "pairwise": pairwise}
    if defaults:
        unknown = set(defaults) - set(_DEFAULT_KEYS)
        if unknown:
            raise ParseError(f"unknown solver defaults: {sorted(unknown)}")
        doc["solver_defaults"] = {k: defaults[k] for k in _DEFAULT_KEYS if k in defaults}
    return _record_lines(doc)


def _record_lines(doc: dict) -> str:
    """``doc`` as JSON text, one top-level field per line and one line per list element.

    Each line is rendered compactly by ``json.dumps`` without ``indent``,
    which keeps CPython on its C encoder; any ``indent`` switches the whole
    dump to the pure-Python one.
    """
    fields = []
    for key, value in doc.items():
        if isinstance(value, list) and value:
            value_text = "[\n" + ",\n".join(map(json.dumps, value)) + "\n]"
        else:
            value_text = json.dumps(value)
        fields.append(f"{json.dumps(key)}: {value_text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def save_problem(path, features, scores, defaults: dict | None = None) -> None:
    Path(path).write_text(problem_document(features, scores, defaults))


def load_problem(path) -> tuple[list[FeatureSet], PairwiseScores, dict]:
    """Parse a problem document into features, raw scores, and defaults.

    Solver defaults ``k``, ``r`` and ``seed`` must be JSON integers, and
    ``lambda`` and ``rho_schedule`` JSON numbers.
    """
    doc = _load_json(path)
    try:
        features = _features(doc)
        index = {f.image_id: i for i, f in enumerate(features)}
        layout = BlockLayout(tuple(f.p for f in features))
        scores = PairwiseScores(_score_matrix(doc.get("pairwise", []), index, layout), layout.sizes)
        defaults = dict(doc.get("solver_defaults", {}))
        for key in ("k", "r", "seed"):
            if key in defaults:
                _json_int(defaults[key], f"solver default {key}")
        if "lambda" in defaults:
            _check_numbers([defaults["lambda"]], "solver default lambda")
        if "rho_schedule" in defaults:
            _check_numbers(defaults["rho_schedule"], "solver default rho_schedule")
            defaults["rho_schedule"] = tuple(float(r) for r in defaults["rho_schedule"])
        return features, scores, defaults
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed problem document ({exc})") from exc


def load_features(path) -> list[FeatureSet]:
    """Parse only the image records of a problem document.

    Decoding stops once ``format_version`` and ``images`` are read, so the
    members after them (in the writer's order, the pairwise records and the
    solver defaults) are neither decoded nor checked for valid JSON syntax;
    :func:`load_problem` checks the whole document.
    """
    doc = _load_json(path, ("format_version", "images"))
    try:
        return _features(doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed problem document ({exc})") from exc


def _features(doc: dict) -> list[FeatureSet]:
    """The feature sets of a problem document's image records, ids distinct.

    Coordinates and descriptors must be rows of JSON numbers.
    """
    _check_version(doc)
    features = []
    for rec in doc["images"]:
        image_id, coords, desc = str(rec["id"]), rec["coordinates"], rec.get("descriptors")
        _check_numbers(itertools.chain.from_iterable(coords), f"coordinates of image {image_id}")
        if desc is not None:
            _check_numbers(itertools.chain.from_iterable(desc), f"descriptors of image {image_id}")
        features.append(
            FeatureSet(
                image_id,
                np.asarray(coords, dtype=float),
                None if desc is None else np.asarray(desc, dtype=float),
            )
        )
    if not features:
        raise ParseError("document lists no images")
    if len({f.image_id for f in features}) < len(features):
        raise ParseError("an image id is listed twice")
    return features


def _score_matrix(records, index: dict[str, int], layout: BlockLayout) -> sp.csr_matrix:
    """The m x m score matrix of the pairwise records of a problem document.

    Each record's ``entries`` is one flat run of numbers, row, col, value,
    row, col, value, ...; the runs of all records are read as one
    [row, col, value] table.  Every run must hold whole triples of JSON
    numbers, every index must be an integer inside its block, every
    (row, col) may appear once in a block, every ordered image pair once in
    the document, and no record may pair an image with itself; anything
    else raises :class:`ParseError`.
    """
    keys = [(index[str(rec["i"])], index[str(rec["j"])]) for rec in records]
    if any(i == j for i, j in keys):
        raise ParseError("a record pairs an image with itself")
    if len(set(keys)) < len(keys):
        raise ParseError("an image pair is listed twice")
    runs = [rec["entries"] for rec in records]
    counts, partial = np.divmod(np.array([len(run) for run in runs], dtype=np.int64), 3)
    if partial.any():
        raise ParseError("a pairwise entry is not a [row, col, value] triple")
    _check_numbers(itertools.chain.from_iterable(runs), "pairwise entries")
    table = np.fromiter(itertools.chain.from_iterable(runs), float, 3 * counts.sum()).reshape(-1, 3)
    owner = np.repeat(np.arange(len(keys)), counts)
    images = np.array(keys, dtype=np.int64).reshape(-1, 2)[owner]  # (i, j) of every entry
    shapes = np.asarray(layout.sizes, dtype=np.int64)[images]

    def reject(bad: np.ndarray, what: str):
        rec = records[owner[bad][0]]
        raise ParseError(f"pair ({rec['i']}, {rec['j']}): {what}")

    position = table[:, :2]
    integral = (np.isfinite(position) & (position == np.trunc(position))).all(axis=1)
    if not integral.all():
        reject(~integral, "an entry index is not an integer")
    outside = ((position < 0) | (position >= shapes)).any(axis=1)
    if outside.any():
        reject(outside, "an entry index lies outside the block")
    rows, cols = (np.asarray(layout.offsets, dtype=np.int64)[images] + position.astype(np.int64)).T
    flat = rows * layout.m + cols
    order = np.argsort(flat, kind="stable")
    repeated = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeated.size:
        reject(repeated, "an entry (row, col) is listed twice")
    return sp.csr_matrix((table[:, 2], (rows, cols)), shape=(layout.m, layout.m))


def _pairs_document(ids, sizes, labels, extra: dict) -> str:
    images = []
    for image_id, p, lab in zip(ids, sizes, labels):
        pairs = [[int(c), int(l)] for c, l in enumerate(lab)]
        images.append({"id": image_id, "p": int(p), "pairs": pairs})
    doc = {"format_version": FORMAT_VERSION, **extra, "images": images}
    return _record_lines(doc)


def save_truth(path, labels, ids, universe_size: int) -> None:
    """Write per-candidate universe labels, -1 for outliers, for every image."""
    sizes = [len(lab) for lab in labels]
    text = _pairs_document(ids, sizes, labels, {"universe_size": int(universe_size)})
    Path(path).write_text(text)


def load_truth(path) -> tuple[list[str], list[np.ndarray], int]:
    doc = _load_json(path)
    try:
        _check_version(doc)
        ids, labels = _read_pairs(doc)
        universe = _json_int(doc["universe_size"], "universe_size")
        for image_id, lab in zip(ids, labels):
            used = lab[lab >= 0]
            if (used >= universe).any() or np.unique(used).size < used.size:
                raise ParseError(
                    f"image {image_id}: labels must be -1 or distinct values in [0, {universe})"
                )
        return ids, labels, universe
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed ground-truth document ({exc})") from exc


def save_labeling(path, labeling: SelectionLabeling, ids) -> None:
    """Write the selected candidate indices and their labels per image."""
    images = []
    for image_id, p, lab in zip(ids, labeling.sizes, labeling.labels()):
        sel = np.nonzero(lab >= 0)[0]
        pairs = [[int(c), int(lab[c])] for c in sel]
        images.append({"id": image_id, "p": p, "pairs": pairs})
    doc = {"format_version": FORMAT_VERSION, "k": labeling.k, "images": images}
    Path(path).write_text(_record_lines(doc))


def load_labeling(path) -> tuple[list[str], SelectionLabeling]:
    doc = _load_json(path)
    try:
        _check_version(doc)
        ids, labels = _read_pairs(doc)
        labeling = SelectionLabeling.from_labels(labels, _json_int(doc["k"], "k"))
        labeling.validate()
        return ids, labeling
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed labeling document ({exc})") from exc


def save_trace(path, trace: list[TraceRecord]) -> None:
    lines = ["stage,iteration,cycle,geo,coupling,total"]
    for rec in trace:
        lines.append(
            f"{rec.stage},{rec.iteration},{rec.cycle!r},{rec.geo!r},"
            f"{rec.coupling!r},{rec.total!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def save_point_cloud(path, shape: np.ndarray) -> None:
    """Write a rank-3 shape as a plain text table: label x y z."""
    lines = ["# label x y z"]
    for label, point in enumerate(np.asarray(shape, dtype=float).T):
        lines.append(f"{label} {point[0]!r} {point[1]!r} {point[2]!r}")
    Path(path).write_text("\n".join(lines) + "\n")


_WHITESPACE = re.compile(r"[ \t\n\r]*")


def _load_json(path, members: tuple[str, ...] | None = None) -> dict:
    """The JSON object in the file at ``path``.

    With ``members`` the top-level members are decoded one at a time, and
    decoding stops once all of ``members`` have been read: the object holds
    the members read so far, and the text after them is not looked at.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text) if members is None else _leading_members(text, set(members))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return doc


def _leading_members(text: str, wanted: set[str]):
    """The top-level object of ``text``, decoded member by member until every ``wanted`` key is read.

    A top-level value that is not an object is decoded whole and returned
    as it is.  Malformed text up to the last member read raises
    :class:`json.JSONDecodeError`.
    """
    decoder = json.JSONDecoder()
    pos = _WHITESPACE.match(text).end()
    if not text.startswith("{", pos):
        return decoder.decode(text)
    doc: dict = {}
    pos = _WHITESPACE.match(text, pos + 1).end()
    closed = text.startswith("}", pos)
    while not closed:
        key, pos = decoder.raw_decode(text, pos)
        if not isinstance(key, str):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, pos)
        pos = _WHITESPACE.match(text, pos).end()
        if not text.startswith(":", pos):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
        doc[key], pos = decoder.raw_decode(text, _WHITESPACE.match(text, pos + 1).end())
        if wanted <= doc.keys():
            return doc
        pos = _WHITESPACE.match(text, pos).end()
        closed = text.startswith("}", pos)
        if not (closed or text.startswith(",", pos)):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        if not closed:
            pos = _WHITESPACE.match(text, pos + 1).end()
    if _WHITESPACE.match(text, pos + 1).end() < len(text):
        raise json.JSONDecodeError("Extra data", text, pos + 1)
    return doc


def _check_version(doc: dict) -> None:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version!r}")


_JSON_NAMES = {str: "string", bool: "boolean", type(None): "null", list: "array", dict: "object"}


def _check_numbers(values, what: str) -> None:
    """Raise :class:`ParseError` unless every item of ``values`` is a JSON number.

    JSON numbers decode to ``int`` or ``float``.  A string, boolean, null,
    list or object raises, where converting to float would read ``"1"`` as
    1, ``true`` as 1 and ``null`` as NaN.
    """
    others = set(map(type, values)) - {int, float}
    if others:
        names = sorted(_JSON_NAMES.get(t, t.__name__) for t in others)
        raise ParseError(f"{what}: expected JSON numbers, found {', '.join(names)}")


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, string or boolean raises :class:`ParseError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _read_pairs(doc: dict) -> tuple[list[str], list[np.ndarray]]:
    """Per-image labels from (candidate, label) pairs; -1 marks unlisted candidates.

    Image ids must be distinct, every ``p`` a JSON integer, every pair two
    JSON numbers, candidates distinct integers in [0, p) and labels
    integers of at least -1;
    anything else raises :class:`ParseError`.
    """
    ids, labels = [], []
    if not doc["images"]:
        raise ParseError("document lists no images")
    for rec in doc["images"]:
        ids.append(str(rec["id"]))
        lab = np.full(_json_int(rec["p"], f"image {ids[-1]}: p"), -1, dtype=int)
        _check_numbers(itertools.chain.from_iterable(rec["pairs"]), f"pairs of image {ids[-1]}")
        pairs = np.asarray(rec["pairs"], dtype=float).reshape(len(rec["pairs"]), 2)
        if not (np.isfinite(pairs) & (pairs == np.trunc(pairs))).all():
            raise ParseError(f"image {ids[-1]}: candidates and labels must be integers")
        cand, label = pairs.astype(int).T
        if (cand < 0).any() or (cand >= lab.size).any() or np.unique(cand).size < cand.size:
            raise ParseError(
                f"image {ids[-1]}: candidates must be distinct indices in [0, {lab.size})"
            )
        if (label < -1).any():
            raise ParseError(f"image {ids[-1]}: labels must be -1 or nonnegative")
        lab[cand] = label
        labels.append(lab)
    if len(set(ids)) < len(ids):
        raise ParseError("an image id is listed twice")
    return ids, labels
