"""Plain-text documents for problems, labelings, ground truth, and traces.

Problems are single JSON documents: a format version (2), per-image
records (id, coordinates as two rows, optional descriptors), pairwise
records keyed by image ids, and optional solver defaults (an object of
the :class:`SolverConfig` settings, with ``lam`` spelled ``lambda``). A
pairwise record holds its sparse entries as one flat run of numbers,
``[row, col, value, row, col, value, ...]``, so each image pair decodes
into one Python list. The writer puts every image record and every
pairwise record on a line of its own, in compact JSON: diffs stay line
by line, the file carries no indentation, and the dump runs in the C
JSON encoder. Ground truth and labeling sidecars share one shape and
one writer: per image, its id, ``p`` and the (candidate index, label)
pairs of its labeled candidates; an unlisted candidate is an outlier.
Every reader runs in one frame, :func:`_document`, which decodes the
file, checks its version and raises :class:`ParseError` on a malformed
document, including one that repeats a member of an object among those
it reads (JSON decoders differ on which copy wins). Image ids (and pairwise
``i``, ``j``) must be JSON strings and every value read as a number a
JSON number; nothing is converted.
Objective traces are CSV, one line per recorded sweep.
"""

from __future__ import annotations

import contextlib
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

# the problem file's solver defaults, in the order written: file key -> SolverConfig field
_SETTINGS = {"k": "k", "lambda": "lam", "r": "r", "rho_schedule": "rho_schedule", "seed": "seed"}


def problem_document(
    features: list[FeatureSet],
    scores: PairwiseScores,
    settings: dict | None = None,
) -> str:
    """Render a problem as canonical JSON text (deterministic ordering).

    ``settings`` are solver defaults keyed by :class:`SolverConfig` field name.
    """
    images = []
    for f in features:
        rec = {"id": f.image_id, "coordinates": f.coordinates.tolist()}
        if f.descriptors is not None:
            rec["descriptors"] = f.descriptors.tolist()
        images.append(rec)
    ids = [f.image_id for f in features]
    w = scores.matrix.tocoo()
    layout = scores.layout
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
    if settings:
        unknown = set(settings) - set(_SETTINGS.values())
        if unknown:
            raise ParseError(f"unknown solver defaults: {sorted(unknown)}")
        doc["solver_defaults"] = {key: settings[name] for key, name in _SETTINGS.items() if name in settings}
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


def save_problem(path, features, scores, settings: dict | None = None) -> None:
    Path(path).write_text(problem_document(features, scores, settings))


def load_problem(path) -> tuple[list[FeatureSet], PairwiseScores, dict]:
    """Parse a problem document into features, raw scores, and solver defaults.

    The solver defaults come back keyed by :class:`SolverConfig` field name.
    An unknown key raises :class:`ParseError`, as does a ``k``, ``r`` or
    ``seed`` that is not a JSON integer and a ``lambda`` or
    ``rho_schedule`` that is not JSON numbers, or defaults that are not
    a JSON object.
    """
    with _document(path, "problem") as doc:
        features = _features(doc)
        index = {f.image_id: i for i, f in enumerate(features)}
        layout = BlockLayout(tuple(f.p for f in features))
        scores = PairwiseScores(_score_matrix(doc.get("pairwise", []), index, layout), layout)
        defaults = doc.get("solver_defaults", {})
        if not isinstance(defaults, dict):
            raise ParseError(f"solver_defaults must be a JSON object, got {json.dumps(defaults)}")
        unknown = set(defaults) - set(_SETTINGS)
        if unknown:
            raise ParseError(f"unknown solver defaults: {sorted(unknown)}")
        for key in ("k", "r", "seed"):
            if key in defaults:
                _json_int(defaults[key], f"solver default {key}")
        if "lambda" in defaults:
            _check_numbers([defaults["lambda"]], "solver default lambda")
        if "rho_schedule" in defaults:
            _check_numbers(defaults["rho_schedule"], "solver default rho_schedule")
        return features, scores, {_SETTINGS[key]: value for key, value in defaults.items()}


def load_features(path) -> list[FeatureSet]:
    """Parse only the image records of a problem document.

    Decoding stops once ``format_version`` and ``images`` are read, so the
    members after them (in the writer's order, the pairwise records and the
    solver defaults) are neither decoded nor checked for valid JSON syntax;
    :func:`load_problem` checks the whole document.
    """
    with _document(path, "problem", ("format_version", "images")) as doc:
        return _features(doc)


def _features(doc: dict) -> list[FeatureSet]:
    """The feature sets of a problem document's image records.

    Coordinates and descriptors must be rows of JSON numbers.
    """
    features = []
    for image_id, rec in zip(_image_ids(doc["images"]), doc["images"]):
        coords, desc = rec["coordinates"], rec.get("descriptors")
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
    return features


def _score_matrix(records, index: dict[str, int], layout: BlockLayout) -> sp.csr_matrix:
    """The m x m score matrix of the pairwise records of a problem document.

    Each record's ``entries`` is one flat run of numbers, row, col, value,
    row, col, value, ...; the runs of all records are streamed into one
    [row, col, value] table, and every check runs over whole arrays: each
    record's block offsets and sizes are repeated over its entries, and a
    (row, col) listed twice shows as fewer stored entries after the CSR
    build (only then are the entries sorted, to name the record).  ``i``
    and ``j`` must be listed image ids, ``entries`` a JSON array of whole
    triples of JSON numbers, every index an integer inside its block, every
    (row, col) may appear once in a block, every ordered image pair once in
    the document, and no record may pair an image with itself; anything
    else raises :class:`ParseError`.
    """
    firsts, seconds = [rec["i"] for rec in records], [rec["j"] for rec in records]
    if not set(map(type, firsts)) | set(map(type, seconds)) <= {str}:
        for i, j in zip(firsts, seconds):
            _json_str(i, "pairwise i")
            _json_str(j, "pairwise j")
    first = np.fromiter(map(index.__getitem__, firsts), np.int64, len(firsts))
    second = np.fromiter(map(index.__getitem__, seconds), np.int64, len(seconds))
    if (first == second).any():
        raise ParseError("a record pairs an image with itself")
    pairs = np.sort(first * layout.n + second)
    if (pairs[1:] == pairs[:-1]).any():
        raise ParseError("an image pair is listed twice")
    runs = [rec["entries"] for rec in records]
    if not set(map(type, runs)) <= {list}:
        t = next(t for t, run in enumerate(runs) if not isinstance(run, list))
        raise ParseError(f"pair ({firsts[t]}, {seconds[t]}): entries must be a JSON array, got {json.dumps(runs[t])}")
    counts, partial = np.divmod(np.fromiter(map(len, runs), np.int64, len(runs)), 3)
    if partial.any():
        raise ParseError("a pairwise entry is not a [row, col, value] triple")
    _check_numbers(itertools.chain.from_iterable(runs), "pairwise entries")
    table = np.fromiter(itertools.chain.from_iterable(runs), float, 3 * counts.sum()).reshape(-1, 3)

    def reject(entry: int, what: str):
        t = np.searchsorted(np.cumsum(counts), entry, side="right")  # the record holding the entry
        raise ParseError(f"pair ({firsts[t]}, {seconds[t]}): {what}")

    position = table[:, :2]
    integral = np.isfinite(position) & (position == np.trunc(position))
    if not integral.all():
        reject(np.argmax(~integral.all(axis=1)), "an entry index is not an integer")
    sizes, offsets = np.asarray(layout.sizes), np.asarray(layout.offsets)
    row, col = table[:, 0], table[:, 1]
    outside = (row < 0) | (row >= np.repeat(sizes[first], counts))
    outside |= (col < 0) | (col >= np.repeat(sizes[second], counts))
    if outside.any():
        reject(np.argmax(outside), "an entry index lies outside the block")
    rows = np.repeat(offsets[first], counts) + row.astype(np.int64)
    cols = np.repeat(offsets[second], counts) + col.astype(np.int64)
    matrix = sp.csr_matrix((table[:, 2], (rows, cols)), shape=(layout.m, layout.m))
    if matrix.nnz < len(table):  # the CSR build added up a repeated (row, col)
        flat = rows * layout.m + cols
        order = np.argsort(flat, kind="stable")
        reject(order[1:][flat[order[1:]] == flat[order[:-1]]][0], "an entry (row, col) is listed twice")
    return matrix


def _save_pairs(path, ids, labels, size_key: str, size: int) -> None:
    """Write per-candidate ``labels`` as the (candidate, label) pairs of each image's labeled candidates."""
    images = []
    for image_id, lab in zip(ids, labels):
        lab = np.asarray(lab, dtype=int)
        chosen = np.flatnonzero(lab >= 0)
        images.append({"id": image_id, "p": lab.size, "pairs": np.column_stack((chosen, lab[chosen])).tolist()})
    Path(path).write_text(_record_lines({"format_version": FORMAT_VERSION, size_key: int(size), "images": images}))


def save_truth(path, labels, ids, universe_size: int) -> None:
    """Write per-candidate universe labels, -1 for outliers, for every image."""
    _save_pairs(path, ids, labels, "universe_size", universe_size)


def load_truth(path) -> tuple[list[str], list[np.ndarray], int]:
    with _document(path, "ground-truth") as doc:
        ids, layout, flat = _read_pairs(doc)
        universe = _json_int(doc["universe_size"], "universe_size")
        used = np.flatnonzero(flat >= 0)
        image = layout.candidate_images()[used]
        label = flat[used]
        faulty = np.zeros(layout.n, dtype=bool)
        faulty[image[label >= universe]] = True
        order = np.lexsort((label, image))  # a label repeated in an image lands beside itself
        image, label = image[order], label[order]
        faulty[image[1:][(image[1:] == image[:-1]) & (label[1:] == label[:-1])]] = True
        if faulty.any():
            image_id = ids[np.argmax(faulty)]
            raise ParseError(f"image {image_id}: labels must be -1 or distinct values in [0, {universe})")
        return ids, layout.split(flat), universe


def save_labeling(path, labeling: SelectionLabeling, ids) -> None:
    """Write the selected candidate indices and their labels per image."""
    _save_pairs(path, ids, labeling.labels(), "k", labeling.k)


def load_labeling(path) -> tuple[list[str], SelectionLabeling]:
    with _document(path, "labeling") as doc:
        ids, layout, flat = _read_pairs(doc)
        labeling = SelectionLabeling.from_labels(layout.split(flat), _json_int(doc["k"], "k"))
        labeling.validate()
        return ids, labeling


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


@contextlib.contextmanager
def _document(path, kind: str, members: tuple[str, ...] = ()):
    """Every reader's frame: the JSON object in the file at ``path``, for the ``with`` body to read.

    The object is decoded whole, or up to the last of ``members``, and must
    carry ``format_version`` 2.  An unreadable file, and a ``KeyError``,
    ``TypeError``, ``ValueError`` or ``IndexError`` raised in decoding, the
    version check or the body, raise :class:`ParseError` naming ``path``.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        doc = _leading_members(text, set(members))
        del text  # not kept alive while the body runs
        if doc.get("format_version") != FORMAT_VERSION:
            raise ParseError(f"unsupported format version {doc.get('format_version')!r}")
        yield doc
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed {kind} document ({exc})") from exc


def _leading_members(text: str, wanted: set[str]) -> dict:
    """The top-level object of ``text``, decoded member by member until every ``wanted`` key is read.

    The text after the last wanted member is not looked at; with nothing
    wanted the whole object is read and trailing data raises.  Malformed
    text up to the last member read, or a top level that is not an object,
    raises :class:`json.JSONDecodeError`; a key read a second time in the
    top level or in any object inside it raises :class:`ParseError`, where
    ``json.loads`` would keep the last value.
    """
    decoder = json.JSONDecoder(object_pairs_hook=_distinct_members)
    pos = _WHITESPACE.match(text).end()
    if not text.startswith("{", pos):
        raise json.JSONDecodeError("Expecting a JSON object at top level", text, pos)
    doc: dict = {}
    pos = _WHITESPACE.match(text, pos + 1).end()
    closed = text.startswith("}", pos)
    while not closed:
        key, pos = decoder.raw_decode(text, pos)
        if not isinstance(key, str):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, pos)
        if key in doc:
            raise ParseError(f"member {json.dumps(key)} is listed twice")
        pos = _WHITESPACE.match(text, pos).end()
        if not text.startswith(":", pos):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
        doc[key], pos = decoder.raw_decode(text, _WHITESPACE.match(text, pos + 1).end())
        if wanted and wanted <= doc.keys():
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


def _distinct_members(pairs: list[tuple[str, object]]) -> dict:
    """The object of the decoded (key, value) ``pairs``; a repeated key raises :class:`ParseError`."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # some key repeats: name the first repeat
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"member {json.dumps(key)} is listed twice")
            seen.add(key)
    return obj


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


def _json_str(value, what: str) -> str:
    """``value`` if it is a JSON string; anything else raises :class:`ParseError`."""
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a JSON string, got {json.dumps(value)}")
    return value


def _image_ids(records) -> list[str]:
    """The ids of a document's image records: JSON strings, at least one, none listed twice."""
    ids = [_json_str(rec["id"], "image id") for rec in records]
    if not ids:
        raise ParseError("document lists no images")
    if len(set(ids)) < len(ids):
        raise ParseError("an image id is listed twice")
    return ids


def _read_pairs(doc: dict) -> tuple[list[str], BlockLayout, np.ndarray]:
    """Candidate labels from per-image (candidate, label) pairs; -1 marks unlisted candidates.

    The pairs of all images are read as one [candidate, label] table and
    checked in whole-array passes; a fault names the first image holding
    one.  Image ids must be distinct JSON strings, every ``p`` a
    nonnegative JSON integer, ``pairs`` a JSON array of [candidate, label]
    pairs of JSON numbers, candidates distinct integers in [0, p) and labels
    integers from -1 up to below 2**63; anything else raises
    :class:`ParseError`.  Returns the ids, the layout of the images' ``p``
    and one array of the labels of every candidate, image after image.
    """
    records = doc["images"]
    ids = _image_ids(records)
    sizes, runs = [rec["p"] for rec in records], [rec["pairs"] for rec in records]
    if not set(map(type, sizes)) <= {int}:
        for image_id, p in zip(ids, sizes):
            _json_int(p, f"image {image_id}: p")
    if min(sizes) < 0:
        t = next(t for t, p in enumerate(sizes) if p < 0)
        raise ParseError(f"image {ids[t]}: p must be nonnegative, got {sizes[t]}")
    if not set(map(type, runs)) <= {list}:
        t = next(t for t, run in enumerate(runs) if not isinstance(run, list))
        raise ParseError(f"image {ids[t]}: pairs must be a JSON array, got {json.dumps(runs[t])}")
    counts = np.fromiter(map(len, runs), np.int64, len(runs))
    owner = np.repeat(np.arange(len(runs)), counts)  # the image of every pair
    pairs = list(itertools.chain.from_iterable(runs))
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        t = next(t for t, pair in enumerate(pairs) if not (isinstance(pair, list) and len(pair) == 2))
        raise ParseError(f"image {ids[owner[t]]}: a pair must be [candidate, label], got {json.dumps(pairs[t])}")
    if not set(map(type, itertools.chain.from_iterable(pairs))) <= {int, float}:
        t = next(t for t, pair in enumerate(pairs) if not set(map(type, pair)) <= {int, float})
        _check_numbers(pairs[t], f"pairs of image {ids[owner[t]]}")
    table = np.fromiter(itertools.chain.from_iterable(pairs), float, 2 * len(pairs)).reshape(-1, 2)
    integral = (np.isfinite(table) & (table == np.trunc(table))).all(axis=1)
    if not integral.all():
        raise ParseError(f"image {ids[owner[np.argmax(~integral)]]}: candidates and labels must be integers")
    layout = BlockLayout(sizes)
    labels = np.full(layout.m, -1, dtype=int)
    candidate, label = table.T
    misplaced = (candidate < 0) | (candidate >= np.take(sizes, owner))
    if not misplaced.any():  # every candidate inside its image: a repeat shows in the count per slot
        slot = np.asarray(layout.offsets, dtype=np.int64)[owner] + candidate.astype(np.int64)
        misplaced = np.bincount(slot, minlength=labels.size)[slot] > 1
    if misplaced.any():
        i = owner[np.argmax(misplaced)]
        raise ParseError(f"image {ids[i]}: candidates must be distinct indices in [0, {sizes[i]})")
    wrong = (label < -1) | (label >= 2.0**63)  # 2**63 and up would not cast to an integer label
    if wrong.any():
        image_id = ids[owner[np.argmax(wrong)]]
        raise ParseError(f"image {image_id}: labels must be -1 or nonnegative integers below 2**63")
    labels[slot] = label
    return ids, layout, labels
