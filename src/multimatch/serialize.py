"""Plain-text documents for problems, labelings, ground truth, and traces.

Problems are single JSON documents: a format version (2), per-image
records (id, coordinates as two rows, optional descriptors), pairwise
records keyed by image ids, and optional solver defaults (an object of
the :class:`SolverConfig` settings, with ``lam`` spelled ``lambda``). A
pairwise record holds its sparse entries as one flat run of numbers,
``[row, col, value, row, col, value, ...]``, so each image pair decodes
into one Python list. The writer puts every image record and every
pairwise record on a line of its own, in compact JSON: diffs stay line
by line and the file carries no indentation. Image records are dumped
one by one by the C JSON encoder; the pairwise section is written as a
table, its number tokens looked up for all entries at once and stitched
into records by one join, the same text one dump per record would give.
A NaN or infinite score is refused, not written. Ground truth and
labeling sidecars share one shape and one writer: per image, its id,
``p`` and the (candidate index, label) pairs of its labeled candidates;
an unlisted candidate is an outlier.
Every reader runs in one frame, :func:`_document`, which decodes the
file, checks its version and raises :class:`ParseError` on a malformed
document, including one that repeats a member of an object among those
it reads (JSON decoders differ on which copy wins) or whose sizes need
more memory than there is.  One gate, :func:`_expect`, checks the JSON
type of every value read, and nothing is converted.
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

from .errors import NonFiniteEntry, ParseError
from .model import BlockLayout, FeatureSet, PairwiseScores, SelectionLabeling
from .solver import TraceRecord

FORMAT_VERSION = 2

# the problem file's solver defaults, in the order written: file key -> (SolverConfig field, JSON kind)
_SETTINGS = {
    "k": ("k", "integer"),
    "lambda": ("lam", "number"),
    "r": ("r", "integer"),
    "rho_schedule": ("rho_schedule", "array"),
    "seed": ("seed", "integer"),
}


def problem_document(
    features: list[FeatureSet],
    scores: PairwiseScores,
    settings: dict | None = None,
) -> str:
    """Render a problem as canonical JSON text (deterministic ordering).

    ``settings`` are solver defaults keyed by :class:`SolverConfig` field
    name.  A NaN or infinite score, for which JSON has no number, raises
    :class:`NonFiniteEntry` naming its block.
    """
    images = []
    for f in features:
        rec = {"id": f.image_id, "coordinates": f.coordinates.tolist()}
        if f.descriptors is not None:
            rec["descriptors"] = f.descriptors.tolist()
        images.append(rec)
    fields = {
        "format_version": json.dumps(FORMAT_VERSION),
        "images": _listed(images),
        "pairwise": _pairwise_text([json.dumps(f.image_id) for f in features], scores),
    }
    if settings:
        unknown = set(settings) - {name for name, _ in _SETTINGS.values()}
        if unknown:
            raise ParseError(f"unknown solver defaults: {sorted(unknown)}")
        fields["solver_defaults"] = json.dumps({key: settings[name] for key, (name, _) in _SETTINGS.items() if name in settings})
    return _object_lines(fields)


def _pairwise_text(ids: list[str], scores: PairwiseScores) -> str:
    """The JSON array of the pairwise records, one per line; ``ids`` are the image ids as JSON text.

    Every image pair (i, j) holding a nonzero entry off the diagonal blocks
    gets one record, in (i, j, row, col) order.  The text is stitched from
    number tokens in whole-array passes: indices are read off a table of
    ``str(0)``, ``str(1)``, ... up to the largest index written, and values
    off one ``json.dumps`` of the distinct values, so the text is that of
    one ``json.dumps`` per record.  Each record's first token carries its
    ``{"i": ..., "j": ..., "entries": [`` and its last its ``]}``; all
    tokens are joined by ``, `` and every record boundary then becomes
    ``,\n`` (``]}, {"i": `` cannot occur inside an id, whose every ``"``
    is escaped).
    """
    w, layout = scores.matrix, scores.layout  # canonical CSR: row-major, columns sorted in each row
    bi, rows = layout.locate(np.repeat(np.arange(layout.m), np.diff(w.indptr)))
    bj, cols = layout.locate(w.indices)
    keep = np.flatnonzero((bi != bj) & (w.data != 0))  # identity diagonals are implicit
    pair = bi[keep] * layout.n + bj[keep]
    order = np.argsort(pair, kind="stable")  # row-major inside each image pair
    keep, pair = keep[order], pair[order]
    if not keep.size:
        return "[]"
    bi, bj, rows, cols = bi[keep], bj[keep], rows[keep], cols[keep]
    values, value_at = np.unique(w.data[keep], return_inverse=True)
    if not np.isfinite(values).all():
        t = np.argmax(~np.isfinite(values)[value_at])  # the first in the written order
        raise NonFiniteEntry(f"block ({bi[t]}, {bj[t]}) contains non-finite scores")
    index = np.array([str(c) for c in range(max(rows.max(), cols.max()) + 1)], dtype=object)
    tokens = np.empty(3 * keep.size, dtype=object)  # row, col, value, row, col, value, ...
    tokens[0::3], tokens[1::3] = index[rows], index[cols]
    tokens[2::3] = np.array(json.dumps(values.tolist())[1:-1].split(", "), dtype=object)[value_at]
    first = np.flatnonzero(np.diff(pair, prepend=-1))  # each record's first entry
    ids = np.array(ids, dtype=object)
    tokens[3 * first] = '{"i": ' + ids[bi[first]] + ', "j": ' + ids[bj[first]] + ', "entries": [' + tokens[3 * first]
    tokens[3 * np.append(first[1:], keep.size) - 1] += "]}"
    return "[\n" + ", ".join(tokens.tolist()).replace(']}, {"i": ', ']},\n{"i": ') + "\n]"


def _listed(records: list) -> str:
    """A JSON array with one compact ``json.dumps`` line per element.

    Without ``indent``, ``json.dumps`` stays on CPython's C encoder; any
    ``indent`` switches the whole dump to the pure-Python one.
    """
    return "[\n" + ",\n".join(map(json.dumps, records)) + "\n]" if records else "[]"


def _object_lines(fields: dict[str, str]) -> str:
    """A JSON object of members already rendered as JSON text, one member per line."""
    return "{\n" + ",\n".join(f"{json.dumps(key)}: {text}" for key, text in fields.items()) + "\n}\n"


def save_problem(path, features, scores, settings: dict | None = None) -> None:
    Path(path).write_text(problem_document(features, scores, settings))


def load_problem(path) -> tuple[list[FeatureSet], PairwiseScores, dict]:
    """Parse a problem document into features, raw scores, and solver defaults.

    The solver defaults come back keyed by :class:`SolverConfig` field name.
    Defaults that are not a JSON object, an unknown key, a ``k``, ``r`` or
    ``seed`` that is not a JSON integer, a ``lambda`` not a JSON number and
    a ``rho_schedule`` not a JSON array of numbers raise :class:`ParseError`.
    """
    with _document(path, "problem") as doc:
        features = _features(doc)
        index = {f.image_id: i for i, f in enumerate(features)}
        layout = BlockLayout(tuple(f.p for f in features))
        scores = PairwiseScores(_score_matrix(doc.get("pairwise", []), index, layout), layout)
        defaults = doc.get("solver_defaults", {})
        _expect("object", [defaults], "solver_defaults")
        unknown = set(defaults) - set(_SETTINGS)
        if unknown:
            raise ParseError(f"unknown solver defaults: {sorted(unknown)}")
        for key, value in defaults.items():
            _expect(_SETTINGS[key][1], [value], f"solver default {key}")
        _expect("number", defaults.get("rho_schedule", []), lambda t: f"solver default rho_schedule[{t}]")
        return features, scores, {_SETTINGS[key][0]: value for key, value in defaults.items()}


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
    """The feature sets of a problem document's image records, a JSON array of objects.

    Coordinates and descriptors must be JSON arrays of rows of JSON numbers;
    each check runs once over all images, naming the first at fault.
    """
    records, ids = _image_records(doc)
    coords = _members(records, "coordinates", lambda t: f"image {ids[t]}")
    descs = [rec.get("descriptors") for rec in records]
    for field, per_image in (("coordinates", coords), ("descriptors", [[] if d is None else d for d in descs])):
        image = f"{field} of image {{}}".format
        _expect("array", per_image, lambda t: image(ids[t]))
        _expect("array", per_image, lambda at: image(ids[_run_of(list(map(len, per_image)), at)]), depth=1)
        _expect("number", per_image, lambda at: image(ids[_run_of([sum(map(len, v)) for v in per_image], at)]), depth=2)
    return [
        FeatureSet(image_id, np.asarray(c, dtype=float), None if d is None else np.asarray(d, dtype=float))
        for image_id, c, d in zip(ids, coords, descs)
    ]


def _score_matrix(records, index: dict[str, int], layout: BlockLayout) -> sp.csr_matrix:
    """The m x m score matrix of the pairwise records of a problem document.

    Each record's ``entries`` is one flat run of numbers, row, col, value,
    row, col, value, ...; the runs of all records are streamed into one
    [row, col, value] table, and every check runs over whole arrays: each
    record's block offsets and sizes are repeated over its entries, and a
    (row, col) listed twice shows as fewer stored entries after the CSR
    build (only then are the entries sorted, to name the record).
    ``records`` must be a JSON array of objects, ``i`` and ``j`` listed
    image ids, ``entries`` a JSON array of whole triples of JSON numbers,
    every index an integer inside its block, every (row, col) may appear
    once in a block, every ordered image pair once in the document, and no
    record may pair an image with itself; anything else raises
    :class:`ParseError`.
    """
    _expect("array", [records], "pairwise")
    _expect("object", records, lambda t: f"pairwise[{t}]")
    firsts, seconds = (_members(records, key, lambda t: f"pairwise[{t}]") for key in ("i", "j"))
    _expect("string", firsts, "pairwise i")
    _expect("string", seconds, "pairwise j")
    first = np.fromiter(map(index.get, firsts, itertools.repeat(-1)), np.int64, len(firsts))
    second = np.fromiter(map(index.get, seconds, itertools.repeat(-1)), np.int64, len(seconds))
    unlisted = np.flatnonzero((first < 0) | (second < 0))
    if unlisted.size:
        t = unlisted[0]
        raise ParseError(f"pair ({firsts[t]}, {seconds[t]}): {'i' if first[t] < 0 else 'j'} is not a listed image id")
    if (first == second).any():
        raise ParseError("a record pairs an image with itself")
    if _repeats(first, second).size:
        raise ParseError("an image pair is listed twice")
    runs = _members(records, "entries", lambda t: f"pair ({firsts[t]}, {seconds[t]})")
    _expect("array", runs, lambda t: f"pair ({firsts[t]}, {seconds[t]}): entries")
    counts, partial = np.divmod(np.fromiter(map(len, runs), np.int64, len(runs)), 3)
    if partial.any():
        raise ParseError("a pairwise entry is not a [row, col, value] triple")

    def pair(entry: int) -> str:  # the record holding the entry
        t = _run_of(counts, entry)
        return f"pair ({firsts[t]}, {seconds[t]})"

    parts = ("row", "column", "value")
    _expect("number", runs, lambda at: f"{pair(at // 3)}: an entry {parts[at % 3]}", depth=1)
    table = np.fromiter(itertools.chain.from_iterable(runs), float, 3 * counts.sum()).reshape(-1, 3)
    position = table[:, :2]
    integral = np.isfinite(position) & (position == np.trunc(position))
    if not integral.all():
        raise ParseError(f"{pair(np.argmax(~integral.all(axis=1)))}: an entry index is not an integer")
    sizes, offsets = np.asarray(layout.sizes), np.asarray(layout.offsets)
    row, col = table[:, 0], table[:, 1]
    outside = (row < 0) | (row >= np.repeat(sizes[first], counts))
    outside |= (col < 0) | (col >= np.repeat(sizes[second], counts))
    if outside.any():
        raise ParseError(f"{pair(np.argmax(outside))}: an entry index lies outside the block")
    rows = np.repeat(offsets[first], counts) + row.astype(np.int64)
    cols = np.repeat(offsets[second], counts) + col.astype(np.int64)
    matrix = sp.csr_matrix((table[:, 2], (rows, cols)), shape=(layout.m, layout.m))
    if matrix.nnz < len(table):  # the CSR build added up a repeated (row, col)
        raise ParseError(f"{pair(_repeats(rows, cols)[0])}: an entry (row, col) is listed twice")
    return matrix


def _save_pairs(path, ids, labels, size_key: str, size: int) -> None:
    """Write per-candidate ``labels`` as the (candidate, label) pairs of each image's labeled candidates."""
    images = []
    for image_id, lab in zip(ids, labels):
        lab = np.asarray(lab, dtype=int)
        chosen = np.flatnonzero(lab >= 0)
        images.append({"id": image_id, "p": lab.size, "pairs": np.column_stack((chosen, lab[chosen])).tolist()})
    fields = {"format_version": json.dumps(FORMAT_VERSION), size_key: json.dumps(int(size)), "images": _listed(images)}
    Path(path).write_text(_object_lines(fields))


def save_truth(path, labels, ids, universe_size: int) -> None:
    """Write per-candidate universe labels, -1 for outliers, for every image."""
    _save_pairs(path, ids, labels, "universe_size", universe_size)


def load_truth(path, counts: dict[str, int] | None = None, counted_by: str = "problem") -> tuple[list[str], list[np.ndarray], int]:
    """The image ids, per-image labels and universe size of a ground-truth document.

    ``counts``, when given, maps the image ids of the ``counted_by``
    document (the problem or the labeling) to their candidate counts: an
    image that document lacks, or whose ``p`` differs from its count,
    raises :class:`ParseError` before the labels of the images' ``p``
    candidates are allocated.
    """
    with _document(path, "ground-truth") as doc:
        ids, sizes, (image, candidate, label) = _read_pairs(doc, "universe_size", counts, ("ground truth", counted_by))
        layout = BlockLayout(sizes)
        labels = np.full(layout.m, -1, dtype=int)
        labels[np.asarray(layout.offsets, dtype=np.int64)[image] + candidate] = label
        return ids, layout.split(labels), doc["universe_size"]


def save_labeling(path, labeling: SelectionLabeling, ids) -> None:
    """Write the selected candidate indices and their labels per image."""
    _save_pairs(path, ids, labeling.labels(), "k", labeling.k)


def load_labeling(path, counts: dict[str, int] | None = None) -> tuple[list[str], SelectionLabeling]:
    """The image ids and the labeling of a labeling document.

    ``counts``, when given, maps the problem's image ids to their candidate
    counts: an image the problem lacks, or whose ``p`` differs from its
    count, raises :class:`ParseError`.  No array is sized by a ``p``, so a
    labeling is read whole before any count of it is trusted.
    """
    with _document(path, "labeling") as doc:
        ids, sizes, (image, candidate, label) = _read_pairs(doc, "k", counts)
        index = np.empty((len(ids), doc["k"]), dtype=np.intp)
        index[image, label] = candidate  # every label of every image is set once
        return ids, SelectionLabeling(index, BlockLayout(sizes))


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
    carry ``format_version`` 2, a JSON integer.  An unreadable file, one that
    is not UTF-8, and a ``KeyError``, ``TypeError``, ``ValueError``,
    ``IndexError`` or ``RecursionError`` (nesting too deep to decode) raised
    in decoding, the version check or the body, raise :class:`ParseError`
    naming ``path``, as does a ``MemoryError``: a size in the document that
    is too large.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        doc = _leading_members(text, set(members))
        del text  # not kept alive while the body runs
        version = doc.get("format_version")
        _expect("integer", [version], "format_version")
        if version != FORMAT_VERSION:
            raise ParseError(f"unsupported format version {version}")
        yield doc
    except (KeyError, TypeError, ValueError, IndexError, RecursionError) as exc:
        raise ParseError(f"{path}: malformed {kind} document ({exc})") from exc
    except MemoryError as exc:  # a size in the document asks for more than the machine has
        raise ParseError(f"{path}: {kind} document needs more memory than is available ({exc})") from exc


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


_KINDS = {"number": {int, float}, "integer": {int}, "string": {str}, "array": {list}, "object": {dict}}


def _expect(kind: str, values, where, depth: int = 0) -> None:
    """Raise :class:`ParseError` unless every value decoded from a JSON ``kind``.

    The kinds are number, integer, string, array and object; ``true`` and
    ``false`` decode to ``bool``, which is neither a number nor an integer,
    and nothing is converted (``"1"`` is not read as 1, nor ``null`` as
    NaN).  The values are the items of the collection ``values``, or those
    ``depth`` levels down, streamed run after run: their types are tested
    in one pass, and only on a fault are they streamed again to find the
    first value at fault.  ``where`` names the member, or is a function of
    that value's position; the message reads ``<where> must be a JSON
    <kind>, got <the value as JSON>``.
    """
    def stream(levels: int = depth):  # the items ``levels`` deep in ``values``, run after run
        return values if levels == 0 else itertools.chain.from_iterable(stream(levels - 1))

    allowed = _KINDS[kind]
    if set(map(type, stream())) <= allowed:
        return
    at, value = next((at, v) for at, v in enumerate(stream()) if type(v) not in allowed)
    where = where if isinstance(where, str) else where(at)
    raise ParseError(f"{where} must be a JSON {kind}, got {json.dumps(value)}")


def _run_of(lengths, at: int) -> int:
    """The run holding item ``at`` of runs of the given ``lengths``, laid end to end."""
    return int(np.searchsorted(np.cumsum(lengths), at, side="right"))


def _members(records, name: str, where) -> list:
    """The ``name`` member of every record; :class:`ParseError` names the first record without one.

    ``where(t)`` names record ``t``; the message reads ``<record>: <name> is missing``.
    """
    try:
        return [rec[name] for rec in records]
    except KeyError:  # records that are not JSON objects raise TypeError first
        t = next(t for t, rec in enumerate(records) if name not in rec)
        raise ParseError(f"{where(t)}: {name} is missing") from None


def _member(doc: dict, name: str):
    """The top-level member ``name`` of ``doc``, named ``top level`` when it is missing."""
    return _members([doc], name, lambda t: "top level")[0]


def _image_records(doc: dict) -> tuple[list[dict], list[str]]:
    """A document's ``images``, a JSON array of objects, and their ids: distinct JSON strings, at least one."""
    records = _member(doc, "images")
    _expect("array", [records], "images")
    _expect("object", records, lambda t: f"images[{t}]")
    ids = _members(records, "id", lambda t: f"images[{t}]")
    _expect("string", ids, "image id")
    if not ids:
        raise ParseError("document lists no images")
    if len(set(ids)) < len(ids):
        raise ParseError("an image id is listed twice")
    return records, ids


def _read_pairs(
    doc: dict, size_key: str, image_counts: dict[str, int] | None = None, names: tuple[str, str] = ("labeling", "problem")
) -> tuple[list[str], list[int], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The labeled candidates of a sidecar document's per-image (candidate, label) pairs.

    The pairs of all images are read as one [candidate, label] table and
    checked in whole-array passes; a fault names the first image holding
    one.  ``images`` must be a JSON array of objects, their ids distinct
    JSON strings, every ``p`` a nonnegative JSON integer, ``pairs`` a JSON
    array of [candidate, label] pairs of JSON numbers, candidates distinct
    integers in [0, p) and below 2**63, and each image's labels -1 or
    distinct values below the JSON integer ``doc[size_key]``, all of them
    used if that is a labeling's ``"k"``, and with ``image_counts`` every
    id one of its keys and every ``p`` its count; else
    :class:`ParseError`, whose count faults call this document and the one
    ``image_counts`` come from by ``names``.  Nothing is sized by a ``p``:
    distinct candidates are found by sorting.  Returns the ids, the images'
    ``p`` and the (image, candidate, label) arrays of the pairs whose label
    is not -1, in document order.
    """
    records, ids = _image_records(doc)
    sizes = _members(records, "p", lambda t: f"image {ids[t]}")
    _expect("integer", sizes, lambda t: f"image {ids[t]}: p")
    if min(sizes) < 0:
        t = next(t for t, p in enumerate(sizes) if p < 0)
        raise ParseError(f"image {ids[t]}: p must be nonnegative, got {sizes[t]}")
    if image_counts is not None:
        missing = [i for i in ids if i not in image_counts]
        if missing:
            raise ParseError(f"{names[1]} lacks images {missing}")
        t = next((t for t, (i, p) in enumerate(zip(ids, sizes)) if p != image_counts[i]), None)
        if t is not None:
            raise ParseError(f"image {ids[t]}: the {names[0]} has {sizes[t]} candidates, the {names[1]} {image_counts[ids[t]]}")
    runs = _members(records, "pairs", lambda t: f"image {ids[t]}")
    _expect("array", runs, lambda t: f"image {ids[t]}: pairs")
    counts = np.fromiter(map(len, runs), np.int64, len(runs))
    owner = np.repeat(np.arange(len(runs)), counts)  # the image of every pair
    pairs = list(itertools.chain.from_iterable(runs))
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        t = next(t for t, pair in enumerate(pairs) if not (isinstance(pair, list) and len(pair) == 2))
        raise ParseError(f"image {ids[owner[t]]}: a pair must be [candidate, label], got {json.dumps(pairs[t])}")
    parts = ("candidate", "label")
    _expect("number", pairs, lambda at: f"image {ids[owner[at // 2]]}: a {parts[at % 2]}", depth=1)
    bound = _member(doc, size_key)
    _expect("integer", [bound], size_key)
    table = np.fromiter(itertools.chain.from_iterable(pairs), float, 2 * len(pairs)).reshape(-1, 2)
    integral = (np.isfinite(table) & (table == np.trunc(table))).all(axis=1)
    if not integral.all():
        raise ParseError(f"image {ids[owner[np.argmax(~integral)]]}: candidates and labels must be integers")
    candidate, label = table.T
    # 2**63 and up, which a larger p allows, would not cast to an integer index
    limits = np.minimum(sizes, 2.0**63).astype(float)
    misplaced = (candidate < 0) | (candidate >= limits[owner])
    misplaced[_repeats(owner, candidate)] = True
    if misplaced.any():
        i = owner[np.argmax(misplaced)]
        raise ParseError(f"image {ids[i]}: candidates must be distinct indices in [0, {min(sizes[i], 2**63)})")
    wrong = (label < -1) | (label >= 2.0**63)  # 2**63 and up would not cast to an integer label
    if wrong.any():
        raise ParseError(f"image {ids[owner[np.argmax(wrong)]]}: labels must be -1 or nonnegative integers below 2**63")
    used = label >= 0
    image, candidate, label = owner[used], candidate[used].astype(np.int64), label[used].astype(np.int64)
    faulty = np.bincount(image[label >= bound], minlength=len(ids)) > 0
    faulty[image[_repeats(image, label)]] = True
    if size_key == "k":  # with no label repeated or past k, k labels in an image are every label once
        faulty |= np.bincount(image, minlength=len(ids)) != bound
    if faulty.any():
        rule = f"the values in [0, {bound}), each once" if size_key == "k" else f"distinct values in [0, {bound})"
        raise ParseError(f"image {ids[np.argmax(faulty)]}: labels must be -1 or {rule}")
    return ids, sizes, (image, candidate, label)


def _repeats(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The positions of the entries whose (first, second) pair an earlier entry holds too, in pair order."""
    order = np.lexsort((second, first))  # stable: equal pairs land side by side, in their first order
    ahead, behind = order[1:], order[:-1]
    return ahead[(first[ahead] == first[behind]) & (second[ahead] == second[behind])]
