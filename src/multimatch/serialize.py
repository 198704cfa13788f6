"""Plain-text documents for problems, labelings, ground truth, and traces.

Problems are single JSON documents: a format version, per-image records
(id, coordinates as two rows, optional descriptors), pairwise blocks as
sparse (row, col, value) coordinate lists keyed by image ids, and optional
solver defaults.  The writer puts every image record and every pairwise
record on a line of its own, in compact JSON: diffs stay line by line, the
file carries no indentation, and the dump runs in the C JSON encoder.  The
sparse encoding keeps linear-matching blocks compact.  Ground
truth and labeling sidecars share one shape: per image, (candidate index,
label) pairs with -1 marking outliers.  Objective traces are CSV, one line
per recorded sweep.
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

FORMAT_VERSION = 1

_DEFAULT_KEYS = ("k", "lambda", "r", "rho_schedule", "seed")


def problem_document(
    features: list[FeatureSet],
    scores: PairwiseScores,
    defaults: dict | None = None,
) -> str:
    """Render a problem as canonical JSON text (deterministic ordering)."""
    images = []
    for f in features:
        rec = {"id": f.image_id, "coordinates": [list(map(float, row)) for row in f.coordinates]}
        if f.descriptors is not None:
            rec["descriptors"] = [list(map(float, row)) for row in f.descriptors]
        images.append(rec)
    ids = [f.image_id for f in features]
    w = scores.matrix.tocoo()
    layout = BlockLayout(scores.sizes)
    (bi, rows), (bj, cols) = layout.locate(w.row), layout.locate(w.col)
    keep = np.flatnonzero((bi != bj) & (w.data != 0))  # identity diagonals are implicit
    keep = keep[np.lexsort((cols[keep], rows[keep], bj[keep], bi[keep]))]
    table = zip(*(a[keep].tolist() for a in (bi, bj, rows, cols, w.data)))
    pairwise = []
    for (i, j), group in itertools.groupby(table, key=lambda e: e[:2]):
        entries = [[r, c, v] for _, _, r, c, v in group]
        pairwise.append({"i": ids[i], "j": ids[j], "entries": entries})
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
    """Parse a problem document into features, raw scores, and defaults."""
    doc = _load_json(path)
    try:
        features = _features(doc)
        index = {f.image_id: i for i, f in enumerate(features)}
        layout = BlockLayout(tuple(f.p for f in features))
        scores = PairwiseScores(_score_matrix(doc.get("pairwise", []), index, layout), layout.sizes)
        defaults = dict(doc.get("solver_defaults", {}))
        if "rho_schedule" in defaults:
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
    """The feature sets of a problem document's image records, ids distinct."""
    _check_version(doc)
    features = []
    for rec in doc["images"]:
        desc = rec.get("descriptors")
        features.append(
            FeatureSet(
                str(rec["id"]),
                np.asarray(rec["coordinates"], dtype=float),
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

    The entries of all records are parsed as one [row, col, value] table.
    Every index must be an integer inside its block, every (row, col) may
    appear once in a block, every ordered image pair once in the document,
    and no record may pair an image with itself; anything else raises
    :class:`ParseError`.
    """
    keys = [(index[str(rec["i"])], index[str(rec["j"])]) for rec in records]
    if any(i == j for i, j in keys):
        raise ParseError("a record pairs an image with itself")
    if len(set(keys)) < len(keys):
        raise ParseError("an image pair is listed twice")
    counts = np.array([len(rec["entries"]) for rec in records], dtype=np.int64)
    entries = [e for rec in records for e in rec["entries"]]
    if any(len(e) != 3 for e in entries):
        raise ParseError("a pairwise entry is not a [row, col, value] triple")
    values = itertools.chain.from_iterable(entries)
    table = np.fromiter(values, float, 3 * len(entries)).reshape(-1, 3)
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
    return json.dumps(doc, indent=2) + "\n"


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
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


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


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, string or boolean raises :class:`ParseError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _read_pairs(doc: dict) -> tuple[list[str], list[np.ndarray]]:
    """Per-image labels from (candidate, label) pairs; -1 marks unlisted candidates.

    Image ids must be distinct, every ``p`` a JSON integer, candidates
    distinct integers in [0, p) and labels integers of at least -1;
    anything else raises :class:`ParseError`.
    """
    ids, labels = [], []
    if not doc["images"]:
        raise ParseError("document lists no images")
    for rec in doc["images"]:
        ids.append(str(rec["id"]))
        lab = np.full(_json_int(rec["p"], f"image {ids[-1]}: p"), -1, dtype=int)
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
