"""Dataset files, statistics, synthetic scenes, and reports.

File formats owned here (one JSON object per line, UTF-8):

Annotations JSONL::

    {"image_id": "...", "video_id": "...", "condition": "DT"|"NT",
     "period": "before"|"during", "width": W, "height": H,
     "faces": [{"box": [l, t, r, b], "label": "masked"|"unmasked"|"unknown"}]}

Detections JSONL::

    {"image_id": "...", "video_id": "...", "condition": "DT"|"NT",
     "detections": [{"box": [l, t, r, b], "label": "masked"|"unmasked",
                     "conf": c}]}

Boxes are clamped to the image bounds on load; boxes that are degenerate after
clamping are rejected with their line number. Faces smaller than the 10 x 10 px
annotation protocol minimum load fine; a file that holds any gives one SmallFaceWarning.

All randomness in the synthetic generator flows through numpy's seeded PCG64
generator, so equal parameters and seed reproduce outputs byte for byte.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import math
import re
import reprlib
import warnings
from dataclasses import KW_ONLY, InitVar, dataclass
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import orjson

from .density import (DensityMap, KernelSpec, PointSet, check_downscale, check_frame_sides,
                      map_shape, render_density, write_density)
from .errors import DataFormatError, allocating_grid, check_number, plain_numbers
from .geometry import (
    FACE_LABELS,
    Annotation,
    BBox,
    Detection,
    FaceLabel,
    build_annotations,
    build_detections,
    face_arrays,
)
from .ratio import Condition, CovidPeriod, ImageMeta, ratio_reports


class SmallFaceWarning(UserWarning):
    """Faces of an annotations file are smaller than the 10 x 10 px protocol minimum.

    One per file: the message locates the first and counts them all, and faces holds
    (line, face index, image_id, width, height) for each, in file order.
    """

    def __init__(self, message: str, faces: Iterable[tuple] = ()):
        super().__init__(message)
        self.faces = tuple(faces)


class _FaceRecord:
    """A frame's faces as read-only arrays; their value objects are built on each access.

    boxes is (N, 4) float64 (left, top, right, bottom) and labels (N,) int8
    indices into FACE_LABELS, made from the faces value objects unless given. Records
    are frozen dataclasses that compare by value: every slot is a compared field.
    """

    __slots__ = ()
    _ARRAYS = ("boxes", "labels")

    def __post_init__(self, faces) -> None:
        if self.boxes is None:
            for name, a in zip(self._ARRAYS, face_arrays(faces)):
                object.__setattr__(self, name, a)
        for name in self._ARRAYS:  # copied if writable: a record never changes its caller's array
            a = getattr(self, name)
            if a.flags.writeable:
                a = a.copy()
                a.flags.writeable = False
                object.__setattr__(self, name, a)

    def __reduce__(self):  # through the constructor, so pickle and copy give read-only arrays
        arrays = {f: getattr(self, f) for f in self._ARRAYS}
        head = tuple(getattr(self, f) for f in self.__slots__ if f not in arrays)
        return _rebuild, (type(self), head, arrays)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
            for x, y in ((getattr(self, f), getattr(other, f)) for f in self.__slots__)
        )

    def __len__(self) -> int:  # the face count; a record without faces is falsy
        return len(self.labels)

    def __hash__(self) -> int:
        return hash((self.image_id, self.meta, len(self)))


def _rebuild(cls, head: tuple, arrays: dict) -> _FaceRecord:
    return cls(*head, **arrays)


def _records(cls, rows: Iterable[tuple]) -> list:
    """cls records of rows that give every slot in order, with read-only arrays: a loader's.

    They skip the dataclass __init__ and __post_init__, which would find nothing to
    build or copy (0.9 against 1.5 us a record).
    """
    new, setters = object.__new__, [getattr(cls, name).__set__ for name in cls.__slots__]
    out = []
    for row in rows:
        rec = new(cls)
        for put, value in zip(setters, row):
            put(rec, value)
        out.append(rec)
    return out


@dataclass(frozen=True, eq=False, slots=True)
class ImageRecord(_FaceRecord):
    """One annotated frame; its faces are Annotation objects."""

    image_id: str
    meta: ImageMeta
    width: int
    height: int
    faces: InitVar[Iterable[Annotation]] = ()
    _: KW_ONLY
    boxes: np.ndarray = None
    labels: np.ndarray = None

    @property
    def annotations(self) -> tuple[Annotation, ...]:
        return build_annotations(self.boxes, self.labels)


@dataclass(frozen=True)
class DatasetManifest:
    """An ordered collection of annotated frames with unique image ids."""

    images: tuple[ImageRecord, ...]

    def __post_init__(self) -> None:
        seen = set()
        for rec in self.images:
            if rec.image_id in seen:
                raise ValueError(f"duplicate image_id {rec.image_id!r}")
            seen.add(rec.image_id)

    def __len__(self) -> int:
        return len(self.images)


@dataclass(frozen=True, eq=False, slots=True)
class DetectionRecord(_FaceRecord):
    """One frame's detector output; its faces are Detection objects, conf (N,) float64."""

    _ARRAYS = ("boxes", "labels", "conf")

    image_id: str
    meta: ImageMeta
    faces: InitVar[Iterable[Detection]] = ()
    _: KW_ONLY
    boxes: np.ndarray = None
    labels: np.ndarray = None
    conf: np.ndarray = None

    @property
    def detections(self) -> tuple[Detection, ...]:
        return build_detections(self.boxes, self.labels, self.conf)

    def __iter__(self) -> Iterator[Detection]:  # the Detections of rec.detections
        return iter(self.detections)


del ImageRecord.faces, DetectionRecord.faces  # an InitVar default left as a class attribute


# the face subsets a density map can draw
DENSITY_SUBSETS = ("total", "masked", "unmasked")


def check_density_subset(subset: str) -> None:
    """The density-subset rule: a subset is one of DENSITY_SUBSETS."""
    if subset not in DENSITY_SUBSETS:
        raise ValueError(f"unknown density subset {subset!r}, expected one of {DENSITY_SUBSETS}")


def density_path(root, image_id: str, subset: str) -> Path:
    """The file of one image's map of one subset: <root>/<image_id>.<subset>.nfmd.

    An image_id holding '/' or '\\' could name a file outside root, and no file name
    holds a NUL: DataFormatError.
    """
    if "/" in image_id or "\\" in image_id:
        raise DataFormatError(
            f"image_id {image_id!r} holds a path separator, so it cannot name a density map file"
        )
    if "\0" in image_id:
        raise DataFormatError(
            f"image_id {image_id!r} holds a NUL character, so it cannot name a density map file"
        )
    return Path(root) / f"{image_id}.{subset}.nfmd"


_LABELS = {lab.value: lab for lab in FaceLabel}
_CONDITIONS = {c.value: c for c in Condition}
_PERIODS = {p.value: p for p in CovidPeriod}
# label array codes by label name, for every face and for detections
_CODES = {lab.value: i for i, lab in enumerate(FACE_LABELS)}
_DETECTION_LABELS = (FaceLabel.MASKED.value, FaceLabel.UNMASKED.value)
_DETECTION_CODES = {k: _CODES[k] for k in _DETECTION_LABELS}


def subset_points(rec: ImageRecord, subset: str) -> PointSet:
    """Centres of the faces a subset's density map draws; total is every known face."""
    check_density_subset(subset)
    if subset == "total":
        keep = rec.labels != _CODES[FaceLabel.UNKNOWN.value]
    else:
        keep = rec.labels == _CODES[subset]
    b = rec.boxes[keep]
    return PointSet((b[:, :2] + b[:, 2:]) / 2.0, rec.width, rec.height)


def _parse_box(raw, where: str, width: int | None, height: int | None) -> BBox:
    if not (isinstance(raw, list) and len(raw) == 4):
        raise DataFormatError(f"{where}: box must be a list of 4 numbers, got {reprlib.repr(raw)}")
    try:  # before the clamp, which would hide inf
        l, t, r, b = (float(check_number(v, f"box[{i}]")) for i, v in enumerate(raw))
    except ValueError as exc:
        raise DataFormatError(f"{where}: {exc}") from None
    if width is not None and height is not None:
        l, r = min(max(l, 0.0), width), min(max(r, 0.0), width)
        t, b = min(max(t, 0.0), height), min(max(b, 0.0), height)
    try:
        return BBox(l, t, r, b)
    except ValueError as exc:
        raise DataFormatError(f"{where}: {exc}") from exc


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise DataFormatError(f"{where}: missing required field {key!r}")
    return obj[key]


def parse_annotation(face, where: str, width: int | None = None,
                     height: int | None = None) -> Annotation:
    """A checked face object; its box is clamped to width x height when both are given."""
    if not isinstance(face, dict):
        raise DataFormatError(f"{where}: expected an object")
    box = _parse_box(_require(face, "box", where), where, width, height)
    label = _require(face, "label", where)
    if not isinstance(label, str) or label not in _LABELS:
        raise DataFormatError(f"{where}: label must be masked/unmasked/unknown, got {reprlib.repr(label)}")
    return Annotation(box, _LABELS[label])


def parse_detection(det, where: str) -> Detection:
    """A checked detection object: a box, a masked or unmasked label and a conf in [0, 1]."""
    if not isinstance(det, dict):
        raise DataFormatError(f"{where}: expected an object")
    box = _parse_box(_require(det, "box", where), where, None, None)
    label = _require(det, "label", where)
    # a tuple, not _DETECTION_CODES: a list label is unhashable
    if label not in _DETECTION_LABELS:
        raise DataFormatError(f"{where}: label must be masked or unmasked, got {reprlib.repr(label)}")
    conf = _require(det, "conf", where)
    try:
        conf = float(check_number(conf, "conf", lo=0, hi=1))
    except ValueError as exc:
        raise DataFormatError(f"{where}: {exc}") from None
    return Detection(box, _LABELS[label], conf)


# characters of JSONL a loader checks at once; this bounds the decoded lines it
# holds, which a count of lines does not: 64 lines took in all six frames of a
# crowded-scene file and 256 lines all 250 of a sparse one, and both peaked
# about 1 MiB above reading line by line. No block size was clearly faster.
_LOAD_BLOCK_CHARS = 65536


def _blocks(path) -> Iterator[list[tuple[int, str]]]:
    """The file's non-blank (line number, text) lines, in blocks; only a line feed ends a line.

    A block ends with the line that brings the text read to _LOAD_BLOCK_CHARS, blank lines
    included. A byte that is not UTF-8 reads as a surrogate, for _decode to refuse at its
    line, in file order.
    """
    start = 1
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as f:
        while lines := f.readlines(_LOAD_BLOCK_CHARS - 1):  # it stops once past its hint
            if block := [(n, line) for n, line in enumerate(lines, start) if not line.isspace()]:
                yield block
            start += len(lines)


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; raises DataFormatError naming its first repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        first = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise DataFormatError(f"repeated key {first!r}")
    return obj


# one decoder for every line: json.loads with a hook would build one per call
_KEY_CHECK = json.JSONDecoder(object_pairs_hook=unique_keys)
_SURROGATE = re.compile("[\ud800-\udfff]")  # what UTF-8 cannot encode


def _decode(path, lineno: int | None, text: str):
    """The JSON value of text: line lineno of path, or all of path if lineno is None.

    A byte that is not UTF-8 (a surrogate, as errors="surrogateescape" reads it) or a
    syntax error is at path:line:column. A repeated key at any depth, or nesting too
    deep to decode, is at path:lineno, or at path for a whole file.
    """
    where = path if lineno is None else f"{path}:{lineno}"
    if not text.isascii() and (bad := _SURROGATE.search(text)):  # isascii takes O(1)
        at = bad.start()
        line, col = (lineno or 1) + text.count("\n", 0, at), at - text.rfind("\n", 0, at)
        raise DataFormatError(f"{path}:{line}:{col}: invalid UTF-8")
    try:
        if text.startswith("\ufeff"):  # json.loads refuses it; JSONDecoder.decode does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _KEY_CHECK.decode(text)
    except json.JSONDecodeError as exc:  # the column is in the prefix: drop a dangling "at"
        # an error past a final line feed, which json puts on one more line, stays on the last
        line = (lineno or 1) + min(exc.lineno, text.rstrip("\n").count("\n") + 1) - 1
        msg = exc.msg.removesuffix(" at")
        raise DataFormatError(f"{path}:{line}:{exc.colno}: invalid JSON: {msg}") from exc
    except RecursionError:
        raise DataFormatError(f"{where}: invalid JSON: nested too deeply to decode") from None
    except DataFormatError as exc:
        raise DataFormatError(f"{where}: {exc}") from exc


def _require_id(obj: dict, key: str, where: str) -> str:
    """obj[key], a non-empty string that UTF-8 can encode (JSON's "\\ud800" decodes to one
    that it cannot, which no report could write)."""
    value = _require(obj, key, where)
    if not isinstance(value, str) or not value:
        raise DataFormatError(f"{where}: {key} must be a non-empty string")
    if not value.isascii() and _SURROGATE.search(value):
        raise DataFormatError(f"{where}: {key} {value!r} cannot be written as UTF-8")
    return value


def _parse_header(obj, where: str, seen: set[str]) -> tuple[str, str, Condition]:
    """Check that a line is an object with the image_id, video_id and condition of both formats.

    The image_id must not be in seen; the caller adds it.
    """
    if not isinstance(obj, dict):
        raise DataFormatError(f"{where}: expected a JSON object")
    image_id = _require_id(obj, "image_id", where)
    if image_id in seen:
        raise DataFormatError(f"{where}: duplicate image_id {image_id!r}")
    video_id = _require_id(obj, "video_id", where)
    condition = _require(obj, "condition", where)
    if not isinstance(condition, str) or condition not in _CONDITIONS:
        raise DataFormatError(f"{where}: condition must be 'DT' or 'NT'")
    return image_id, video_id, _CONDITIONS[condition]


def _fast_lines(block: list[tuple[int, str]], read_heads, seen: set[str], metas: dict):
    """A block's (line number, header) lines, each decoded by orjson and checked at once, or None.

    read_heads(objs, seen, metas) gives the block's headers and the keys that its line and
    face objects must hold, or None or an exception where a header would fail its check.
    Every ':' of JSON text separates a name from its value or lies in a string, so the
    block's ':' count equals those keys only if no key is extra or repeated, no other
    object has a pair and no string holds a ':'. So every value read is a string, an int
    below 2**53, or a box or conf number, which both decoders round to one float64:
    orjson refuses a surrogate, a BOM, NaN and numbers beyond float range, and reads an
    int past 64 bits as a float (one just above float range as the largest float, which
    the block readers refuse, so the per-line path decides).
    """
    linenos, texts = zip(*block)
    got = read_heads(list(map(orjson.loads, texts)), seen, metas)
    if got is None or "".join(texts).count(":") != got[1]:
        return None
    return list(zip(linenos, got[0]))


@contextlib.contextmanager
def _gc_paused():
    """The cyclic garbage collector off, unless it was off already.

    A loader makes tens of thousands of acyclic objects a block, which each collection
    would scan again: about 8% of the det_ratio loads' time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def _load(path, read_header, read_block, read_line, read_heads) -> list:
    """Every record of a JSONL file; a block that _fast_lines declines is read line by line.

    Line by line, each line is decoded and its header checked once: read_header(obj, where,
    seen) returns it with the line's raw faces last, and refuses an image_id in seen. A
    rejected header ends its block, whose lines before it are read first. read_block(lines)
    reads (line number, header) lines into records as arrays (small faces noted last). Its
    checks may refuse more than the one-face parsers, never less; where they refuse,
    read_line(lineno, where, head) parses each line's faces one at a time, and decides. The
    fast path gives a block every record and small face that the per-line path would give it.
    """
    records, seen, metas = [], set(), {}  # metas: one ImageMeta per distinct key
    for block in _blocks(path):
        try:  # an error here only declines the block, which the per-line path then decides
            lines = _fast_lines(block, read_heads, seen, metas)
            if lines is not None:
                records.extend(read_block(lines))
                seen.update([head[0] for _, head in lines])
                continue
        except Exception:
            pass
        lines, rejected = [], None
        for lineno, line in block:
            try:
                head = read_header(_decode(path, lineno, line), f"{path}:{lineno}", seen)
            except Exception as exc:
                rejected = exc
                break
            seen.add(head[0])
            lines.append((lineno, head))
        try:
            records.extend(read_block(lines))
        except Exception:
            records.extend(read_line(lineno, f"{path}:{lineno}", head) for lineno, head in lines)
        if rejected is not None:
            raise rejected
    return records


def _fast_header(ids: tuple, video_ids: tuple, faces: tuple, seen: set[str]) -> bool:
    """Whether a block's ids are strings, its image_ids non-empty and new, and its faces lists.

    orjson decodes no string that UTF-8 cannot encode, so every id is one _require_id takes;
    _metas checks the rest of a header.
    """
    return ({*map(type, ids + video_ids)} == {str} and all(ids) and len({*ids}) == len(ids)
            and seen.isdisjoint(ids) and {*map(type, faces)} == {list})


def _metas(metas: dict, keys: Iterable[tuple]) -> Iterator[ImageMeta]:
    """The ImageMeta of each (video_id, condition[, period]) key, one per distinct key in metas.

    An unknown condition or period raises KeyError, and an empty video_id ValueError.
    """
    keys = list(keys)
    for key in {*keys} - metas.keys():
        metas[key] = ImageMeta(key[0], _CONDITIONS[key[1]], *map(_PERIODS.__getitem__, key[2:]))
    return map(metas.__getitem__, keys)


_BOX, _LABEL, _CONF = itemgetter("box"), itemgetter("label"), itemgetter("conf")


def _block_faces(raw: list, codes: Mapping[str, int], frames: np.ndarray | None = None):
    """The (N, 4) boxes and (N,) label codes of a block's raw face objects; given frames,
    rows of (width, height, width, height), each box is clamped into its frame as _parse_box is.

    Raises on any value that the one-face check might not accept as is.
    """
    boxes = list(map(_BOX, raw))
    if set(map(len, boxes)) - {4}:  # a string or an object of 4 puts strings in flat
        raise ValueError("a box is not a list of 4")
    # checked before the clamp, which would hide inf
    boxes = plain_numbers(list(chain.from_iterable(boxes))).reshape(-1, 4)
    if frames is not None:
        boxes = _clamp(boxes, 0.0, frames)
    if not ((boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])).all():
        raise ValueError("a box is empty")
    # a label that names no code raises KeyError, or TypeError if it is unhashable
    return boxes, np.fromiter(map(codes.__getitem__, map(_LABEL, raw)), np.int8, len(raw))


def _clamp(a: np.ndarray, lo, hi) -> np.ndarray:
    """min(max(v, lo), hi) for each v of a, as Python's min and max give it (NaN and -0.0 kept)."""
    a = np.where(lo > a, lo, a)
    return np.where(hi < a, hi, a)


def _split(counts: list[int], *arrays: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Per-line read-only views of block arrays whose rows run line after line."""
    for a in arrays:
        a.flags.writeable = False
    ends = list(accumulate(counts))
    return list(zip(*([a[start:end] for start, end in zip([0, *ends], ends)] for a in arrays)))


def _annotation_header(obj, where: str, seen: set[str]):
    """(image_id, meta, width, height, faces) of an annotations line, checked."""
    image_id, video_id, condition = _parse_header(obj, where, seen)
    width = _require(obj, "width", where)
    height = _require(obj, "height", where)
    try:  # below 2**53 a float64 holds every int exactly, so the block clamp compares as in Python
        check_frame_sides(width, height)
    except ValueError as exc:
        raise DataFormatError(f"{where}: {exc}") from None
    period = _require(obj, "period", where)
    if not isinstance(period, str) or period not in _PERIODS:
        raise DataFormatError(f"{where}: period must be 'before' or 'during'")
    faces = _require(obj, "faces", where)
    if not isinstance(faces, list):
        raise DataFormatError(f"{where}: faces must be a list")
    return image_id, ImageMeta(video_id, condition, _PERIODS[period]), width, height, faces


_ANNOTATION_FIELDS = itemgetter("image_id", "video_id", "condition", "period", "width", "height", "faces")


def _annotation_heads(objs: list, seen: set[str], metas: dict):
    """_annotation_header's results for a block's decoded lines and their key count, or None."""
    ids, video_ids, conditions, periods, widths, heights, faces = zip(*map(_ANNOTATION_FIELDS, objs))
    sides = widths + heights
    if not (_fast_header(ids, video_ids, faces, seen)
            and {*map(type, sides)} == {int} and 0 < min(sides) and max(sides) < 2**53):
        return None
    metas_of = _metas(metas, zip(video_ids, conditions, periods))
    return (list(zip(ids, metas_of, widths, heights, faces)),
            7 * len(objs) + 2 * sum(map(len, faces)))


def _note_small(small: list, lines: list, counts: list[int], boxes: np.ndarray) -> None:
    """The 10-px rule: small gets (line, face index, image_id, width, height) of each face
    under 10 px of boxes, whose rows are the counts faces of each (line number, header) line."""
    sizes = boxes[:, 2:] - boxes[:, :2]
    rows = np.flatnonzero((sizes < 10.0).any(axis=1))
    if rows.size:
        ends = np.cumsum(counts)
        at = ends.searchsorted(rows, "right").tolist()  # the line of each small face
        small.extend(zip([lines[k][0] for k in at], (rows - (ends - counts)[at]).tolist(),
                         [lines[k][1][0] for k in at], *sizes[rows].T.tolist()))


def _annotation_block(lines: list[tuple[int, tuple]], small: list) -> list[ImageRecord]:
    """The records of (line number, header) lines; their small faces go to small once all
    are checked."""
    heads = [h for _, h in lines]
    faces = [h[4] for h in heads]
    counts = list(map(len, faces))
    dims = np.array([h[2:4] for h in heads], dtype=np.float64).reshape(-1, 2)
    boxes, labels = _block_faces(list(chain.from_iterable(faces)), _CODES,
                                 np.repeat(dims[:, [0, 1, 0, 1]], counts, axis=0))
    records = _records(ImageRecord, [(*head[:4], *arrays)
                                     for head, arrays in zip(heads, _split(counts, boxes, labels))])
    _note_small(small, lines, counts, boxes)
    return records


def _annotation_faces(lineno: int, where: str, head: tuple, small: list) -> ImageRecord:
    """A line's record, its faces parsed one at a time; small gets those read, before a bad one too."""
    faces = []
    try:
        for i, face in enumerate(head[4]):
            faces.append(parse_annotation(face, f"{where}: face {i}", *head[2:4]))
    finally:
        rec = ImageRecord(*head[:4], faces)
        _note_small(small, [(lineno, head)], [len(rec)], rec.boxes)
    return rec


def load_annotations(path) -> DatasetManifest:
    """Load an annotations JSONL file into a manifest.

    Malformed lines, invalid boxes, and duplicate image ids raise
    DataFormatError naming the offending line; sub-protocol face sizes only
    warn, with one SmallFaceWarning for the file, issued before any such error
    and covering the faces read before it.
    """
    small = []
    try:
        return DatasetManifest(tuple(_load(
            path, _annotation_header, functools.partial(_annotation_block, small=small),
            functools.partial(_annotation_faces, small=small), _annotation_heads)))
    finally:
        if small:
            line, i, image_id, w, h = small[0]
            # stacklevel 2 names load_annotations' caller
            warnings.warn(SmallFaceWarning(
                f"{path}:{line}: face {i} ({image_id!r}): face {w:g}x{h:g} px is below the 10x10 "
                f"annotation protocol minimum; small faces read from the file: {len(small)}",
                small), SmallFaceWarning, stacklevel=2)


def _write_jsonl(path, records, fields_of) -> None:
    """One compact JSON line per record: image_id, video_id, condition, then fields_of(rec)."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            obj = {"image_id": rec.image_id, "video_id": rec.meta.video_id,
                   "condition": rec.meta.condition.value, **fields_of(rec)}
            f.write(json.dumps(obj, separators=(",", ":")) + "\n")


def save_annotations(manifest: DatasetManifest, path) -> None:
    """Write a manifest back to annotations JSONL (inverse of load_annotations)."""
    _write_jsonl(path, manifest.images, lambda rec: {
        "period": (rec.meta.covid_period or CovidPeriod.DURING).value,
        "width": rec.width, "height": rec.height,
        "faces": [{"box": box, "label": FACE_LABELS[code].value}
                  for box, code in zip(rec.boxes.tolist(), rec.labels.tolist())],
    })


def _detection_header(obj, where: str, seen: set[str]):
    """(image_id, meta, detections) of a detections line, checked."""
    image_id, video_id, condition = _parse_header(obj, where, seen)
    dets_raw = _require(obj, "detections", where)
    if not isinstance(dets_raw, list):
        raise DataFormatError(f"{where}: detections must be a list")
    return image_id, ImageMeta(video_id, condition), dets_raw


_DETECTION_FIELDS = itemgetter("image_id", "video_id", "condition", "detections")


def _detection_heads(objs: list, seen: set[str], metas: dict):
    """_detection_header's results for a block's decoded lines and their key count, or None."""
    ids, video_ids, conditions, dets = zip(*map(_DETECTION_FIELDS, objs))
    if not _fast_header(ids, video_ids, dets, seen):
        return None
    return (list(zip(ids, _metas(metas, zip(video_ids, conditions)), dets)),
            4 * len(objs) + 3 * sum(map(len, dets)))


def _detection_block(lines: list[tuple[int, tuple]]) -> list[DetectionRecord]:
    heads = [h for _, h in lines]
    dets = [h[2] for h in heads]
    counts = list(map(len, dets))
    raw = list(chain.from_iterable(dets))
    boxes, labels = _block_faces(raw, _DETECTION_CODES)
    conf = plain_numbers(list(map(_CONF, raw)))
    if not ((conf >= 0.0) & (conf <= 1.0)).all():
        raise ValueError("a conf is outside [0, 1]")
    return _records(DetectionRecord, [(*head[:2], *arrays)
                                      for head, arrays in zip(heads, _split(counts, boxes, labels, conf))])


def _detection_faces(lineno: int, where: str, head: tuple) -> DetectionRecord:
    """A line's record, its detections parsed one at a time."""
    return DetectionRecord(*head[:2], [parse_detection(det, f"{where}: detection {i}")
                                       for i, det in enumerate(head[2])])


def load_detections(path) -> list[DetectionRecord]:
    """Load a detections JSONL file; same error policy as load_annotations."""
    return _load(path, _detection_header, _detection_block, _detection_faces, _detection_heads)


def write_detections(records: Sequence[DetectionRecord], path) -> None:
    """Write detection records as detections JSONL."""
    _write_jsonl(path, records, lambda rec: {"detections": [
        {"box": box, "label": FACE_LABELS[code].value, "conf": c}
        for box, code, c in zip(rec.boxes.tolist(), rec.labels.tolist(), rec.conf.tolist())
    ]})


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class Table:
    """A small report table: column names plus rows of cells."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError(
                    f"row of width {len(r)} does not match {len(self.columns)} columns"
                )


_SIZE_EDGES = (0.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
_RATIO_BINS = 10
_COUNT_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)


def _bin_labels(edges: Sequence[float]) -> list[str]:
    labels = [f"[{edges[i]:g}-{edges[i + 1]:g})" for i in range(len(edges) - 1)]
    labels.append(f">={edges[-1]:g}")
    return labels


def _histogram(values: Sequence[float], edges: Sequence[float]) -> list[int]:
    arr = np.asarray(values, dtype=np.float64)
    hist, _ = np.histogram(arr, bins=list(edges) + [np.inf])
    return [int(v) for v in hist]


def dataset_stats(train: DatasetManifest, test: DatasetManifest) -> dict[str, Table]:
    """Summary tables over a train/test manifest pair.

    Returns label counts per split with totals, per-image label averages
    (1 decimal), and three histograms: face size (max box dimension, log-2
    bins), per-image mask-wearing ratio (bins of width 0.1, the last one
    closed), and annotated faces per image.
    """
    splits = (("Training", train), ("Testing", test))
    # per split: images, then the faces of each FaceLabel
    counts = []
    for _, m in splits:
        labels = np.concatenate([np.zeros(0, np.int8), *(rec.labels for rec in m.images)])
        counts.append((len(m), *map(int, np.bincount(labels, minlength=len(FACE_LABELS)))))
    names = [lab.value for lab in FACE_LABELS]
    count_rows = [(name, *c) for (name, _), c in zip(splits, counts)]
    count_rows.append(("Total", *(sum(col) for col in zip(*counts))))
    averages = [
        (name, *(round(v / n, 1) if n else 0.0 for v in faces))
        for (name, _), (n, *faces) in zip(splits, counts)
    ]

    def histogram(labels, edges, values_of_images) -> Table:
        columns = [_histogram(values_of_images(m.images), edges) for _, m in splits]
        return Table(("bin", "training", "testing"), tuple(zip(labels, *columns)))

    def face_sizes(images):
        boxes = np.concatenate([np.zeros((0, 4)), *(rec.boxes for rec in images)])
        return np.maximum(boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1])

    def ratios(images):  # images with no known face have no ratio and are left out
        return [r for r in (rep.ratio for rep in ratio_reports(images)) if r is not None]

    # i / _RATIO_BINS puts every ratio k/n equal to i/10 exactly on its edge;
    # ratios never exceed 1, so the open last bin of _histogram is [0.9-1]
    ratio_edges = [i / _RATIO_BINS for i in range(_RATIO_BINS)]
    ratio_labels = _bin_labels(ratio_edges)[:-1] + [f"[{ratio_edges[-1]:g}-1]"]
    return {
        "counts": Table(("split", "images", *names), count_rows),
        "per_image_averages": Table(("split", *names), averages),
        "face_size_histogram": histogram(_bin_labels(_SIZE_EDGES), _SIZE_EDGES, face_sizes),
        "mask_ratio_histogram": histogram(ratio_labels, ratio_edges, ratios),
        "faces_per_image_histogram": histogram(
            _bin_labels(_COUNT_EDGES), _COUNT_EDGES, lambda images: [len(r.labels) for r in images]
        ),
    }


# ---------------------------------------------------------------------------
# synthetic scenes


# (mean, std) of the simulated detector's true and false positive confidences
_TP_CONFIDENCE = (0.9, 0.05)
_FP_CONFIDENCE = (0.3, 0.1)


@dataclass(frozen=True)
class SynthParams:
    """Parameters of the seeded synthetic scene generator.

    The simulated detector perturbs the ground truth: every known face is
    dropped with drop_rate, its label flipped with flip_rate, and its box
    jittered by per-coordinate Gaussian noise of jitter_sigma pixels; spurious
    detections arrive at false_positive_rate per image (Poisson). True
    detections draw confidence from a normal _TP_CONFIDENCE (mean, std)
    clamped to [0, 1], false positives from _FP_CONFIDENCE. When every
    detector noise knob is zero the detector is perfect and reports
    confidence 1.0.
    Unknown-labeled faces are never detected: they are undecidable by
    definition.

    Simulated density predictions are the ground-truth maps (at
    density_downscale resolution) with per-cell relative noise of amplitude
    density_noise.
    """

    seed: int
    n_images: int = 200
    faces_min: int = 5
    faces_max: int = 80
    image_width: int = 256
    image_height: int = 256
    masked_probability: float = 0.5
    unknown_probability: float = 0.0
    n_videos: int = 4
    face_size_min: float = 12.0
    face_size_max: float = 56.0
    jitter_sigma: float = 0.0
    drop_rate: float = 0.0
    flip_rate: float = 0.0
    false_positive_rate: float = 0.0
    density_noise: float = 0.0
    density_downscale: int = 8
    kernel: KernelSpec = KernelSpec()

    def __post_init__(self) -> None:
        check_number(self.seed, "seed", integer=True, lo=0)
        check_number(self.n_images, "n_images", integer=True, lo=0)
        check_number(self.faces_min, "faces_min", integer=True, lo=0)
        # synth_scene draws below faces_max + 1, which numpy's int64 draw must hold
        check_number(self.faces_max, "faces_max", integer=True, lo=self.faces_min,
                     hi=2**63 - 1, hi_open=True)
        # as in the loaders, which read what synth writes, and at least 8 px
        check_frame_sides(self.image_width, self.image_height, ("image_width", "image_height"), 8)
        for name in ("masked_probability", "unknown_probability", "drop_rate", "flip_rate", "density_noise"):
            check_number(getattr(self, name), name, lo=0, hi=1)
        check_number(self.jitter_sigma, "jitter_sigma", lo=0)
        # numpy's Poisson sampler refuses a rate above about 9.2e18
        check_number(self.false_positive_rate, "false_positive_rate", lo=0, hi=2**53)
        check_number(self.face_size_min, "face_size_min", lo=0, lo_open=True)
        check_number(self.face_size_max, "face_size_max", lo=self.face_size_min)
        check_number(self.n_videos, "n_videos", integer=True, lo=1)
        check_downscale(self.density_downscale, "density_downscale")


@dataclass(frozen=True)
class SynthScene:
    """Generated ground truth with simulated detections and density predictions."""

    manifest: DatasetManifest
    detections: tuple[DetectionRecord, ...]
    density: dict[str, dict[str, DensityMap]] | None  # image_id -> subset -> map


def _synth_box(rng: np.random.Generator, params: SynthParams,
               image_id: str) -> tuple[float, float, float, float]:
    size = math.exp(
        rng.uniform(math.log(params.face_size_min), math.log(params.face_size_max))
    )
    aspect = math.exp(rng.uniform(math.log(0.75), math.log(4.0 / 3.0)))
    w = min(size * math.sqrt(aspect), 0.95 * params.image_width)
    h = min(size / math.sqrt(aspect), 0.95 * params.image_height)
    cx = rng.uniform(w / 2.0, params.image_width - w / 2.0)
    cy = rng.uniform(h / 2.0, params.image_height - h / 2.0)
    box = cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0
    if not (box[2] > box[0] and box[3] > box[1]):  # a side below the floats' spacing at its centre
        raise ValueError(f"face_size_min {params.face_size_min!r} is too small: frame "
                         f"{image_id!r} drew a box with no width or height, got {box}")
    return box


def _rows(n: int, cols: int, what: str) -> np.ndarray:
    """An (n, cols) float64 array for n draws, allocated by allocating_grid's rule."""
    with allocating_grid(n, cols, what):
        return np.empty((n, cols), dtype=np.float64)


def _jitter_box(boxes: np.ndarray, noise: np.ndarray, sigma: float, w: int, h: int) -> np.ndarray:
    """(N, 4) boxes moved by sigma * noise and clamped into the w x h frame.

    A side under half a pixel becomes c - 0.25 to c + 0.25 about its clamped
    centre c. Where floats are 0.5 or more apart near c, both round back to c,
    and the side becomes the floats next to c instead, kept inside the frame.
    """
    with np.errstate(over="ignore"):  # an infinite move is clamped like any other
        out = _clamp(boxes + sigma * noise, 0.0, np.array([w, h, w, h], dtype=np.float64))
    for lo, hi, side in ((0, 2, w), (1, 3, h)):
        narrow = out[:, hi] - out[:, lo] < 0.5  # keep the box valid after heavy jitter
        c = _clamp((out[narrow, lo] + out[narrow, hi]) / 2.0, 0.25, side - 0.25)
        left, right = c - 0.25, c + 0.25
        flat = left >= right
        left[flat] = np.nextafter(c[flat], -np.inf)
        right[flat] = np.minimum(np.nextafter(c[flat], np.inf), side)
        out[narrow, lo] = left
        out[narrow, hi] = right
    return out


def _skip_doubles(rng: np.random.Generator, n: int) -> None:
    """Advance rng as n float64 draws would, without making them.

    A double takes one 64-bit step. advance() also drops the 32-bit half that
    integers() can leave buffered, which no double uses, so it is put back.
    """
    before = rng.bit_generator.state
    rng.bit_generator.advance(n)
    state = rng.bit_generator.state
    state.update(has_uint32=before["has_uint32"], uinteger=before["uinteger"])
    rng.bit_generator.state = state


def synth_scene(params: SynthParams, include_density: bool = True) -> SynthScene:
    """Generate a deterministic synthetic scene set from the seed.

    With all noise at zero the detections replicate the annotations at
    confidence 1.0 and the density predictions equal the ground-truth maps,
    which makes the generator an exact oracle for every evaluation pipeline.
    """
    masked, unmasked, unknown = (_CODES[k] for k in ("masked", "unmasked", "unknown"))
    noiseless = not (params.jitter_sigma or params.drop_rate or params.flip_rate
                     or params.false_positive_rate)
    rng = np.random.default_rng(params.seed)
    frame = (f"a {params.image_width} x {params.image_height} frame at downscale "
             f"{params.density_downscale}")  # as render_density names it
    images = []
    det_records = []
    density: dict[str, dict[str, DensityMap]] | None = {} if include_density else None

    for i in range(params.n_images):
        video_idx = i % params.n_videos
        meta = ImageMeta(
            f"video{video_idx:02d}",
            Condition.DAYTIME if video_idx % 2 == 0 else Condition.NIGHTTIME,
            CovidPeriod.BEFORE if video_idx < params.n_videos // 2 else CovidPeriod.DURING,
        )
        image_id = f"img{i:05d}"
        # per face, in order: its box, then its label draws
        n_faces = int(rng.integers(params.faces_min, params.faces_max + 1))
        faces = _rows(n_faces, 5, f"the draw of {n_faces} faces for frame {image_id!r}")
        for row in faces:
            row[:] = (*_synth_box(rng, params, image_id),
                      unknown if rng.random() < params.unknown_probability
                      else masked if rng.random() < params.masked_probability else unmasked)
        boxes, labels = faces[:, :4], faces[:, 4].astype(np.int8)
        rec = ImageRecord(image_id, meta, params.image_width, params.image_height,
                          boxes=boxes, labels=labels)
        images.append(rec)

        # per known face, in order: u_drop, u_flip, the 4 jitter draws, the confidence draw
        known = labels != unknown
        draws = np.array(
            [[rng.random(), rng.random(), *rng.standard_normal(4), rng.normal(*_TP_CONFIDENCE)]
             for _ in range(np.count_nonzero(known))], dtype=np.float64).reshape(-1, 7)
        kept = draws[:, 0] >= params.drop_rate
        draws = draws[kept]
        tp_labels = labels[known][kept]
        flip = draws[:, 1] < params.flip_rate
        tp_labels[flip] = np.where(tp_labels[flip] == masked, unmasked, masked)
        tp_boxes = _jitter_box(boxes[known][kept], draws[:, 2:6], params.jitter_sigma,
                               params.image_width, params.image_height)
        # per false positive, in order: its box, its label draw, its confidence draw
        n_fp = int(rng.poisson(params.false_positive_rate)) if params.false_positive_rate > 0.0 else 0
        fps = _rows(n_fp, 6, f"the draw of {n_fp} false positives for frame {image_id!r}")
        for row in fps:
            row[:] = (*_synth_box(rng, params, image_id), rng.random(), rng.normal(*_FP_CONFIDENCE))
        det_boxes = np.concatenate([tp_boxes, fps[:, :4]])
        det_labels = np.concatenate([tp_labels, np.where(fps[:, 4] < 0.5, masked, unmasked)])
        conf = np.concatenate([draws[:, 6], fps[:, 5]])
        conf = np.ones_like(conf) if noiseless else _clamp(conf, 0.0, 1.0)
        # detector output carries no covid period (the detections schema has none)
        det_meta = ImageMeta(meta.video_id, meta.condition)
        det_records.append(DetectionRecord(image_id, det_meta, boxes=det_boxes,
                                           labels=det_labels.astype(np.int8), conf=conf))

        if density is not None:
            maps = {}
            for name in ("total", "unmasked"):
                pts = subset_points(rec, name)
                gt = render_density(pts, params.kernel, params.density_downscale)
                with allocating_grid(*gt.values.shape, frame):
                    noise_field = rng.uniform(-1.0, 1.0, gt.values.shape)
                    pred = gt.values * (1.0 + params.density_noise * noise_field)
                    maps[name] = DensityMap(pred, gt.downscale)
            density[image_id] = maps
        else:  # pass over the maps' noise draws: the faces do not depend on include_density
            rows, cols = map_shape(params.image_height, params.image_width, params.density_downscale)
            _skip_doubles(rng, 2 * rows * cols)

    return SynthScene(
        DatasetManifest(tuple(images)), tuple(det_records), density
    )


def write_synth_scene(scene: SynthScene, out_dir) -> None:
    """Write a scene as annotations.jsonl, detections.jsonl, and density/*.nfmd."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_annotations(scene.manifest, out / "annotations.jsonl")
    write_detections(scene.detections, out / "detections.jsonl")
    if scene.density is not None:
        density_dir = out / "density"
        density_dir.mkdir(exist_ok=True)
        for image_id in sorted(scene.density):
            for name, dmap in sorted(scene.density[image_id].items()):
                write_density(dmap, density_path(density_dir, image_id, name))


# ---------------------------------------------------------------------------
# report writing


_QUOTED = re.compile('[,"\n\r]')  # a CSV cell holding one of these is quoted


def _csv_cell(v) -> str:
    """A value as one CSV cell: None empty, bools lower case, floats by their shortest repr."""
    if v is None:
        s = ""
    elif isinstance(v, bool):
        s = "true" if v else "false"
    elif isinstance(v, float):
        s = repr(v)
    else:
        s = str(v)
    return '"' + s.replace('"', '""') + '"' if _QUOTED.search(s) else s


def table_to_csv(table: Table) -> str:
    """Render one table as CSV text (header plus rows, newline-terminated)."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in (table.columns, *table.rows))


def render_report(tables: Table | Mapping[str, Table], fmt: str = "csv") -> str:
    """Render report tables as one text stream.

    JSON is one payload of {name: {"columns", "rows"}}; a single bare Table is
    named "report". CSV is the table itself when there is one, and each table
    after a "# name" line when there are several.
    """
    if isinstance(tables, Table):
        tables = {"report": tables}
    if fmt == "json":
        payload = {
            name: {"columns": list(t.columns), "rows": [list(r) for r in t.rows]}
            for name, t in tables.items()
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        if len(tables) == 1:
            (table,) = tables.values()
            return table_to_csv(table)
        return "".join(f"# {name}\n{table_to_csv(t)}" for name, t in tables.items())
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(tables: Table | Mapping[str, Table], path, fmt: str = "csv") -> None:
    """Write report tables with bit-stable formatting.

    Floats are rendered with their shortest round-trip repr and undefined
    values as empty CSV cells / JSON nulls, so identical tables always produce
    identical bytes. JSON output is one file; CSV output is one file for a
    single table and a directory of <name>.csv files for several. A file holds
    exactly what render_report gives.
    """
    if fmt == "csv" and isinstance(tables, Mapping) and len(tables) > 1:
        out = Path(path)
        out.mkdir(parents=True, exist_ok=True)
        for name, table in tables.items():
            (out / f"{name}.csv").write_text(table_to_csv(table), encoding="utf-8")
    else:
        Path(path).write_text(render_report(tables, fmt), encoding="utf-8")
