r"""icmap's JSON files: one reader, one writer and one instance-record codec.

Maps, scenes, traces and eval reports are JSON objects. Each file holds
the bytes `json.dumps(doc) + "\n"` gives: one line, `, ` and `: `
separators, ASCII text with `\uXXXX` escapes, floats in Python's repr form
(the shortest decimal that round-trips exactly, e.g. `1.5e-05`), and the
`NaN` and `Infinity` literals where an eval report holds them. Each
instance in them is a record holding the fields a key tuple names, per list
kind, and at least as many points as `MIN_POINTS` gives that kind: 2 for
map, scene ground-truth and detection records, 1 for trace records. A
crossing's ring in a map, ground-truth or detection record holds at least
`MIN_RING_POINTS`, 3.
Every file starts with the same header: a `format_version` and a string
`scene_id`, which `read_doc` alone checks. Reading checks every field at
the boundary and raises MapFormatError, the one error of a malformed map,
scene or trace file, led by the file and naming the field, e.g.
`scene.json: frames[3].detections[1].points: non-finite value (NaN or inf)`.

Files are written with orjson wherever it can give these bytes, and with
`json` otherwise. orjson writes the same shortest round-trip digits as
repr, in another notation for some floats (`1e-7`, `1e16`, `0.000015`), and
no spaces; `write_doc` rewrites both. It keeps `json` for a document orjson
refuses (a non-str key, a numpy scalar, an int beyond 64 bits) or writes
with an escape, a non-ASCII or DEL byte, or `null` (orjson's form of NaN,
infinities and None alike). One difference remains: orjson encodes dataclasses,
enums, UUIDs and datetimes, which `json` refuses; icmap writes none.

Files are parsed with orjson, whose floats have the bits of the standard
library's `json`. What orjson refuses (NaN, Infinity and 1e999 literals,
lone surrogate escapes, bad UTF-8 or JSON) is parsed again by `json`,
which reads the first three for the checkers here to reject and words the
error of a file it refuses as it always has. Two differences remain: an
integer literal outside the 64-bit range reads as a float, where `json`
gives an int (icmap writes no such number), and orjson reads nesting of
any depth, where `json` raises RecursionError near Python's recursion
limit (a field check that meets such a value names the field). Messages
quote a value in `reprlib`'s bounded form, so a deep one cannot make
them overflow the stack.
A list of records decodes at once (`from_records`): the points, scores
and embeddings of all its records convert to one float64 array in one
call, whose finiteness is checked once, and each instance gets slices of
it. The scene and trace loaders decode the lists of all frames in one such
pass (`decode_lists`). A number is an int or a float: a string, a boolean
or null is rejected, though `float` reads `"0.9"` and `true` and numpy
reads null as NaN. Where a list is not plainly well formed, the
per-record checks (`from_record`) run record by record; they exist to
name the first bad field, and accept what the list decode accepts, with
the same bits.
The loaders decode, and the scene and map writers build their documents,
under `gc_paused`, since a document is tens of thousands of lists, none of
them cyclic, that the cycle collector would otherwise walk again and again.
"""
from __future__ import annotations

import gc
import io
import json
import math
import reprlib
from contextlib import contextmanager
from itertools import accumulate, chain

import numpy as np
import orjson

from .errors import MapFormatError, UnsupportedVersion
from .instance import CLASSES, MapInstance

MAP_KEYS = ("id", "class", "points")  # map and scene ground-truth instances
DETECTION_KEYS = ("class", "score", "points", "embedding")  # embedding may be absent
TRACE_KEYS = ("id", "class", "score", "points")
# the fewest points a record of each kind holds: map, ground-truth and
# detected instances are polylines or rings; eval's Chamfer tables need one
# point of each tracked instance
MIN_POINTS = {MAP_KEYS: 2, DETECTION_KEYS: 2, TRACE_KEYS: 1}
# the fewest points of a crossing's ring in a map, ground-truth or detection
# record: fewer make no polygon to clip or unite (a trace record needs one)
MIN_RING_POINTS = 3


def write_doc(doc: dict, path) -> None:
    """Write `doc` as the bytes of `json.dumps(doc)` and a newline (see the
    module docstring)."""
    data = _orjson_dumps(doc)
    if data is None:
        data = (json.dumps(doc) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)


def _orjson_dumps(doc) -> bytes | None:
    """The bytes of `json.dumps(doc)` and a newline, made from orjson's
    encoding of `doc`; None where orjson cannot give them. Each step holds
    at most two copies of the text."""
    try:
        data = orjson.dumps(doc)
    except TypeError:  # a non-str key, a numpy scalar, an int beyond 64 bits
        return None
    if b"\\" in data or b"\x7f" in data or not data.isascii():  # json would escape
        return None
    # With no escaped quote, the odd parts are the strings' text. The even
    # parts, joined by quotes, are the JSON around them, each string reduced
    # to one quote, so the rewrites below touch no string.
    parts = data.split(b'"')
    del data
    strings = parts[1::2]
    outside = b'"'.join(parts[0::2])
    del parts
    if b"n" in outside:  # outside strings only `null` holds an n
        return None
    outside = _repr_floats(outside)
    outside = outside.replace(b",", b", ")
    outside = outside.replace(b":", b": ")
    parts = [b""] * (2 * len(strings) + 1)
    parts[0::2] = outside.split(b'"')
    del outside
    parts[1::2] = strings
    parts[-1] += b"\n"
    return b'"'.join(parts)


_DIGITS = frozenset(b"0123456789")
_NUMBER = frozenset(b"-.0123456789e")  # the bytes of an orjson number


def _repr_floats(text: bytes) -> bytes:
    """`text`, JSON with no strings in it as orjson writes it, with every
    float that orjson writes in exponent form (`1e-7`, `1e16`) or as
    `0.0000...` written in repr form instead (`1e-07`, `1e+16`, `1.5e-05`):
    the digits are the same, only the notation differs."""
    hits = []
    for mark in (b"e", b"0.0000"):
        at = text.find(mark)
        while at != -1:
            if mark != b"e" or text[at - 1] in _DIGITS:  # not the e of true or false
                hits.append(at)
            at = text.find(mark, at + 1)
    view = memoryview(text)
    pieces = []
    done = 0
    for at in sorted(hits):
        start, end = at, at + 1
        while start and text[start - 1] in _NUMBER:
            start -= 1
        while end < len(text) and text[end] in _NUMBER:
            end += 1
        pieces += (view[done:start], repr(float(text[start:end])).encode())
        done = end
    pieces.append(view[done:])
    return b"".join(pieces)


def read_doc(path, kind: str, version: str, required) -> dict:
    """The JSON object in `path`, of `format_version` `version`, with a string
    `scene_id` and every key in `required`; raises MapFormatError
    (UnsupportedVersion for another version) naming the file and the field
    otherwise."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError:
        # the text a file opened with encoding="utf-8" reads, newlines
        # translated, so that `json` words its errors as it always has
        try:
            doc = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise MapFormatError(f"{path}: not valid JSON: {exc}") from exc
    as_object(doc, str(path), ("format_version",))
    if doc["format_version"] != version:
        raise UnsupportedVersion(
            f"{path}: {kind} format_version {reprlib.repr(doc['format_version'])} not supported")
    as_object(doc, str(path), ("scene_id", *required))
    as_str(doc["scene_id"], f"{path}: scene_id")
    return doc


@contextmanager
def gc_paused():
    """Disable the cycle collector for the block (or, as a decorator, the
    call), then restore the state it had, also when the block raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def as_object(value, where: str, required=()) -> dict:
    """`value`; raises MapFormatError naming `where` unless it is an object
    holding every key in `required`."""
    if not isinstance(value, dict):
        raise MapFormatError(f"{where}: expected an object")
    for key in required:
        if key not in value:
            raise MapFormatError(f"{where}: missing field {key!r}")
    return value


def as_str(value, where: str) -> str:
    """`value`; raises MapFormatError naming `where` unless it is a string."""
    if not isinstance(value, str):
        raise MapFormatError(f"{where}: expected a string")
    return value


def as_list(value, where: str) -> list:
    """`value`; raises MapFormatError naming `where` unless it is a list."""
    if not isinstance(value, list):
        raise MapFormatError(f"{where}: expected a list")
    return value


def finite_array(value, where: str) -> np.ndarray:
    """`value` as a float64 array; raises MapFormatError naming `where` unless
    every entry is a finite number: an int or a float, not a boolean, a
    string or null, which numpy would read as numbers or NaN."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float
        raise MapFormatError(f"{where}: expected numbers") from None
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in np.asarray(value, dtype=object).flat):
        raise MapFormatError(f"{where}: expected numbers")
    if not np.isfinite(arr).all():
        raise MapFormatError(f"{where}: non-finite value (NaN or inf)")
    return arr


def finite_float(value, where: str) -> float:
    """`value` as a float; raises MapFormatError naming `where` unless it is a
    finite number (not true, false or a string)."""
    if isinstance(value, (bool, str)):
        raise MapFormatError(f"{where}: expected a number")
    try:
        val = float(value)
    except (TypeError, ValueError, OverflowError):
        raise MapFormatError(f"{where}: expected a number") from None
    if not math.isfinite(val):
        raise MapFormatError(f"{where}: non-finite value (NaN or inf)")
    return val


def whole_int(value, where: str) -> int:
    """`value` as an int; raises MapFormatError naming `where` unless it is a
    whole number (an integer, or a float such as 3.0; not NaN, inf, 1.5 or
    true)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MapFormatError(f"{where}: expected an integer")
    if isinstance(value, float) and not value.is_integer():
        raise MapFormatError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _points(value, where: str) -> np.ndarray:
    arr = finite_array(value, where)
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
        raise MapFormatError(f"{where}: expected a list of [x, y] pairs")
    return arr


def _embedding(value, where: str) -> np.ndarray:
    arr = finite_array(value, where)
    if arr.ndim != 1:
        raise MapFormatError(f"{where}: expected a list of numbers")
    if arr.size == 0:
        raise MapFormatError(f"{where}: empty embedding")
    if not arr.any():
        raise MapFormatError(f"{where}: all-zero embedding has no direction")
    return arr


_ENCODERS = {
    "id": lambda inst: inst.id,
    "class": lambda inst: inst.cls,
    "score": lambda inst: float(inst.score),
    "points": lambda inst: inst.points.tolist(),
    "embedding": lambda inst: inst.embedding.tolist(),
}


def to_record(inst: MapInstance, keys) -> dict:
    """The record of `inst` holding `keys`, in that order; an absent
    embedding is left out."""
    return {key: _ENCODERS[key](inst) for key in keys
            if key != "embedding" or inst.embedding is not None}


def from_record(obj, where: str, keys) -> MapInstance:
    """The instance a record of `keys` holds (the embedding may be absent);
    raises MapFormatError naming `where` and the field unless each field is
    well formed."""
    as_object(obj, where, [key for key in keys if key != "embedding"])
    cls = obj["class"]
    if cls not in CLASSES:
        raise MapFormatError(f"{where}: unknown class {reprlib.repr(cls)}")
    emb = obj.get("embedding") if "embedding" in keys else None
    return MapInstance(
        cls,
        _points(obj["points"], f"{where}.points"),
        score=finite_float(obj["score"], f"{where}.score") if "score" in keys else 1.0,
        id=whole_int(obj["id"], f"{where}.id") if "id" in keys else None,
        embedding=_embedding(emb, f"{where}.embedding") if emb is not None else None,
    )


def from_records(objs, where: str, keys, decoded=None) -> list[MapInstance]:
    """The instances of a list of records (see `from_record`), `where[i]`
    naming record i; IDs must be unique within the list, and each record
    holds at least `MIN_POINTS[keys]` points, a crossing outside a trace at
    least `MIN_RING_POINTS`.

    The list decodes at once (`_decode_list`), unless `decoded` holds the
    instances `decode_lists` made of it; where it is not plainly well
    formed, `from_record` runs on each record in turn to name the first
    bad field."""
    objs = as_list(objs, where)
    insts = _decode_list(objs, keys) if decoded is None else decoded
    if insts is None:
        insts = [from_record(obj, f"{where}[{i}]", keys) for i, obj in enumerate(objs)]
    if "id" in keys:
        seen: set[int] = set()
        for i, inst in enumerate(insts):
            if inst.id in seen:
                raise MapFormatError(f"{where}[{i}]: duplicate id {inst.id}")
            seen.add(inst.id)
    for i, inst in enumerate(insts):
        ring = not inst.is_polyline and keys != TRACE_KEYS
        least = MIN_RING_POINTS if ring else MIN_POINTS[keys]
        if len(inst.points) < least:
            pairs = "one [x, y] pair" if least == 1 else f"{least} [x, y] pairs"
            if ring:
                pairs += f" for a {inst.cls} ring"
            raise MapFormatError(f"{where}[{i}].points: expected at least {pairs}")
    return insts


def decode_lists(docs, field: str, keys) -> list[list[MapInstance]] | None:
    """The instances of the record list under `field` of each object in
    `docs` (every frame of a file, say), all lists decoded in one pass
    (`_decode_list`); None unless each object holds a list of plainly
    well-formed records. A loader passes each list's share to
    `from_records` as `decoded`, which checks the list as a list, so that
    a fault is still named in the order the loader reads the file."""
    lists = [doc.get(field) if isinstance(doc, dict) else None for doc in docs]
    if not all(type(objs) is list for objs in lists):
        return None
    insts = _decode_list(list(chain.from_iterable(lists)), keys)
    if insts is None:
        return None
    ends = list(accumulate(map(len, lists)))
    return [insts[lo:hi] for lo, hi in zip([0, *ends], ends)]


_CLASSES = frozenset(CLASSES)
_NUMBERS = frozenset((int, float))  # the types of JSON numbers; bool is neither


def _decode_list(objs: list, keys) -> list[MapInstance] | None:
    """The instances of the records of `keys` in `objs`, each record's
    points and embedding a slice of one float64 array that every number of
    the list converts to in one call; None unless every record is plainly
    well formed, which `from_record` accepts with the same bits."""
    n = len(objs)
    try:
        classes = [obj["class"] for obj in objs]
        if not _CLASSES.issuperset(classes):
            return None
        points = [obj["points"] for obj in objs]
        rows = list(chain.from_iterable(points))
        if rows and set(map(len, rows)) != {2}:
            return None
        values = list(chain.from_iterable(rows))
        if "score" in keys:
            values += [obj["score"] for obj in objs]
        given = []  # the records holding an embedding
        if "embedding" in keys:
            given = [i for i, obj in enumerate(objs) if obj.get("embedding") is not None]
            vectors = [objs[i]["embedding"] for i in given]
            if not all(map(any, vectors)):  # an empty or all-zero embedding
                return None
            values += chain.from_iterable(vectors)
        if not _NUMBERS.issuperset(map(type, values)):
            return None
        ids = [obj["id"] for obj in objs] if "id" in keys else [None] * n
        if "id" in keys and not {int}.issuperset(map(type, ids)):
            ids = [whole_int(v, "id") for v in ids]  # whole floats such as 3.0
    except (KeyError, TypeError, MapFormatError):
        return None
    try:
        arr = np.array(values, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None
    if not np.isfinite(arr).all():
        return None
    bounds = [0, *accumulate(map(len, points))]
    at = 2 * bounds[-1]
    coords = arr[:at].reshape(-1, 2)
    scores = arr[at:at + n].tolist() if "score" in keys else [1.0] * n
    embs = [None] * n
    if given:
        at += n if "score" in keys else 0
        ends = list(accumulate(map(len, vectors), initial=at))
        for i, lo, hi in zip(given, ends, ends[1:]):
            embs[i] = arr[lo:hi]
    return [MapInstance(cls, coords[lo:hi], score=score, id=id_, embedding=emb)
            for cls, lo, hi, score, id_, emb in zip(classes, bounds, bounds[1:], scores, ids,
                                                    embs)]
