r"""icmap's JSON files: one reader, one writer and one instance-record codec.

Maps, scenes, traces and eval reports are JSON objects. Each file holds
the bytes `json.dumps(doc) + "\n"` gives: one line, `, ` and `: `
separators, ASCII text with `\uXXXX` escapes, floats in Python's repr form
(the shortest decimal that round-trips exactly, e.g. `1.5e-05`), and the
`NaN` and `Infinity` literals where an eval report holds them. Each
instance in them is a record holding the fields a key tuple names, per list
kind, and at least as many points as `MIN_POINTS` gives that kind: 2 for
map, scene ground-truth and detection records, 1 for trace records.
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
    every entry is a finite number."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise MapFormatError(f"{where}: expected numbers") from None
    if not np.isfinite(arr).all():
        raise MapFormatError(f"{where}: non-finite value (NaN or inf)")
    return arr


def finite_float(value, where: str) -> float:
    """`value` as a float; raises MapFormatError naming `where` unless it is a
    finite number."""
    try:
        val = float(value)
    except (TypeError, ValueError):
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


def from_records(objs, where: str, keys) -> list[MapInstance]:
    """The instances of a list of records (see `from_record`), `where[i]`
    naming record i; IDs must be unique within the list, and each record
    holds at least `MIN_POINTS[keys]` points."""
    insts = [from_record(obj, f"{where}[{i}]", keys)
             for i, obj in enumerate(as_list(objs, where))]
    if "id" in keys:
        seen: set[int] = set()
        for i, inst in enumerate(insts):
            if inst.id in seen:
                raise MapFormatError(f"{where}[{i}]: duplicate id {inst.id}")
            seen.add(inst.id)
    least = MIN_POINTS[keys]
    for i, inst in enumerate(insts):
        if len(inst.points) < least:
            pairs = "one [x, y] pair" if least == 1 else f"{least} [x, y] pairs"
            raise MapFormatError(f"{where}[{i}].points: expected at least {pairs}")
    return insts
