"""The instance-record codec and the document reader and writer of icmap.fileio."""
import gc
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icmap.errors import MapFormatError, UnsupportedVersion
from icmap.fileio import (
    DETECTION_KEYS,
    MAP_KEYS,
    TRACE_KEYS,
    as_object,
    as_str,
    from_record,
    from_records,
    read_doc,
    to_record,
    write_doc,
)
from icmap.instance import CLASSES, MapInstance
from icmap.mapstore import load_map, save_map
from icmap.metrics import EvalReport
from icmap.pipeline import PipelineParams, read_trace, run_scene
from icmap.synth import make_scene, read_scene, write_scene

from conftest import zero_noise_config

# derandomized, so that a run of the suite is reproducible
round_trips = settings(max_examples=200, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
points = st.lists(st.tuples(finite, finite), min_size=0, max_size=8).map(
    lambda p: np.array(p, dtype=np.float64).reshape(-1, 2))


# floats over many decades: orjson's notation and repr's differ at both ends
spread_floats = st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-30, 30))
# printable ASCII less quotes and backslashes: text orjson writes as json does
plain_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                   exclude_characters='"\\'), max_size=6)
# also text json escapes (quotes, backslashes, control and non-ASCII
# characters, lone surrogates), and the marks the writer's rewrites look for
any_text = st.text(st.characters(exclude_categories=())
                   | st.sampled_from(list('"\\,:\x00\x1f\x7f\xe9e.0-n')), max_size=6)


def json_docs(text, scalars):
    """str-keyed dicts of `scalars`, `text` and lists, tuples and dicts of them."""
    values = st.recursive(
        scalars | text,
        lambda items: (st.lists(items, max_size=4) | st.lists(items, max_size=4).map(tuple)
                       | st.dictionaries(text, items, max_size=4)),
        max_leaves=20)
    return st.dictionaries(text, values, max_size=4)


# documents orjson encodes, and documents with None, NaN, +-inf, ints
# beyond 64 bits or text that json escapes, which it cannot
write_docs = (
    json_docs(plain_text, st.booleans() | st.integers(-2**63, 2**64 - 1)
              | st.floats(allow_nan=False, allow_infinity=False) | spread_floats)
    | json_docs(any_text, st.none() | st.booleans() | st.integers() | st.integers(-2**66, 2**66)
                | st.floats() | spread_floats))  # NaN, +-inf, +-0 and subnormals among them


@st.composite
def instance(draw, keys):
    """An instance carrying exactly the fields `keys` records."""
    return MapInstance(
        draw(st.sampled_from(CLASSES)),
        draw(points),
        score=draw(finite) if "score" in keys else 1.0,
        id=draw(st.integers(-2**53, 2**53)) if "id" in keys else None,
        embedding=(draw(st.none() | st.lists(finite, min_size=1, max_size=6).filter(any)
                        .map(np.array))
                   if "embedding" in keys else None),
    )


def assert_bit_identical(got: MapInstance, want: MapInstance):
    assert (got.cls, got.id) == (want.cls, want.id)
    assert np.float64(got.score).tobytes() == np.float64(want.score).tobytes()
    assert got.points.shape == want.points.shape
    assert got.points.tobytes() == want.points.tobytes()
    if want.embedding is None:
        assert got.embedding is None
    else:
        assert got.embedding.tobytes() == want.embedding.tobytes()


@pytest.mark.parametrize("keys", [MAP_KEYS, DETECTION_KEYS, TRACE_KEYS])
def test_round_trip_bit_for_bit(keys):
    @round_trips
    @given(instance(keys))
    def check(inst):
        rec = to_record(inst, keys)
        assert list(rec) == [k for k in keys if k != "embedding" or inst.embedding is not None]
        assert_bit_identical(from_record(rec, "x", keys), inst)
        # and through the JSON text the files hold
        text = json.loads(json.dumps(rec))
        assert_bit_identical(from_record(text, "x", keys), inst)

    check()


def nested(depth):
    """A list nested `depth` deep: `repr` of it overflows the stack."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


GOOD = {"id": 3, "class": "divider", "score": 0.5, "points": [[0, 0], [1, 1]],
        "embedding": [1.0, 0.0]}


@pytest.mark.parametrize("field,value,message", [
    (None, None, "r: expected an object"),
    ("class", None, "r: missing field 'class'"),
    ("class", "sidewalk", "r: unknown class 'sidewalk'"),
    ("points", [[0, 0], [1, float("nan")]], "r.points: non-finite"),
    ("points", [[0, 0, 0]], "r.points: expected a list of [x, y] pairs"),
    ("score", float("inf"), "r.score: non-finite"),
    ("score", [0.5], "r.score: expected a number"),
    ("embedding", [[1.0], [0.0]], "r.embedding: expected a list of numbers"),
    ("embedding", [1.0, float("nan")], "r.embedding: non-finite"),
    ("embedding", [], "r.embedding: empty embedding"),
    ("embedding", [0.0, -0.0], "r.embedding: all-zero embedding"),
    ("id", 1.5, "r.id: expected an integer"),
    ("id", True, "r.id: expected an integer"),
    ("class", nested(1100), "r: unknown class [[[[[[[...]]]]]]]"),
])
def test_bad_record_named(field, value, message):
    keys = ("id", "class", "score", "points", "embedding")
    if field is None:
        rec = [GOOD]
    else:
        rec = dict(GOOD)
        if value is None:
            del rec[field]
        else:
            rec[field] = value
    with pytest.raises(MapFormatError) as exc:
        from_record(rec, "r", keys)
    assert str(exc.value).startswith(message)


def test_embedding_may_be_absent():
    rec = {k: v for k, v in GOOD.items() if k not in ("id", "embedding")}
    assert from_record(rec, "r", DETECTION_KEYS).embedding is None


def test_duplicate_id_named():
    recs = [dict(GOOD, id=0), dict(GOOD, id=1), dict(GOOD, id=0)]
    with pytest.raises(MapFormatError, match=r"^l\[2\]: duplicate id 0$"):
        from_records(recs, "l", MAP_KEYS)
    assert len(from_records(recs, "l", DETECTION_KEYS)) == 3  # no IDs kept


@pytest.mark.parametrize("keys,least,pairs", [
    (MAP_KEYS, 2, "2 [x, y] pairs"),
    (DETECTION_KEYS, 2, "2 [x, y] pairs"),
    (TRACE_KEYS, 1, "one [x, y] pair"),
], ids=["map", "detection", "trace"])
def test_fewest_points_per_kind(keys, least, pairs):
    # a list of each kind holds records of `least` points, and no fewer
    recs = [dict(GOOD, id=0), dict(GOOD, id=1, points=[[0, 0]] * least)]
    assert len(from_records(recs, "l", keys)[1].points) == least
    recs[1]["points"] = [[0, 0]] * (least - 1)
    with pytest.raises(MapFormatError) as exc:
        from_records(recs, "l", keys)
    assert str(exc.value) == f"l[1].points: expected at least {pairs}"


@pytest.mark.parametrize("keys,least", [(MAP_KEYS, 3), (DETECTION_KEYS, 3), (TRACE_KEYS, 1)],
                         ids=["map", "detection", "trace"])
def test_fewest_crossing_points_per_kind(keys, least):
    # a crossing's ring needs 3 points wherever a map is built from it or
    # scored by it; a trace record keeps its one point
    recs = [dict(GOOD, id=0), dict(GOOD, id=1, points=[[0, 0]] * least)]
    recs[1]["class"] = "ped_crossing"
    assert len(from_records(recs, "l", keys)[1].points) == least
    recs[1]["points"] = [[0, 0]] * (least - 1)
    with pytest.raises(MapFormatError) as exc:
        from_records(recs, "l", keys)
    pairs = "one [x, y] pair" if least == 1 else f"{least} [x, y] pairs for a ped_crossing ring"
    assert str(exc.value) == f"l[1].points: expected at least {pairs}"


class TestReadDoc:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"format_version": "1", "scene_id": "s", "a": [1.5, -0.0, 1e-300]}
        write_doc(doc, path)
        assert path.read_text().endswith("]}\n")
        assert read_doc(path, "test", "1", ("a",)) == doc

    @pytest.mark.parametrize("raw,message", [
        (b'{"format_version": "1"', "not valid JSON"),
        (b'{"format_version": "1", "a": "\xe9"}', "not valid JSON: 'utf-8' codec"),
        (b'[{"format_version": "1"}]', "expected an object"),
        (b'{"a": 1}', "missing field 'format_version'"),
        (b'{"format_version": "1", "scene_id": "s"}', "missing field 'a'"),
        (b'{"format_version": "1", "a": 1}', "missing field 'scene_id'"),
        (b'{"format_version": "1", "scene_id": 5, "a": 1}', "scene_id: expected a string"),
    ])
    def test_bad_doc_named(self, tmp_path, raw, message):
        path = tmp_path / "d.json"
        path.write_bytes(raw)
        with pytest.raises(MapFormatError) as exc:
            read_doc(path, "test", "1", ("a",))
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_other_version(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"format_version": "2", "a": 1}')
        with pytest.raises(UnsupportedVersion, match="test format_version '2' not supported"):
            read_doc(path, "test", "1", ("a",))

    def test_deep_version_quoted_bounded(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"format_version": ' + "[" * 1100 + "]" * 1100 + ', "a": 1}')
        with pytest.raises(UnsupportedVersion) as exc:
            read_doc(path, "test", "1", ("a",))
        assert str(exc.value) == f"{path}: test format_version [[[[[[[...]]]]]]] not supported"


class TestWriteDoc:
    def test_one_line(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"format_version": "1", "frames": [{"t": 0, "points": [[0.5, -2.0]]}, {"t": 1}],
               "name": "a\nb"}
        write_doc(doc, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == doc

    def test_shortest_round_trip_float(self, tmp_path):
        path = tmp_path / "d.json"
        write_doc({"x": 0.1 + 0.2}, path)
        assert path.read_text() == '{"x": 0.30000000000000004}\n'

    def test_eval_report_nan(self, tmp_path):
        path = tmp_path / "r.json"
        report = EvalReport(ap={"divider": 0.5}, cd={"divider": float("nan")})
        write_doc(report.to_doc(), path)
        text = path.read_text()
        assert '"mAP": NaN' in text and '"cd": {"divider": NaN}' in text
        doc = json.loads(text)
        assert math.isnan(doc["mAP"]) and math.isnan(doc["cd"]["divider"])
        assert doc["ap"] == {"divider": 0.5}

    def test_json_dumps_bytes(self, tmp_path):
        # orjson's encoding rewritten, or json's where orjson cannot give
        # these bytes: either way, exactly what json.dumps writes
        path = tmp_path / "d.json"

        @round_trips
        @given(write_docs)
        @example({"x": 1e-05})
        @example({"x": 1.5e-05})
        @example({"x": 9.9e-06})
        @example({"x": 1e-07})
        @example({"x": 1e+16})
        @example({"x": 5e-324})
        @example({"x": -0.0})
        @example({"x": np.float64(0.5)})
        @example({1: 2})
        @example(EvalReport(ap={"divider": 0.5}, cd={"divider": float("nan")}).to_doc())
        @example({"x": "\x7f"})  # DEL: ASCII, but json escapes it
        @example({'a"b': "c\\d"})
        def check(doc):
            write_doc(doc, path)
            assert path.read_bytes() == (json.dumps(doc) + "\n").encode()

        check()


def read_doc_stdlib(path, kind, version, required=()):
    """`read_doc` as it was before orjson: the standard library's parse of
    the file opened in text mode. The reference of the parity tests."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise MapFormatError(f"{path}: not valid JSON: {exc}") from exc
    as_object(doc, str(path), ("format_version",))
    if doc["format_version"] != version:
        raise UnsupportedVersion(
            f"{path}: {kind} format_version {doc['format_version']!r} not supported")
    as_object(doc, str(path), ("scene_id", *required))
    as_str(doc["scene_id"], f"{path}: scene_id")
    return doc


def outcome(reader, path):
    """What `reader` makes of `path`: ("read", repr of the document), or
    the class and text of the error it raises."""
    try:
        return "read", repr(reader(path, "test", "1", ("a",)))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def same_bits(a, b) -> bool:
    """`a` and `b` hold the same values of the same types, floats bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_bits(a[k], b[k]) for k in a)
    return a == b


# floats the files hold, and the hard cases of decimal-to-binary conversion
edge_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
    9007199254740993.0, 2.0 ** -1074 * 3])
mantissa17 = st.builds(lambda m, e: float(f"{m}e{e}"),
                       st.integers(10 ** 16, 10 ** 17 - 1), st.integers(-340, 290))
json_floats = st.floats(allow_nan=False, allow_infinity=False) | edge_floats | mantissa17
json_values = st.recursive(
    json_floats | st.integers(-2 ** 63, 2 ** 64 - 1) | st.booleans() | st.none() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=40)


class TestReadDocParity:
    """`read_doc` parses with orjson and falls back on the standard library
    where orjson refuses a file; it must read what `json` read, with the
    same bits, and word its errors as `json` did."""

    def test_written_values_bit_for_bit(self, tmp_path):
        path = tmp_path / "d.json"

        @round_trips
        @given(json_values)
        def check(value):
            write_doc({"format_version": "1", "scene_id": "s", "a": value}, path)
            want = json.loads(path.read_text(encoding="utf-8"))
            assert same_bits(read_doc(path, "test", "1", ("a",)), want)

        check()

    @pytest.mark.parametrize("raw", [
        b'{"format_version": "1", "scene_id": "s", "a": [NaN, 1.0]}',
        b'{"format_version": "1", "scene_id": "s", "a": -Infinity}',
        b'{"format_version": "1", "scene_id": "s", "a": [[1e999, 2.0]]}',
        b'{"format_version": "1", "scene_id": "s", "a": "x\\ud800y"}',
        b'{"format_version": "1", "scene_id": "s", "a": [1.5, 2',
        b'{"format_version": "1", "scene_id": "s", "a": "\xe9"}',
        b'\xef\xbb\xbf{"format_version": "1", "scene_id": "s", "a": 1}',
        b'{"format_version": "1", "scene_id": "s",\r\n"a": [1,\r\n\r2,]}',
        b'{"format_version": "1", "scene_id": "s", "a": 1} 2',
        b'',
        b'{"format_version": NaN, "a": 1}',
    ], ids=["nan", "-inf", "1e999", "lone surrogate", "truncated", "bad utf-8", "bom",
            "cr line ends", "extra data", "empty", "nan version"])
    def test_read_or_rejected_as_by_json(self, tmp_path, raw):
        path = tmp_path / "d.json"
        path.write_bytes(raw)
        assert outcome(read_doc, path) == outcome(read_doc_stdlib, path)

    def test_deep_nesting_read(self, tmp_path):
        # orjson has no nesting limit where `json` hits the recursion limit
        # (a RecursionError, never caught): a deep value is read, and a
        # field check that meets it names the field
        path = tmp_path / "d.json"
        path.write_text('{"format_version": "1", "scene_id": "s", "a": '
                        + "[" * 1100 + "]" * 1100 + "}")
        with pytest.raises(RecursionError):
            read_doc_stdlib(path, "test", "1", ("a",))
        deep = value = read_doc(path, "test", "1", ("a",))["a"]
        for _ in range(1099):
            value, = value
        assert value == []
        rec = dict(GOOD, points=deep)
        with pytest.raises(MapFormatError, match=r"^r\.points: expected numbers$"):
            from_record(rec, "r", MAP_KEYS)


class TestGcPaused:
    """The loaders decode with the cycle collector paused and restore the
    state they found, also when they raise."""

    @pytest.fixture()
    def files(self, tmp_path):
        scene = make_scene(zero_noise_config(seed=2))
        paths = {name: tmp_path / f"{name}.json" for name in ("scene", "map", "trace")}
        write_scene(scene, paths["scene"])
        gmap, trace = run_scene(scene, PipelineParams())
        save_map(gmap, paths["map"])
        write_doc(trace, paths["trace"])
        return paths

    @pytest.fixture()
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    LOADERS = [("scene", read_scene), ("map", load_map), ("trace", read_trace)]

    @pytest.mark.parametrize("name,loader", LOADERS, ids=[n for n, _ in LOADERS])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_restored(self, files, collector, name, loader, enabled):
        path = files[name]
        (gc.enable if enabled else gc.disable)()
        loader(path)
        assert gc.isenabled() is enabled
        path.write_text(path.read_text()[:200])
        with pytest.raises(MapFormatError, match="not valid JSON"):
            loader(path)
        assert gc.isenabled() is enabled
