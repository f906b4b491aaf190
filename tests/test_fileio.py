"""The instance-record codec and the document reader and writer of icmap.fileio."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmap.errors import MapFormatError, UnsupportedVersion
from icmap.fileio import (
    DETECTION_KEYS,
    MAP_KEYS,
    TRACE_KEYS,
    from_record,
    from_records,
    read_doc,
    to_record,
    write_doc,
)
from icmap.instance import CLASSES, MapInstance
from icmap.metrics import EvalReport

# derandomized, so that a run of the suite is reproducible
round_trips = settings(max_examples=200, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
points = st.lists(st.tuples(finite, finite), min_size=0, max_size=8).map(
    lambda p: np.array(p, dtype=np.float64).reshape(-1, 2))


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
        assert_bit_identical(from_record(rec, "x", MapFormatError, keys), inst)
        # and through the JSON text the files hold
        text = json.loads(json.dumps(rec))
        assert_bit_identical(from_record(text, "x", MapFormatError, keys), inst)

    check()


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
        from_record(rec, "r", MapFormatError, keys)
    assert str(exc.value).startswith(message)


def test_embedding_may_be_absent():
    rec = {k: v for k, v in GOOD.items() if k not in ("id", "embedding")}
    assert from_record(rec, "r", MapFormatError, DETECTION_KEYS).embedding is None


def test_duplicate_id_named():
    recs = [dict(GOOD, id=0), dict(GOOD, id=1), dict(GOOD, id=0)]
    with pytest.raises(MapFormatError, match=r"^l\[2\]: duplicate id 0$"):
        from_records(recs, "l", MapFormatError, MAP_KEYS)
    assert len(from_records(recs, "l", MapFormatError, DETECTION_KEYS)) == 3  # no IDs kept


class TestReadDoc:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"format_version": "1", "a": [1.5, -0.0, 1e-300]}
        write_doc(doc, path)
        assert path.read_text().endswith("]}\n")
        assert read_doc(path, "test", "1", MapFormatError, ("a",)) == doc

    @pytest.mark.parametrize("raw,message", [
        (b'{"format_version": "1"', "not valid JSON"),
        (b'{"format_version": "1", "a": "\xe9"}', "not valid JSON: 'utf-8' codec"),
        (b'[{"format_version": "1"}]', "expected an object"),
        (b'{"a": 1}', "missing field 'format_version'"),
        (b'{"format_version": "1"}', "missing field 'a'"),
    ])
    def test_bad_doc_named(self, tmp_path, raw, message):
        path = tmp_path / "d.json"
        path.write_bytes(raw)
        with pytest.raises(MapFormatError) as exc:
            read_doc(path, "test", "1", MapFormatError, ("a",))
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_other_version(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"format_version": "2", "a": 1}')
        with pytest.raises(UnsupportedVersion, match="test format_version '2' not supported"):
            read_doc(path, "test", "1", MapFormatError, ("a",))


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
