"""ResultCache segments: replay, index, and fuzzed on-disk entries.

Whatever sits in a ``<key>.json`` file, a lookup must either miss or
replay exactly the value an intact ``{"key", "value"}`` line stored for
that key: never raise, never return another key's value.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import ResultCache

KEYS = st.text(alphabet="0123456789abcdef", min_size=1, max_size=8)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)

VALUES = st.dictionaries(st.text(max_size=5), JSON, max_size=3)


def _is_entry(doc) -> bool:
    return (isinstance(doc, dict) and isinstance(doc.get("key"), str)
            and isinstance(doc.get("value"), dict))


# Valid JSON of the wrong shape, including the near misses.
WRONG_SHAPE = st.one_of(
    JSON,
    st.lists(JSON, max_size=3),
    KEYS.map(lambda key: {"key": key}),
    VALUES.map(lambda value: {"value": value}),
    st.tuples(st.integers() | st.none(), VALUES).map(
        lambda kv: {"key": kv[0], "value": kv[1]}),
    st.tuples(KEYS, JSON).map(lambda kv: {"key": kv[0], "value": kv[1]}),
).filter(lambda doc: not _is_entry(doc))


def _replays(data: bytes, name: str, probes):
    """Write ``data`` as ``<name>.json``; look each probe up afresh."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / f"{name}.json").write_bytes(data)
        cache = ResultCache(root)
        return {key: cache.get(key) for key in probes}, cache


def _stored(data: bytes, key: str) -> list:
    """Every value an intact line of ``data`` stores under ``key``."""
    values = []
    for line in data.split(b"\n"):
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if _is_entry(doc) and doc["key"] == key:
            values.append(doc["value"])
    return values


class TestSegments:
    def test_one_entry_segment_is_the_legacy_per_key_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("abc", {"metrics": {"x": 0.5}})
        legacy = json.dumps({"key": "abc", "value": {"metrics": {"x": 0.5}}},
                            sort_keys=True)
        assert (tmp_path / "abc.json").read_text() == legacy

    def test_each_hit_is_a_fresh_object(self, tmp_path):
        ResultCache(tmp_path).put("k", {"metrics": {"x": [1]}})
        cache = ResultCache(tmp_path)
        first = cache.get("k")
        first["metrics"]["x"].append(2)
        assert cache.get("k") == {"metrics": {"x": [1]}}

    def test_miss_loads_segments_written_since(self, tmp_path):
        reader = ResultCache(tmp_path)
        assert reader.get("a") is None
        ResultCache(tmp_path).put_many([("a", {"v": 1}), ("b", {"v": 2})])
        assert reader.get("b") == {"v": 2}
        assert reader.counters() == {"hits": 1, "misses": 1}

    def test_replaced_segment_is_read_again(self, tmp_path):
        (tmp_path / "a.json").write_text("garbage")
        reader = ResultCache(tmp_path)
        assert reader.get("a") is None
        ResultCache(tmp_path).put("a", {"v": 1})
        assert reader.get("a") == {"v": 1}

    def test_garbage_file_leaves_other_segments_readable(self, tmp_path):
        ResultCache(tmp_path).put_many([("a", {"v": 1}), ("b", {"v": 2})])
        (tmp_path / "zz.json").write_bytes(b"\xff\xfe{")
        cache = ResultCache(tmp_path)
        assert cache.get("b") == {"v": 2}
        assert cache.get("zz") is None


class TestFuzzedEntries:
    @settings(max_examples=150, deadline=None)
    @given(KEYS, st.binary(max_size=256))
    def test_arbitrary_bytes(self, key, data):
        got, _ = _replays(data, key, [key])
        assert got[key] is None or got[key] in _stored(data, key)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(KEYS, VALUES), min_size=1, max_size=6,
                    unique_by=lambda kv: kv[0]),
           st.data())
    def test_truncated_segment(self, entries, data):
        with tempfile.TemporaryDirectory() as tmp:
            ResultCache(Path(tmp)).put_many(entries)
            (segment,) = Path(tmp).iterdir()
            whole = segment.read_bytes()
        cut = data.draw(st.integers(0, len(whole)))
        got, _ = _replays(whole[:cut], entries[0][0],
                          [key for key, _ in entries])
        end = 0
        for (key, _), line in zip(entries, whole.split(b"\n")):
            end += len(line)
            expected = json.loads(line)["value"]
            if end <= cut:                 # the whole line survived
                assert got[key] == expected
            else:
                assert got[key] is None
            end += 1

    @settings(max_examples=150, deadline=None)
    @given(KEYS, st.lists(st.one_of(
        st.tuples(st.just("good"), KEYS, VALUES),
        st.tuples(st.just("bad"), WRONG_SHAPE),
        st.tuples(st.just("torn"), KEYS, VALUES),
    ), max_size=6))
    def test_mixed_good_and_bad_lines(self, name, lines):
        text, good = [], {}
        for kind, *fields in lines:
            if kind == "bad":
                text.append(json.dumps(fields[0]))
                continue
            key, value = fields
            line = json.dumps({"key": key, "value": value})
            if kind == "torn":
                text.append(line[:-1])
            else:
                text.append(line)
                good[key] = value
        data = "\n".join(text).encode()
        probes = {name, *good, *(f[0] for k, *f in lines if k == "torn")}
        got, cache = _replays(data, name, probes)
        for key in probes:
            if key in good:
                assert got[key] == good[key]    # the last intact line wins
            else:
                assert got[key] is None
        assert cache.counters() == {"hits": len(good),
                                    "misses": len(probes) - len(good)}
