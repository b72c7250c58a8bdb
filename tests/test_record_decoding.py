"""The record loop decodes with orjson and reads every line as json alone would.

Each of the five line-record readers is run as it is and with its record
loop replaced by :func:`oracles.json_records`, which decodes every line with
``json.loads``. Both must give the same records (value, type and float bits)
or the same reject message and line.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egosocial import clustering, evaluation, ingest, segmentation
from egosocial.ingest import IngestError, parse_observations
from oracles import json_records

DESCRIPTOR = [round(0.01 * i - 0.6, 2) for i in range(128)]


def _observation(i: int = 0) -> dict:
    return {
        "wearer_id": "u1",
        "day": "2024-03-04",
        "timestamp": f"2024-03-04T09:{i:02d}:00+00:00",
        "image_id": f"img-{i:03d}",
        "face_index": 0,
        "descriptor": DESCRIPTOR,
    }


OBSERVATIONS = "\n".join(json.dumps(_observation(i)) for i in range(3))

# reader: (three valid records, the function that reads a text of them)
READERS = {
    "observations": (
        [_observation(i) for i in range(3)],
        parse_observations,
    ),
    "coverage": (
        [
            {
                "wearer_id": f"u{i}",
                "day": "2024-03-04",
                "start": "2024-03-04T08:00:00+00:00",
                "end": "2024-03-04T20:00:00+00:00",
                "image_count": 3,
            }
            for i in range(3)
        ],
        ingest.parse_coverage,
    ),
    "truth": (
        [
            {"wearer_id": "u1", "image_id": f"img-{i:03d}", "face_index": 0, "label": "p1"}
            for i in range(3)
        ],
        evaluation.parse_ground_truth,
    ),
    "interactions": (
        [
            {
                "wearer_id": "u1",
                "person_cluster_id": i,
                "day": "2024-03-04",
                "start": "2024-03-04T09:00:00+00:00",
                "end": "2024-03-04T09:10:00+00:00",
                "duration_minutes": 10.0,
                "observation_count": 3,
            }
            for i in range(3)
        ],
        segmentation.parse_interactions,
    ),
    "clustering": (
        [
            {"wearer_id": "u1", "image_id": f"img-{i:03d}", "face_index": 0, "cluster_id": i - 1}
            for i in range(3)
        ],
        lambda text: clustering.parse_clustering(text, parse_observations(OBSERVATIONS)),
    ),
}


def _outcome(read, text: str):
    """What ``read(text)`` returns, or the type, message and line of the ValueError it
    raises (an IngestError names its line)."""
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


def _json_outcome(read, text: str):
    """``_outcome`` with every reader's record loop decoding by json alone."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (ingest, clustering, evaluation, segmentation):
            patch.setattr(module, "_records", json_records)
        return _outcome(read, text)


def _identical(a, b) -> bool:
    """Equal, of the same types all through, and floats equal to the bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_identical, a, b))
    if isinstance(a, dict):
        return _identical(list(a), list(b)) and all(_identical(a[k], b[k]) for k in a)
    if dataclasses.is_dataclass(a):
        return all(
            _identical(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return a == b and repr(a) == repr(b)


def _assert_read_as_json(reader: str, text: str):
    """The reader's outcome on ``text``, checked against its json-only outcome."""
    read = READERS[reader][1]
    got, expected = _outcome(read, text), _json_outcome(read, text)
    assert _identical(got, expected), (got, expected)
    return got


def _line(record: dict, **tokens: str) -> str:
    """``record`` as one JSON line, each key in ``tokens`` given that JSON text as its value."""
    items = {key: json.dumps(value) for key, value in record.items()}
    items.update(tokens)
    return "{" + ", ".join(f'"{key}": {token}' for key, token in items.items()) + "}"


def _descriptor(entries: dict[int, str]) -> str:
    """The JSON text of DESCRIPTOR with the entry at each index in ``entries`` replaced."""
    tokens = [repr(v) for v in DESCRIPTOR]
    for index, token in entries.items():
        tokens[index] = token
    return "[" + ", ".join(tokens) + "]"


HEADER = clustering.CLUSTERING_HEADER + '{"u1": {"method": "ahc"}}'


def _text(reader: str, line: str, at: int = 1) -> str:
    """The reader's records as a text, with line ``at`` replaced by ``line``; a
    clustering text starts with its header."""
    lines = [json.dumps(record) for record in READERS[reader][0]]
    lines[at] = line
    if reader == "clustering":
        lines.insert(0, HEADER)
    return "\n".join(lines) + "\n"


def _edited(reader: str, at: int = 1, **tokens: str) -> str:
    """The reader's records as a text, record ``at`` given the values in ``tokens``."""
    return _text(reader, _line(READERS[reader][0][at], **tokens), at)


TWO_64 = str(2**64)
BELOW_INT64 = str(-(2**63) - 1)


# --- pinned lines --------------------------------------------------------------

_PINNED = {
    # name: (reader, text, the start of its IngestError's message, a (type, start
    # of message) pair for another ValueError, None if the text is read, or ...
    # where json's verdict depends on the interpreter)
    "face_index 2**64": ("observations", _edited("observations", face_index=TWO_64), None),
    "face_index -2**63-1": (
        "observations",
        _edited("observations", face_index=BELOW_INT64),
        f"line 2: face_index must be a non-negative integer, got {BELOW_INT64}",
    ),
    "truth face_index 2**64": ("truth", _edited("truth", face_index=TWO_64), None),
    "truth face_index -2**63-1": (
        "truth",
        _edited("truth", face_index=BELOW_INT64),
        f"line 2: face_index must be a non-negative integer, got {BELOW_INT64}",
    ),
    "clustering face_index 2**64": (
        "clustering",
        _edited("clustering", face_index=TWO_64),
        "line 3: record names no observation in the dataset",
    ),
    "cluster_id 2**64": ("clustering", _edited("clustering", cluster_id=TWO_64), None),
    "cluster_id -2**63-1": (
        "clustering",
        _edited("clustering", cluster_id=BELOW_INT64),
        f"line 3: cluster_id must be an integer >= -1, got {BELOW_INT64}",
    ),
    "cluster_id 2.0": (
        "clustering",
        _edited("clustering", cluster_id="2.0"),
        "line 3: cluster_id must be an integer >= -1, got 2.0",
    ),
    "cluster_id after a bad face_index": (
        "clustering",
        _edited("clustering", face_index="-1", cluster_id="null"),
        "line 3: face_index must be a non-negative integer, got -1",
    ),
    "day 2**64": (
        "observations",
        _edited("observations", day=TWO_64),
        f"line 2: day must be a YYYY-MM-DD string, got {TWO_64}",
    ),
    "coverage day -2**63-1": (
        "coverage",
        _edited("coverage", day=BELOW_INT64),
        f"line 2: day must be a YYYY-MM-DD string, got {BELOW_INT64}",
    ),
    "interactions day 2**64": (
        "interactions",
        _edited("interactions", day=TWO_64),
        f"line 2: day must be a YYYY-MM-DD string, got {TWO_64}",
    ),
    "image_count 2**64": ("coverage", _edited("coverage", image_count=TWO_64), None),
    "person_cluster_id 2**64": (
        "interactions",
        _edited("interactions", person_cluster_id=TWO_64),
        None,
    ),
    "descriptor 2**64": (
        "observations",
        _edited("observations", descriptor=_descriptor({5: TWO_64})),
        None,
    ),
    "descriptor -2**63-1": (
        "observations",
        _edited("observations", descriptor=_descriptor({0: BELOW_INT64, 127: BELOW_INT64})),
        None,
    ),
    "descriptor 10**400": (
        "observations",
        _edited("observations", descriptor=_descriptor({3: "1" + "0" * 400})),
        f"line 2: non-finite or non-numeric descriptor entry 1{'0' * 400}",
    ),
    "descriptor NaN": (
        "observations",
        _edited("observations", descriptor=_descriptor({7: "NaN"})),
        "line 2: non-finite or non-numeric descriptor entry nan",
    ),
    "descriptor -Infinity": (
        "observations",
        _edited("observations", descriptor=_descriptor({0: "-Infinity"})),
        "line 2: non-finite or non-numeric descriptor entry -inf",
    ),
    "descriptor 1e400": (
        "observations",
        _edited("observations", descriptor=_descriptor({127: "1e400"})),
        "line 2: non-finite or non-numeric descriptor entry inf",
    ),
    "descriptor -0 and -0.0": (
        "observations",
        _edited("observations", descriptor=_descriptor({1: "-0", 2: "-0.0", 3: "-0e0"})),
        None,
    ),
    "face_index -0": ("observations", _edited("observations", face_index="-0"), None),
    "lone surrogate image_id": (
        "observations",
        _edited("observations", image_id='"\\ud800"'),
        None,
    ),
    "truth lone surrogate image_id": ("truth", _edited("truth", image_id='"\\udfff"'), None),
    "byte-order mark": (
        "coverage",
        _text("coverage", "\ufeff" + json.dumps(READERS["coverage"][0][1])),
        "line 2: malformed record: Unexpected UTF-8 BOM (decode using utf-8-sig)",
    ),
    "duplicate keys": (
        "truth",
        _text("truth", _line(READERS["truth"][0][1])[:-1] + ', "face_index": 7, "label": "p2"}'),
        None,
    ),
    "trailing garbage": (
        "interactions",
        _text("interactions", json.dumps(READERS["interactions"][0][1]) + " x"),
        "line 2: malformed record: Extra data",
    ),
    "repeated wearer_id drops a clustering record": (
        "clustering",
        _text(
            "clustering",
            '{"wearer_id": "u1", "image_id": "img-002", "face_index": 0, "cluster_id": 1, '
            '"wearer_id": "x"}',
            2,
        ),
        (ValueError, "clustering file lacks a record for "),
    ),
    "1,000-deep extra field": (
        "observations",
        _edited("observations", extra="[" * 1000 + "]" * 1000),
        ...,  # json's verdict, which depends on the interpreter's recursion limit
    ),
}


def _extra_field_cases():
    for reader in READERS:
        for token in (TWO_64, BELOW_INT64, "NaN", "1e400", '"\\ud800"', "-0"):
            yield f"{reader} extra {token}", (reader, _edited(reader, extra=token), None)


_PINNED.update(_extra_field_cases())


@pytest.mark.parametrize("case", list(_PINNED))
def test_pinned_line_is_read_as_json_reads_it(case):
    reader, text, reject = _PINNED[case]
    got = _assert_read_as_json(reader, text)
    if reject is None:
        # _outcome gives an exception's type first; no reader returns a type.
        assert not (isinstance(got, tuple) and got[:1] and isinstance(got[0], type)), got
    elif reject is not ...:
        kind, reject = reject if isinstance(reject, tuple) else (IngestError, reject)
        assert got[0] is kind and got[1].startswith(reject), got


def test_values_that_fast_decode_cannot_give_are_json_values():
    text = _edited("observations", face_index=TWO_64, image_id='"\\ud800"')
    observations = parse_observations(text).observations
    assert ("\ud800", 2**64) in {(o.image_id, o.face_index) for o in observations}
    text = _edited("observations", descriptor=_descriptor({5: TWO_64}))
    assert parse_observations(text).observations[1].descriptor[5] == float(2**64)


def test_valid_shallow_lines_never_reach_json(monkeypatch):
    def refuse(*args):
        raise AssertionError("json decoded a line orjson should have decoded")

    monkeypatch.setattr(ingest, "_decode", refuse)
    for reader, (records, read) in READERS.items():
        read(_text(reader, json.dumps(records[1])))


@pytest.mark.parametrize(
    "line",
    [
        '{"a": {"b": 1}}',
        '{"a": [[1]]}',
        '{"wearer_id": "a{b"}',
        "[" * 1000 + "]" * 1000,
    ],
)
def test_lines_that_may_nest_deeply_are_decoded_by_json(monkeypatch, line):
    seen = []
    decode = ingest._decode

    def recording(text, *rest):
        seen.append(text)
        return decode(text, *rest)

    monkeypatch.setattr(ingest, "_decode", recording)
    _outcome(ingest.parse_coverage, line)
    assert seen == [line]


# --- generated lines -----------------------------------------------------------

# JSON texts a corrupted or unusual record may hold in place of a value.
_ODD_TOKENS = (
    TWO_64,
    BELOW_INT64,
    str(2**64 - 1),
    str(-(2**63)),
    str(2**53 + 1),
    "1" + "0" * 400,
    "-0",
    "-0.0",
    "0",
    "-1",
    "2.5",
    "1E2",
    "5e-324",
    "1e-400",
    "1e400",
    "1.7976931348623159e308",
    "NaN",
    "Infinity",
    "-Infinity",
    "true",
    "null",
    '"x"',
    '"\\ud800"',
    '"\\ud83d\\ude00"',
    '"a\\u0000b"',
    '"2024-03-04"',
    '"img-001"',
    "[]",
    "{}",
    "[1, [2]]",
    '{"a": {"b": 1}}',
    "[" * 1000 + "]" * 1000,
    "01",
    "1.",
    "+1",
    '"a\tb"',
)

_NUMBER_TOKENS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(
        lambda sign, whole, fraction, exponent: f"{sign}{whole}.{fraction}e{exponent}",
        st.sampled_from(["", "-"]),
        st.integers(0, 10**20),
        st.integers(0, 10**25),
        st.integers(-340, 310),
    ),
)

_TOKENS = st.one_of(st.sampled_from(_ODD_TOKENS), _NUMBER_TOKENS)

# Whole-line edits: (prefix, suffix) around the line's text.
_WRAPS = (("", ""), ("\ufeff", ""), ("", " x"), ("", "}"), ("", ","), (" ", " "), ("[", "]"))


@st.composite
def _edited_texts(draw):
    reader = draw(st.sampled_from(list(READERS)))
    records = READERS[reader][0]
    lines = []
    for record in records:
        keys = [*record, "extra"]
        tokens = draw(st.dictionaries(st.sampled_from(keys), _TOKENS, max_size=2))
        if reader == "observations" and draw(st.booleans()):
            entries = draw(st.dictionaries(st.integers(0, 127), _TOKENS))
            tokens["descriptor"] = _descriptor(entries)
        line = _line(record, **tokens)
        if draw(st.booleans()):
            key = draw(st.sampled_from(keys))
            line = line[:-1] + f', "{key}": {draw(_TOKENS)}}}'
        prefix, suffix = draw(st.sampled_from(_WRAPS))
        lines.append(prefix + line + suffix)
    if reader == "clustering":
        lines.insert(0, HEADER)
    return reader, "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(case=_edited_texts())
def test_every_reader_reads_as_json_reads(case):
    reader, text = case
    _assert_read_as_json(reader, text)


@settings(max_examples=60, deadline=None)
@given(entries=st.lists(_NUMBER_TOKENS, min_size=128, max_size=128))
def test_descriptor_floats_are_json_floats_to_the_bit(entries):
    text = _edited("observations", descriptor="[" + ", ".join(entries) + "]")
    _assert_read_as_json("observations", text)


# --- a file opened as the CLI opens it ------------------------------------------


def test_file_parsed_in_parts_reads_as_json_reads(tmp_path):
    """A file opened as the CLI opens it, with odd lines throughout, parses as json
    alone reads its text."""
    base = _observation()
    n = 200
    odd = {
        3: {"face_index": TWO_64},
        10: {"descriptor": _descriptor({9: TWO_64, 10: "-0", 11: BELOW_INT64})},
        n // 2 + 5: {"image_id": '"\\ud800"'},
        n - 7: {"extra": "[[1]]"},
        n - 3: {"face_index": TWO_64, "descriptor": _descriptor({0: "1e-400"})},
    }
    lines = []
    for i in range(n):
        stamp = f"2024-03-04T{i // 3600:02d}:{i // 60 % 60:02d}:{i % 60:02d}+00:00"
        record = dict(base, image_id=f"img-{i:05d}", timestamp=stamp)
        lines.append(_line(record, **odd.get(i, {})))
    path = tmp_path / "obs.jsonl"
    faulty = _line(dict(base, image_id="img-last"), day=TWO_64)
    for tail, fault in (("", None), ("\n" + faulty, "day")):
        path.write_text("\n".join(lines) + tail + "\n", encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            got = _outcome(parse_observations, fh)
        expected = _json_outcome(parse_observations, text)
        assert _identical(got, expected)
        if fault:
            assert got[0] is IngestError and "day must be" in got[1]
        else:
            assert not isinstance(got, tuple), got
            assert len(got.observations) == n
