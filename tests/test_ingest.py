from __future__ import annotations

import io
import json
import math
import os
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    DAY,
    assert_read_as_the_oracle,
    at,
    content_line_count,
    dataset_from_matrix,
    edit_lines,
    line_edits,
    two_field_edits,
    observations_from_matrix,
)
from egosocial import ingest
from egosocial.ingest import (
    Dataset,
    DayCoverage,
    FaceObservation,
    IngestError,
    UnknownWearerError,
    load_dataset,
    parse_coverage,
    parse_observations,
    serialize_coverage,
    serialize_observations,
    slice_dataset,
)
from oracles import (
    naive_coverage_fault,
    naive_descriptor,
    json_jsonl,
    naive_document_fault,
    naive_observation_fault,
    naive_slice,
    naive_wearers,
)


def obs_line(
    wearer="u1",
    day="2024-03-04",
    timestamp="2024-03-04T09:00:00+00:00",
    image_id="img-00000",
    face_index=0,
    descriptor=None,
):
    if descriptor is None:
        descriptor = [0.0] * 128
    return json.dumps(
        {
            "wearer_id": wearer,
            "day": day,
            "timestamp": timestamp,
            "image_id": image_id,
            "face_index": face_index,
            "descriptor": descriptor,
        }
    )


def test_parse_well_formed_lines():
    lines = "\n".join(
        obs_line(image_id=f"img-{i}", timestamp=f"2024-03-04T09:0{i}:00+00:00")
        for i in range(3)
    )
    dataset = parse_observations(lines)
    assert len(dataset) == 3
    assert dataset.observations[0].descriptor.shape == (128,)


def test_wrong_descriptor_length_names_line_and_expectation():
    text = obs_line() + "\n" + obs_line(image_id="img-1", descriptor=[0.0] * 127)
    with pytest.raises(IngestError, match=r"line 2.*128"):
        parse_observations(text)


def test_duplicate_image_face_key_rejected():
    text = (
        obs_line()
        + "\n"
        + obs_line(timestamp="2024-03-04T09:01:00+00:00")  # same image_id/face_index
    )
    with pytest.raises(IngestError, match="duplicate"):
        parse_observations(text)


def test_same_image_different_face_index_allowed():
    text = obs_line(face_index=0) + "\n" + obs_line(face_index=1)
    assert len(parse_observations(text)) == 2


def test_non_finite_descriptor_rejected():
    desc = [0.0] * 128
    desc[5] = float("nan")
    with pytest.raises(IngestError, match="non-finite"):
        parse_observations(obs_line(descriptor=desc))


# Entries that a JSON encoder can write into a descriptor: strings, bools,
# null, NaN/Infinity, nested values, integers past 2**53 and 2**64 or past the
# float64 range, negative zero and subnormals.
_CORRUPTIONS = (
    "0.5",
    True,
    False,
    None,
    float("nan"),
    float("inf"),
    float("-inf"),
    [0.5],
    {"v": 0.5},
    2**53 + 1,
    2**64 + 1,
    10**400,
    -(10**400),
    -0.0,
    5e-324,
    1e-310,
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    edits=st.lists(
        st.tuples(
            st.integers(0, 127),
            st.one_of(st.sampled_from(_CORRUPTIONS), st.floats(), st.integers(-(2**70), 2**70)),
        ),
        min_size=1,
        max_size=3,
    ),
    n_before=st.integers(0, 2),
)
def test_descriptor_check_matches_entry_by_entry_oracle(seed, edits, n_before):
    descriptor = np.random.default_rng(seed).standard_normal(128).tolist()
    for position, value in edits:
        descriptor[position] = value
    lines = [obs_line(image_id=f"ok-{i}") for i in range(n_before)]
    lines.append(obs_line(image_id="edited", descriptor=descriptor))
    expected = naive_descriptor(json.loads(lines[-1])["descriptor"])
    if isinstance(expected, str):
        with pytest.raises(IngestError) as info:
            parse_observations("\n".join(lines))
        assert str(info.value) == f"line {n_before + 1}: {expected}"
        assert info.value.line_no == n_before + 1
    else:
        dataset = parse_observations("\n".join(lines))
        (got,) = [o.descriptor for o in dataset.observations if o.image_id == "edited"]
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_timestamp_day_mismatch_rejected():
    with pytest.raises(IngestError, match="does not match day"):
        parse_observations(obs_line(day="2024-03-05"))


def test_timestamp_without_offset_rejected():
    with pytest.raises(IngestError, match="offset"):
        parse_observations(obs_line(timestamp="2024-03-04T09:00:00"))


def test_malformed_json_names_line():
    text = obs_line() + "\n{not json"
    with pytest.raises(IngestError, match="line 2"):
        parse_observations(text)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"day": "2024-03-32"}, "unparseable day '2024-03-32'"),
        ({"day": 4}, "day must be a YYYY-MM-DD string, got 4"),
        ({"timestamp": "09:00"}, "unparseable timestamp '09:00'"),
        ({"timestamp": None}, "timestamp must be an RFC 3339 string, got None"),
    ],
)
def test_bad_day_or_timestamp_names_its_line_once(fields, message):
    with pytest.raises(IngestError) as info:
        parse_observations(obs_line() + "\n" + obs_line(image_id="b", **fields))
    assert (str(info.value), info.value.line_no) == (f"line 2: {message}", 2)


def test_deeply_nested_line_rejected_with_its_line():
    with pytest.raises(IngestError) as info:
        parse_observations(obs_line() + "\n" + "[" * 100_000)
    assert (str(info.value), info.value.line_no) == ("line 2: malformed record: nested too deeply", 2)


@settings(max_examples=60, deadline=None)
@given(
    runs=st.lists(
        st.tuples(
            st.integers(0, 3000),
            st.integers(0, 300),
            st.sampled_from([("[", "]"), ('{"k": [', "]}")]),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_deep_document_named_as_the_oracle_names_it(runs):
    # Lines that open arrays, or objects whose key is a string, and close fewer
    # of them: the decoder's depth limit may be passed on any line, or never.
    text = ",\n".join(
        opener * up + closer * min(down, up) for up, down, (opener, closer) in runs
    )
    expected = naive_document_fault(text, "doc")
    try:
        ingest._decode(text, "doc")
    except IngestError as exc:
        assert expected is None or str(exc) == expected
        assert expected is not None or "nested too deeply" not in str(exc)
    else:
        assert expected is None


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        # The decoder gives up inside line 2's objects and never reaches line
        # 3's deeper run of arrays.
        ("[\n" + '{"a": ' * 50_000 + "\n" + "[" * 100_000, 2, "nested too deeply"),
        ("[0,\n 1,\n " + "5" * 5000 + ",\n " + "6" * 6000 + "\n]", 3, "Exceeds the limit"),
    ],
    ids=["deep-objects-before-deeper-arrays", "two-long-integers"],
)
def test_document_fault_named_by_the_line_the_decoder_stops_on(text, line_no, message):
    with pytest.raises(IngestError) as info:
        ingest._decode(text, "doc")
    assert info.value.line_no == line_no
    assert info.value.reason.startswith(f"malformed doc: {message}")
    assert str(info.value) == naive_document_fault(text, "doc")


def test_zulu_suffix_accepted():
    dataset = parse_observations(obs_line(timestamp="2024-03-04T09:00:00Z"))
    assert dataset.observations[0].timestamp.isoformat() == "2024-03-04T09:00:00+00:00"


def test_coverage_synthesized_from_observation_span():
    lines = "\n".join(
        obs_line(image_id=f"img-{i}", timestamp=f"2024-03-04T09:{i:02d}:00+00:00")
        for i in range(5)
    )
    dataset = parse_observations(lines)
    cov = dataset.coverage[("u1", DAY)]
    assert cov.synthesized
    assert cov.start == at(9, 0)
    assert cov.end == at(9, 4)
    assert cov.image_count == 5


def test_every_observed_day_has_coverage(rng):
    X = rng.standard_normal((6, 128))
    obs = observations_from_matrix(X[:3], day=DAY) + observations_from_matrix(
        X[3:], day=DAY + timedelta(days=1)
    )
    dataset = parse_observations(
        serialize_observations(Dataset(tuple(obs), {}))
    )
    for o in dataset.observations:
        assert (o.wearer_id, o.day) in dataset.coverage


def test_explicit_coverage_replaces_synthesized():
    obs_text = obs_line(timestamp="2024-03-04T10:00:00+00:00")
    cov_text = json.dumps(
        {
            "wearer_id": "u1",
            "day": "2024-03-04",
            "start": "2024-03-04T08:00:00+00:00",
            "end": "2024-03-04T20:00:00+00:00",
            "image_count": 900,
        }
    )
    dataset = load_dataset(obs_text, cov_text)
    cov = dataset.coverage[("u1", DAY)]
    assert not cov.synthesized
    assert cov.duration_minutes == 720.0


def test_observation_outside_explicit_coverage_rejected():
    obs_text = obs_line(timestamp="2024-03-04T21:30:00+00:00")
    cov_text = json.dumps(
        {
            "wearer_id": "u1",
            "day": "2024-03-04",
            "start": "2024-03-04T08:00:00+00:00",
            "end": "2024-03-04T20:00:00+00:00",
        }
    )
    with pytest.raises(IngestError, match="outside coverage"):
        load_dataset(obs_text, cov_text)


def test_coverage_only_day_is_kept():
    cov_text = json.dumps(
        {
            "wearer_id": "u1",
            "day": "2024-03-05",
            "start": "2024-03-05T08:00:00+00:00",
            "end": "2024-03-05T20:00:00+00:00",
        }
    )
    dataset = load_dataset(obs_line(), cov_text)
    assert ("u1", date(2024, 3, 5)) in dataset.coverage


def test_round_trip_identity(rng):
    X = rng.standard_normal((8, 128))
    obs = observations_from_matrix(X[:5], wearer="u1") + observations_from_matrix(
        X[5:], wearer="u2", start_hour=14
    )
    original = parse_observations(serialize_observations(Dataset(tuple(obs), {})))
    round_tripped = load_dataset(
        serialize_observations(original), serialize_coverage(original)
    )
    assert round_tripped == original


def test_round_trip_with_explicit_coverage(rng):
    X = rng.standard_normal((4, 128))
    dataset = dataset_from_matrix(X)
    text_obs = serialize_observations(dataset)
    text_cov = serialize_coverage(dataset)
    assert json.loads(text_cov.splitlines()[0])["image_count"] == 4
    again = load_dataset(text_obs, text_cov)
    assert again == dataset


# --- the line-record writer -------------------------------------------------------


def _boundary_floats() -> list[float]:
    """Where the writer turns from orjson's text to json's token (0, 1e-4, 1e16),
    the ends of the finite double range and 2**53, each with its neighbours and
    their negations."""
    values = []
    with np.errstate(over="ignore"):  # the largest double's neighbour above is inf
        for edge in (0.0, 1e-4, 1e16, 2.0**53, 5e-324, float(np.finfo(np.float64).max)):
            for x in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)):
                values += [float(x), -float(x)]
    return [v for v in values if math.isfinite(v)]


_DESCRIPTOR_ENTRIES = st.one_of(
    st.sampled_from(_boundary_floats()), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _descriptor_rows(draw) -> np.ndarray:
    """One to four descriptors: per row, normal draws at a scale from 1e-8 to 1e18,
    uniform bit patterns (every finite double equally likely by bits, so mostly far
    outside 1e-4..1e16), or a mix of both; then up to 24 drawn entries, among them
    the boundary floats, put in at drawn places."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    normal = rng.standard_normal((n, 128)) * 10.0 ** rng.integers(-8, 19, (n, 1))
    bits = rng.integers(0, 2**64, (n, 128), dtype=np.uint64).view(np.float64)
    bits[~np.isfinite(bits)] = 1.0
    share = rng.choice([0.0, 0.1, 1.0], size=(n, 1))
    X = np.where(rng.random((n, 128)) < share, bits, normal)
    places = st.tuples(st.integers(0, X.size - 1), _DESCRIPTOR_ENTRIES)
    for at, value in draw(st.lists(places, max_size=24)):
        X.flat[at] = value
    return X


def _drawn_dataset(X: np.ndarray, strided: bool) -> Dataset:
    """A dataset of the descriptors ``X``; each a non-contiguous view if ``strided``."""
    if strided:
        X = np.repeat(X, 2, axis=1)[:, ::2]
    dataset = dataset_from_matrix(X)
    assert all(o.descriptor.flags.c_contiguous != strided for o in dataset.observations)
    return dataset


@settings(max_examples=200, deadline=None)
@given(X=_descriptor_rows(), strided=st.booleans())
def test_observation_writer_writes_the_bytes_of_json(X, strided):
    dataset = _drawn_dataset(X, strided)
    records = [
        {
            "wearer_id": o.wearer_id,
            "day": o.day.isoformat(),
            "timestamp": o.timestamp.isoformat(),
            "image_id": o.image_id,
            "face_index": o.face_index,
            "descriptor": o.descriptor,
        }
        for o in dataset.observations
    ]
    assert serialize_observations(dataset) == json_jsonl(records)


@settings(max_examples=200, deadline=None)
@given(X=_descriptor_rows(), strided=st.booleans())
def test_written_descriptors_parse_back_bit_identical(X, strided):
    dataset = _drawn_dataset(X, strided)
    again = parse_observations(serialize_observations(dataset))
    assert len(again) == len(dataset)
    for read, written in zip(again.observations, dataset.observations):
        assert np.array_equal(read.descriptor.view(np.uint64), written.descriptor.view(np.uint64))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(st.dictionaries(st.text(), _JSON_VALUES, max_size=5), max_size=3))
def test_line_writer_writes_every_record_as_json_does(records):
    """Any JSON values, non-finite floats included; array values are the observation
    writer's alone, tested above."""
    assert ingest._jsonl(records) == json_jsonl(records)


def test_observation_writer_peak_memory_stays_within_its_text(rng):
    """One line at a time: the writer holds its lines and the text they join into,
    never a text or an array of the whole dataset beside them."""
    dataset = dataset_from_matrix(rng.standard_normal((1400, 128)))
    serialize_observations(dataset)  # imports and caches out of the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = serialize_observations(dataset)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * len(text)


def test_observations_sorted_by_wearer_then_time(rng):
    X = rng.standard_normal((4, 128))
    lines = [
        obs_line(wearer="u2", image_id="b", timestamp="2024-03-04T09:00:00+00:00",
                 descriptor=list(X[0])),
        obs_line(wearer="u1", image_id="a", timestamp="2024-03-04T10:00:00+00:00",
                 descriptor=list(X[1])),
        obs_line(wearer="u1", image_id="c", timestamp="2024-03-04T09:30:00+00:00",
                 descriptor=list(X[2])),
    ]
    dataset = parse_observations("\n".join(lines))
    keys = [(o.wearer_id, o.timestamp) for o in dataset.observations]
    assert keys == sorted(keys)


def test_slice_by_wearer(rng):
    X = rng.standard_normal((6, 128))
    obs = observations_from_matrix(X[:3], wearer="u1") + observations_from_matrix(
        X[3:], wearer="u2"
    )
    dataset = parse_observations(serialize_observations(Dataset(tuple(obs), {})))
    part = slice_dataset(dataset, "u1")
    assert {o.wearer_id for o in part.observations} == {"u1"}
    assert len(part) == 3
    # exact filter semantics
    expected = tuple(o for o in dataset.observations if o.wearer_id == "u1")
    assert part.observations == expected


def test_slice_unknown_wearer_rejected(rng):
    dataset = dataset_from_matrix(rng.standard_normal((2, 128)))
    with pytest.raises(UnknownWearerError):
        slice_dataset(dataset, "u3")


def test_duplicate_coverage_entry_rejected():
    entry = json.dumps(
        {
            "wearer_id": "u1",
            "day": "2024-03-04",
            "start": "2024-03-04T08:00:00+00:00",
            "end": "2024-03-04T20:00:00+00:00",
        }
    )
    with pytest.raises(IngestError, match="duplicate coverage"):
        parse_coverage(entry + "\n" + entry)


@pytest.mark.parametrize("count", [-1, 2.0, True, "3"])
def test_non_integer_image_count_rejected(count):
    entry = {
        "wearer_id": "u1",
        "day": "2024-03-04",
        "start": "2024-03-04T08:00:00+00:00",
        "end": "2024-03-04T20:00:00+00:00",
    }
    with pytest.raises(IngestError) as info:
        parse_coverage(json.dumps(entry) + "\n" + json.dumps(dict(entry, image_count=count)))
    assert str(info.value) == f"line 2: image_count must be a non-negative integer, got {count!r}"


_COVERAGE_LINES = [
    json.dumps(
        {
            "wearer_id": wearer,
            "day": day,
            "start": f"{day}T08:00:00+00:00",
            "end": f"{day}T20:00:00+00:00",
            "image_count": 10,
        }
    )
    for wearer in ("u1", "u2")
    for day in ("2024-03-04", "2024-03-05")
]


@settings(max_examples=300, deadline=None)
@given(edits=line_edits(("wearer_id", "day", "start", "end", "image_count")))
def test_coverage_reader_rejects_as_the_line_by_line_oracle(edits):
    lines = edit_lines(_COVERAGE_LINES, edits)
    expected = naive_coverage_fault(lines)
    if expected is None:
        assert len(parse_coverage("\n".join(lines))) == content_line_count(lines)
        return
    with pytest.raises(IngestError) as info:
        parse_coverage("\n".join(lines))
    line_no, message = expected
    assert (str(info.value), info.value.line_no) == (f"line {line_no}: {message}", line_no)


_OBSERVATION_FIELDS = ("wearer_id", "day", "timestamp", "image_id", "face_index", "descriptor")


_OBSERVATION_LINES = [
    obs_line(
        wearer=wearer,
        timestamp=f"2024-03-04T09:0{i}:00+00:00",
        image_id=f"img-{i}",
        descriptor=[float(i)] * 128,
    )
    for wearer in ("u1", "u2")
    for i in range(2)
]


@settings(max_examples=300, deadline=None)
@given(edits=line_edits(_OBSERVATION_FIELDS))
def test_observation_reader_rejects_as_the_line_by_line_oracle(edits):
    lines = edit_lines(_OBSERVATION_LINES, edits)
    expected = naive_observation_fault(lines)
    if expected is None:
        assert len(parse_observations("\n".join(lines))) == content_line_count(lines)
        return
    with pytest.raises(IngestError) as info:
        parse_observations("\n".join(lines))
    line_no, message = expected
    assert (str(info.value), info.value.line_no) == (f"line {line_no}: {message}", line_no)


def test_observation_reader_rejects_two_faults_on_a_line_as_the_oracle():
    for lines in two_field_edits(_OBSERVATION_LINES, _OBSERVATION_FIELDS):
        assert_read_as_the_oracle(parse_observations, naive_observation_fault, lines)


def test_coverage_reader_rejects_two_faults_on_a_line_as_the_oracle():
    fields = ("wearer_id", "day", "start", "end", "image_count")
    for lines in two_field_edits(_COVERAGE_LINES, fields):
        assert_read_as_the_oracle(parse_coverage, naive_coverage_fault, lines)


_IDENTIFIER_VALUES = pytest.mark.parametrize(
    "value", [None, 7, True, [1, 2]], ids=["null", "int", "bool", "list"]
)


@_IDENTIFIER_VALUES
def test_coverage_wearer_id_must_be_a_string(value):
    lines = edit_lines(_COVERAGE_LINES, [(1, ("set", "wearer_id", value))])
    with pytest.raises(IngestError) as info:
        parse_coverage("\n".join(lines))
    assert (str(info.value), info.value.line_no) == ("line 2: wearer_id must be a string", 2)


@_IDENTIFIER_VALUES
@pytest.mark.parametrize("field", ["wearer_id", "image_id"])
def test_observation_identifiers_must_be_strings(field, value):
    lines = edit_lines(_OBSERVATION_LINES, [(1, ("set", field, value))])
    with pytest.raises(IngestError) as info:
        parse_observations("\n".join(lines))
    message = "line 2: wearer_id and image_id must be strings"
    assert (str(info.value), info.value.line_no) == (message, 2)


def _observation(wearer: str, day: date, hour: int, image_id: str) -> FaceObservation:
    return FaceObservation(
        wearer_id=wearer,
        day=day,
        timestamp=at(hour, day=day),
        image_id=image_id,
        face_index=0,
        descriptor=np.full(128, float(hour)),
    )


@pytest.fixture
def unsorted_dataset():
    """Observations out of wearer and time order, and a wearer ("u0") with coverage only."""
    d1, d2, d3 = DAY, DAY + timedelta(days=1), DAY + timedelta(days=2)
    observations = (
        _observation("u2", d2, 10, "a"),
        _observation("u1", d1, 12, "b"),
        _observation("u2", d1, 9, "c"),
        _observation("u3", d3, 8, "d"),
        _observation("u1", d1, 8, "e"),
        _observation("u2", d3, 11, "f"),
    )
    coverage = {
        (w, d): DayCoverage(wearer_id=w, day=d, start=at(7, day=d), end=at(22, day=d))
        for w, d in (("u2", d3), ("u1", d1), ("u0", d2), ("u2", d1), ("u3", d3), ("u2", d2))
    }
    return Dataset(observations, coverage)


def test_slice_and_wearers_match_full_scan_oracle(unsorted_dataset):
    dataset = unsorted_dataset
    assert dataset.wearers() == naive_wearers(dataset) == ("u0", "u1", "u2", "u3")
    for wearer in ("u0", "u1", "u2", "u3", "u9"):
        expected = naive_slice(dataset, wearer)
        if expected is None:
            with pytest.raises(UnknownWearerError):
                slice_dataset(dataset, wearer)
            continue
        part = slice_dataset(dataset, wearer)
        assert part.observations == expected[0]
        assert list(part.coverage.items()) == list(expected[1].items())


def test_wearer_index_is_built_once_per_dataset(unsorted_dataset, monkeypatch):
    calls = []
    build = ingest._index_wearers

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(ingest, "_index_wearers", counted)
    for _ in range(3):
        for wearer in unsorted_dataset.wearers():
            slice_dataset(unsorted_dataset, wearer)
    assert len(calls) == 1


def test_each_wearer_is_sliced_once(unsorted_dataset):
    for wearer in unsorted_dataset.wearers():
        assert slice_dataset(unsorted_dataset, wearer) is slice_dataset(unsorted_dataset, wearer)


# --- line streams ---------------------------------------------------------------

# Every separator str.splitlines() ends a line at, "\r\n" as one.
_SEPARATORS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _text_file(text: str | bytes) -> io.TextIOWrapper:
    """An open text file of ``text``, decoded as the CLI opens its inputs."""
    raw = text.encode("utf-8") if isinstance(text, str) else text
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")


def _splitlines_oracle(text: str) -> list[tuple[int, str]]:
    numbered = enumerate((line.strip() for line in text.splitlines()), start=1)
    return [(no, line) for no, line in numbered if line and not line.startswith("#")]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from(("", " ", "# note", " #x", "{}", '{"a": 1}', "\t\u00e9")),
                st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
            ),
            st.sampled_from(_SEPARATORS),
        ),
        max_size=12,
    ),
    st.booleans(),
)
def test_iter_lines_numbers_a_file_as_splitlines_numbers_its_text(pieces, open_end):
    text = "".join(line + sep for line, sep in pieces)
    if open_end and pieces:
        text = text[: -len(pieces[-1][1])]  # no separator after the last line
    expected = _splitlines_oracle(text)
    assert list(ingest._iter_lines(text)) == expected
    assert list(ingest._iter_lines(_text_file(text))) == expected


@pytest.mark.parametrize("sep", ["\r\n", "\r", "\x85"])
@pytest.mark.parametrize("offset", [-2, -1, 0, 1])
def test_iter_lines_separator_across_a_read_block(sep, offset):
    # The text file decodes 8,192 bytes at a time; a "\r\n" split across two
    # blocks must still end one line.
    head = "x" * (8192 + offset - 1)
    text = f"{head}{sep}second{sep}{sep}# c{sep}last"
    expected = _splitlines_oracle(text)
    assert [no for no, _ in expected] == [1, 2, 5]
    assert list(ingest._iter_lines(_text_file(text))) == expected


def test_observation_file_read_line_by_line_matches_its_text(rng):
    text = serialize_observations(dataset_from_matrix(rng.standard_normal((5, 128))))
    mixed = text.replace("\n", "\u2028", 1).replace("\n", "\r\n", 2)
    for source in (text, mixed):
        assert parse_observations(_text_file(source)) == parse_observations(text)


@pytest.mark.parametrize(
    "raw, line_no",
    [
        (b"\xff" + obs_line().encode(), 1),
        (obs_line().encode() + b"\n\n" + obs_line(image_id="~").encode().replace(b"~", b"\xe9"), 3),
        (b"\n# comment \xc3(\n" + obs_line().encode(), 2),
        (obs_line().encode() + b"\r" + obs_line(image_id="b").encode()[:-1] + b"\x80}", 2),
    ],
    ids=["first-byte", "latin-1-name", "in-a-comment", "after-a-cr"],
)
def test_undecodable_byte_names_its_line_and_column(raw, line_no):
    line = raw.splitlines()[line_no - 1]  # ASCII up to its one bad byte
    column = next(i for i, b in enumerate(line) if b >= 0x80) + 1
    expected = f"line {line_no}: undecodable byte 0x{line[column - 1]:02x} at column {column}"
    for source in (raw.decode("utf-8", "surrogateescape"), _text_file(raw)):
        with pytest.raises(IngestError) as info:
            parse_observations(source)
        assert str(info.value) == expected
        assert info.value.line_no == line_no


def test_parsed_descriptor_is_tested_for_finiteness_once(monkeypatch):
    calls = []
    isfinite = np.isfinite

    def counted(*args, **kwargs):
        calls.append(args)
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    dataset = parse_observations(obs_line(descriptor=[0.5] * 128))
    assert len(calls) == 1
    assert not dataset.observations[0].descriptor.flags.writeable


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_constructed_observation_still_checks_finiteness(bad):
    descriptor = np.zeros(128)
    descriptor[7] = bad
    with pytest.raises(ValueError, match="^descriptor contains non-finite values$"):
        FaceObservation(
            wearer_id="u1",
            day=DAY,
            timestamp=at(9),
            image_id="img",
            face_index=0,
            descriptor=descriptor,
        )


# --- a file opened as the CLI opens it ------------------------------------------


def _numbered_obs(i: int, **fields) -> bytes:
    return obs_line(image_id=f"img-{i:03d}", descriptor=[float(i)] * 128, **fields).encode()


def _outcome(parse):
    """The dataset ``parse`` returns, or the message and line of the IngestError it raises."""
    try:
        return parse()
    except IngestError as exc:
        return str(exc), exc.line_no


def _file_and_text(path) -> tuple[object, object]:
    """The outcome of the file opened as the CLI opens it, and of its whole text."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        from_file = _outcome(lambda: parse_observations(fh))
    text = path.read_bytes().decode("utf-8", "surrogateescape")
    return from_file, _outcome(lambda: parse_observations(text))


def _long_comment(size: int) -> bytes:
    return b"# " + b"x" * size


# Observation files with odd line ends, comments, blank and long lines, and
# faults late in the file; a name says where a cut at a b"\n" would fall.
_SPLIT_CASES = {
    # name: (lines, separator, final separator)
    "crlf": ([_numbered_obs(i) for i in range(6)] + [b'{"wearer_id": 1}'], b"\r\n", True),
    "cr-only": ([_numbered_obs(i) for i in range(6)] + [b"[1]"], b"\r", True),
    "cr-only-but-one-crlf": (
        [_numbered_obs(0), _numbered_obs(1), _numbered_obs(2) + b"\r\n" + _numbered_obs(3), b"[1]"],
        b"\r", True,
    ),
    "vt-and-fs-inside-lines": (
        [_numbered_obs(0), b"# a\vb", _numbered_obs(1), b"#c\x1c#d", _numbered_obs(2),
         _numbered_obs(3).replace(b'"day"', b'\x1c"day"')],
        b"\n", True,
    ),
    "comment-ends-a-part": (
        [_numbered_obs(0), _long_comment(4000), _numbered_obs(1), _numbered_obs(2, day="x")],
        b"\n", True,
    ),
    "blank-line-starts-a-part": (
        [_numbered_obs(0), _long_comment(3000), b"", b"  ", _numbered_obs(1), b"{"],
        b"\n", True,
    ),
    "no-final-newline": ([_numbered_obs(i) for i in range(7)], b"\n", False),
    "no-final-newline-fault": ([_numbered_obs(i) for i in range(5)] + [b"{"], b"\n", False),
    "line-longer-than-a-part": (
        [_numbered_obs(0), _numbered_obs(1, wearer="w" * 20000), _numbered_obs(2),
         _numbered_obs(3), _numbered_obs(4), _numbered_obs(0)],
        b"\n", True,
    ),
    "duplicate-key-across-parts": (
        [_numbered_obs(i) for i in range(6)] + [_numbered_obs(1, timestamp="2024-03-04T10:00:00Z")],
        b"\n", True,
    ),
    "undecodable-byte-behind-an-earlier-fault": (
        [_numbered_obs(0), _numbered_obs(1)[:-9], _numbered_obs(2), _numbered_obs(3),
         _numbered_obs(4), b"\xff" + _numbered_obs(5)],
        b"\n", True,
    ),
    "deeply-nested-line-in-a-later-part": (
        [_numbered_obs(0), _long_comment(120_000), b"[" * 100_000, _numbered_obs(1)],
        b"\n", True,
    ),
    "undecodable-byte-in-a-later-part": (
        [_numbered_obs(i) for i in range(6)] + [_numbered_obs(6).replace(b"img", b"\xe9mg")],
        b"\n", True,
    ),
    "uncharted-wearer-in-a-later-part": (
        [_numbered_obs(i) for i in range(6)] + [_numbered_obs(6, wearer="../x")],
        b"\n", True,
    ),
}


@pytest.mark.parametrize("case", list(_SPLIT_CASES))
def test_split_file_parses_as_the_serial_reader(tmp_path, case):
    # A file opened as the CLI opens it parses as its text does.
    lines, sep, final = _SPLIT_CASES[case]
    path = tmp_path / "obs.jsonl"
    path.write_bytes(sep.join(lines) + (sep if final else b""))
    from_file, from_text = _file_and_text(path)
    assert from_file == from_text


def _insert(line: bytes, col: int, piece: bytes) -> bytes:
    col %= len(line) + 1
    return line[:col] + piece + line[col:]


_CORRUPTIONS_OF_A_LINE = {
    "truncate": lambda line, col: line[: col % (len(line) + 1)],
    "descriptor": lambda line, col: line.replace(b"[", b'["x", ', 1),
    "day": lambda line, col: line.replace(b'"2024-03-04"', b'"2024-03-05"'),
    "byte": lambda line, col: _insert(line, col, b"\xff"),
    "vt": lambda line, col: _insert(line, col, b"\v"),
    "fs": lambda line, col: _insert(line, col, b"\x1c"),
    "long": lambda line, col: line.replace(b'"u1"', b'"' + b"u" * 6000 + b'"'),
}


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    n=st.integers(2, 10),
    seps=st.lists(
        st.sampled_from((b"\n", b"\r\n", b"\r", b"\n\n", b"\n# c\n", b"\r\n \r\n", b"\v\n")),
        min_size=10,
        max_size=10,
    ),
    edits=st.lists(
        st.tuples(
            st.integers(0, 9),
            st.sampled_from([*_CORRUPTIONS_OF_A_LINE, "duplicate"]),
            st.integers(0, 10**4),
        ),
        max_size=3,
    ),
    final=st.booleans(),
)
def test_split_file_matches_the_serial_reader(tmp_path, n, seps, edits, final):
    # A file opened as the CLI opens it parses as its text does.
    lines = [_numbered_obs(i) for i in range(n)]
    for index, kind, col in edits:
        index %= n
        if kind == "duplicate":
            lines[index] = lines[col % n]
        else:
            lines[index] = _CORRUPTIONS_OF_A_LINE[kind](lines[index], col)
    text = b"".join(line + sep for line, sep in zip(lines, seps))
    if not final:
        text = text[: -len(seps[n - 1])]
    path = tmp_path / "obs.jsonl"
    path.write_bytes(text)
    from_file, from_text = _file_and_text(path)
    assert from_file == from_text


def test_parsing_a_large_file_starts_no_process(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    n = (5 << 20) // len(_numbered_obs(0))  # 5 MiB, however many CPUs there are
    path = tmp_path / "obs.jsonl"
    path.write_bytes(b"\n".join(_numbered_obs(i) for i in range(n)))
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        assert len(parse_observations(fh)) == n
