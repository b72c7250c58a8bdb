"""Parsing, validation, and indexing of face-descriptor photostreams.

The entry point of the whole toolkit is a line-delimited text stream of
face observations: one JSON record per line, each carrying the wearer id,
the calendar day, an RFC 3339 timestamp with an explicit UTC offset, the
source image id, the face index within that image, and a 128-dimensional
face descriptor. A second, optional stream describes per-day recording
coverage (the span of the day the camera was actually worn), which is the
denominator for time-alone analytics.

Every line-record reader here and in the other modules takes either the
whole text as a string or an open text file, which it reads one line at a
time, so a reader holds the parsed records plus one line, never the whole
input. A line is what ``str.splitlines()`` makes of the whole text: it ends
at ``\n``, ``\r``, ``\r\n``, ``\v``, ``\f``, ``\x1c``-``\x1e``, ``\x85``,
``\u2028`` or ``\u2029``, and line numbers count from 1. Blank lines and
lines starting with ``#`` are skipped but still counted. A file opened with
``errors="surrogateescape"`` lets a reader name the line of a byte that is
not valid in the file's encoding.

Parsing is strict: malformed lines, wrong descriptor lengths, non-finite
values, duplicate (image_id, face_index) keys, and timestamp/day
mismatches are rejecting errors that name the offending line. Nothing is
silently dropped. Descriptors are stored exactly as given; normalization
is a clustering-stage option so the raw inputs stay inspectable.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from functools import cached_property
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

DESCRIPTOR_DIM = 128

ObservationKey = tuple[str, str, int]

# What every line-record reader takes: the whole text, or an open text file
# (any iterable of str lines) read one line at a time.
LineSource = str | bytes | Iterable[str] | IO[str]


class IngestError(ValueError):
    """Rejecting parse or validation error, with the source line when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class UnknownWearerError(ValueError):
    """Requested wearer id does not occur in the dataset."""


class _CheckedDescriptor(NamedTuple):
    """A float64 array of DESCRIPTOR_DIM finite values, as the parser has already checked.

    :class:`FaceObservation` takes the array from it without testing it again;
    any other descriptor value gets the full shape and finiteness checks.
    """

    array: np.ndarray


@dataclass(frozen=True, eq=False)
class FaceObservation:
    """One detected face: who recorded it, when, where, and its descriptor."""

    wearer_id: str
    day: date
    timestamp: datetime
    image_id: str
    face_index: int
    descriptor: np.ndarray

    def __post_init__(self):
        desc = self.descriptor
        if type(desc) is _CheckedDescriptor:
            desc = desc.array
        else:
            desc = np.asarray(desc, dtype=np.float64)
            if desc.shape != (DESCRIPTOR_DIM,):
                raise ValueError(
                    f"descriptor must have length {DESCRIPTOR_DIM}, got {desc.size}"
                )
            if not np.isfinite(desc).all():
                raise ValueError("descriptor contains non-finite values")
        desc.setflags(write=False)
        object.__setattr__(self, "descriptor", desc)
        if self.timestamp.tzinfo is None:
            raise ValueError("timestamp must carry an explicit UTC offset")
        if self.timestamp.date() != self.day:
            raise ValueError(
                f"timestamp date {self.timestamp.date()} does not match day {self.day}"
            )
        if self.face_index < 0:
            raise ValueError("face_index must be non-negative")

    @property
    def key(self) -> ObservationKey:
        return (self.wearer_id, self.image_id, self.face_index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaceObservation):
            return NotImplemented
        return (
            self.wearer_id == other.wearer_id
            and self.day == other.day
            and self.timestamp == other.timestamp
            and self.image_id == other.image_id
            and self.face_index == other.face_index
            and np.array_equal(self.descriptor, other.descriptor)
        )


@dataclass(frozen=True)
class DayCoverage:
    """Recorded span of one wearer-day; synthesized spans are flagged."""

    wearer_id: str
    day: date
    start: datetime
    end: datetime
    image_count: int = 0
    synthesized: bool = False

    def __post_init__(self):
        if self.start.tzinfo is None or self.end.tzinfo is None:
            raise ValueError("coverage instants must carry explicit UTC offsets")
        if not self.start < self.end:
            raise ValueError("coverage start must precede end")
        if self.start.date() != self.day or self.end.date() != self.day:
            raise ValueError("coverage span must lie within its day")
        if self.image_count < 0:
            raise ValueError("image_count must be non-negative")

    @property
    def duration_minutes(self) -> float:
        return (self.end - self.start).total_seconds() / 60.0


class _WearerPart(NamedTuple):
    """One wearer's observations and coverage entries, each in the dataset's order."""

    observations: list[FaceObservation]
    coverage: dict[tuple[str, date], DayCoverage]


def _index_wearers(
    observations: Sequence[FaceObservation], coverage: Mapping[tuple[str, date], DayCoverage]
) -> dict[str, _WearerPart]:
    """Every wearer with an observation or a coverage entry, mapped to its part."""
    index: dict[str, _WearerPart] = {}

    def part(wearer_id: str) -> _WearerPart:
        if wearer_id not in index:
            index[wearer_id] = _WearerPart([], {})
        return index[wearer_id]

    for obs in observations:
        part(obs.wearer_id).observations.append(obs)
    for key, entry in coverage.items():
        part(key[0]).coverage[key] = entry
    return index


@dataclass(frozen=True)
class Dataset:
    """Immutable, sorted container of observations plus per-day coverage.

    Observations are sorted by (wearer_id, timestamp, image_id, face_index)
    and every (wearer, day) present in the observations has a coverage
    entry; coverage days with no observations are legitimate (a day worn
    with no faces detected). The per-wearer index behind :meth:`wearers`
    and :func:`slice_dataset` is built on first use and kept, so the
    coverage mapping must not change after construction.
    """

    observations: tuple[FaceObservation, ...] = ()
    coverage: Mapping[tuple[str, date], DayCoverage] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.observations)

    @cached_property
    def _wearer_index(self) -> dict[str, _WearerPart]:
        return _index_wearers(self.observations, self.coverage)

    def wearers(self) -> tuple[str, ...]:
        return tuple(sorted(self._wearer_index))

    def descriptor_matrix(self) -> np.ndarray:
        if not self.observations:
            return np.empty((0, DESCRIPTOR_DIM))
        return np.stack([o.descriptor for o in self.observations])


def _parse_timestamp(raw: object, line_no: int | None) -> datetime:
    if not isinstance(raw, str):
        raise IngestError(f"timestamp must be an RFC 3339 string, got {raw!r}", line_no)
    text = raw
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise IngestError(f"unparseable timestamp {raw!r}", line_no) from None
    if stamp.tzinfo is None:
        raise IngestError(f"timestamp {raw!r} lacks an explicit UTC offset", line_no)
    return stamp


def _parse_day(raw: object, line_no: int | None) -> date:
    if not isinstance(raw, str):
        raise IngestError(f"day must be a YYYY-MM-DD string, got {raw!r}", line_no)
    try:
        return date.fromisoformat(raw)
    except ValueError:
        raise IngestError(f"unparseable day {raw!r}", line_no) from None


# surrogateescape decodes each byte the encoding rejects to U+DC80-U+DCFF.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _iter_lines(source: LineSource) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line), skipping blanks and '#' comments.

    ``source`` is the whole text, or an iterable of lines such as an open
    text file, which is read one line at a time. Each item is split as
    ``str.splitlines()`` would split it, so a file's lines are numbered
    exactly as the lines of its whole text: a text file ends its lines only
    at ``\n`` (``\r`` and ``\r\n`` are translated), and the other
    separators fall inside them. A byte that the file's decoder escaped with
    ``surrogateescape`` is rejected with its line.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8", "surrogateescape")
    if isinstance(source, str):
        source = source.splitlines()
    no = 0
    for item in source:
        for line in item.splitlines() or [""]:
            no += 1
            if not line.isascii():
                bad = _ESCAPED_BYTE.search(line)
                if bad:
                    raise IngestError(
                        f"undecodable byte 0x{ord(bad.group()) - 0xDC00:02x} "
                        f"at column {bad.start() + 1}",
                        no,
                    )
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield no, stripped


def _record(line: str, line_no: int) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IngestError(f"malformed record: {exc.msg}", line_no) from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise IngestError(f"malformed record: {exc}", line_no) from None
    if not isinstance(record, dict):
        raise IngestError("record is not an object", line_no)
    return record


_OBSERVATION_FIELDS = ("wearer_id", "day", "timestamp", "image_id", "face_index", "descriptor")

# The types json.loads gives a JSON number; bool is neither, so exact-type
# membership also rejects true/false.
_NUMBER_TYPES = frozenset((int, float))


def _is_finite_number(value: object) -> bool:
    if type(value) not in _NUMBER_TYPES:
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float64 range
        return False


def _non_negative_int(record: dict, key: str, line_no: int) -> int:
    """``record[key]`` if it is a JSON integer >= 0 (not a bool, not a float)."""
    value = record[key]
    if type(value) is not int or value < 0:
        raise IngestError(f"{key} must be a non-negative integer, got {value!r}", line_no)
    return value


def _parse_descriptor(raw: list, line_no: int) -> np.ndarray:
    """The decoded descriptor as float64, checked as a whole; a walk names a bad entry.

    A valid line costs one type scan, one conversion and one finiteness test,
    the only one: :class:`FaceObservation` takes the result as checked. Only a
    line that fails them is walked entry by entry, to name the first bad entry
    in the message.
    """
    if _NUMBER_TYPES.issuperset(map(type, raw)):
        try:
            desc = np.array(raw, dtype=np.float64)
        except OverflowError:  # an integer beyond the float64 range
            pass
        else:
            if np.isfinite(desc).all():
                return desc
    bad = next(v for v in raw if not _is_finite_number(v))  # exists: the list check failed
    raise IngestError(f"non-finite or non-numeric descriptor entry {bad!r}", line_no)


def _parse_observation_line(line: str, line_no: int) -> FaceObservation:
    record = _record(line, line_no)
    missing = [f for f in _OBSERVATION_FIELDS if f not in record]
    if missing:
        raise IngestError(f"missing fields {missing}", line_no)
    raw_desc = record["descriptor"]
    if not isinstance(raw_desc, list) or len(raw_desc) != DESCRIPTOR_DIM:
        got = len(raw_desc) if isinstance(raw_desc, list) else type(raw_desc).__name__
        raise IngestError(
            f"descriptor must be an array of {DESCRIPTOR_DIM} numbers, got {got}", line_no
        )
    descriptor = _parse_descriptor(raw_desc, line_no)
    face_index = _non_negative_int(record, "face_index", line_no)
    try:
        return FaceObservation(
            wearer_id=str(record["wearer_id"]),
            day=_parse_day(record["day"], line_no),
            timestamp=_parse_timestamp(record["timestamp"], line_no),
            image_id=str(record["image_id"]),
            face_index=face_index,
            descriptor=_CheckedDescriptor(descriptor),
        )
    except ValueError as exc:
        raise IngestError(str(exc), line_no) from None


def _sort_key(obs: FaceObservation):
    return (obs.wearer_id, obs.timestamp, obs.image_id, obs.face_index)


def _synthesize_coverage(
    observations: Sequence[FaceObservation],
) -> dict[tuple[str, date], DayCoverage]:
    spans: dict[tuple[str, date], list] = {}
    for obs in observations:
        key = (obs.wearer_id, obs.day)
        entry = spans.setdefault(key, [obs.timestamp, obs.timestamp, set()])
        entry[0] = min(entry[0], obs.timestamp)
        entry[1] = max(entry[1], obs.timestamp)
        entry[2].add(obs.image_id)
    coverage = {}
    for (wearer, day), (first, last, images) in spans.items():
        if first == last:
            # Single-instant day: widen by one second so start < end holds,
            # without letting the span escape the day.
            if (last + timedelta(seconds=1)).date() == day:
                last = last + timedelta(seconds=1)
            else:
                first = first - timedelta(seconds=1)
        coverage[(wearer, day)] = DayCoverage(
            wearer_id=wearer,
            day=day,
            start=first,
            end=last,
            image_count=len(images),
            synthesized=True,
        )
    return coverage


def parse_observations(source: LineSource) -> Dataset:
    """Parse observation lines, a string or an open text file, into a validated Dataset.

    Coverage is synthesized as [first, last] observation timestamp for
    every (wearer, day), flagged ``synthesized``. Use :func:`load_dataset`
    to attach an explicit coverage manifest.
    """
    observations: list[FaceObservation] = []
    seen: dict[ObservationKey, int] = {}
    for line_no, line in _iter_lines(source):
        obs = _parse_observation_line(line, line_no)
        if obs.key in seen:
            raise IngestError(
                f"duplicate (image_id, face_index) = ({obs.image_id!r}, {obs.face_index}) "
                f"for wearer {obs.wearer_id!r}, first seen on line {seen[obs.key]}",
                line_no,
            )
        seen[obs.key] = line_no
        observations.append(obs)
    observations.sort(key=_sort_key)
    return Dataset(tuple(observations), _synthesize_coverage(observations))


_COVERAGE_FIELDS = ("wearer_id", "day", "start", "end")


def parse_coverage(source: LineSource) -> tuple[DayCoverage, ...]:
    """Parse a coverage manifest, a string or an open text file of JSON records, one a line."""
    entries: dict[tuple[str, date], DayCoverage] = {}
    for line_no, line in _iter_lines(source):
        record = _record(line, line_no)
        missing = [f for f in _COVERAGE_FIELDS if f not in record]
        if missing:
            raise IngestError(f"missing fields {missing}", line_no)
        image_count = 0
        if "image_count" in record:
            image_count = _non_negative_int(record, "image_count", line_no)
        try:
            entry = DayCoverage(
                wearer_id=str(record["wearer_id"]),
                day=_parse_day(record["day"], line_no),
                start=_parse_timestamp(record["start"], line_no),
                end=_parse_timestamp(record["end"], line_no),
                image_count=image_count,
            )
        except ValueError as exc:
            raise IngestError(str(exc), line_no) from None
        key = (entry.wearer_id, entry.day)
        if key in entries:
            raise IngestError(f"duplicate coverage entry for {key}", line_no)
        entries[key] = entry
    return tuple(entries.values())


def load_dataset(
    observation_source: LineSource,
    coverage_source: LineSource | None = None,
) -> Dataset:
    """Parse observations plus an optional coverage manifest into a Dataset.

    Each source is a string or an open text file, as :func:`parse_observations`
    and :func:`parse_coverage` take it.

    Explicit manifest entries replace synthesized spans and must contain
    every observation of their (wearer, day); violations reject the load.
    """
    dataset = parse_observations(observation_source)
    if coverage_source is None:
        return dataset
    coverage = dict(dataset.coverage)
    for entry in parse_coverage(coverage_source):
        coverage[(entry.wearer_id, entry.day)] = entry
    for obs in dataset.observations:
        span = coverage[(obs.wearer_id, obs.day)]
        if not (span.start <= obs.timestamp <= span.end):
            raise IngestError(
                f"observation {obs.image_id!r} at {obs.timestamp.isoformat()} lies outside "
                f"coverage [{span.start.isoformat()}, {span.end.isoformat()}] "
                f"for wearer {obs.wearer_id!r} day {obs.day}"
            )
    return Dataset(dataset.observations, coverage)


def serialize_observations(dataset: Dataset) -> str:
    """Emit the observation line format; inverse of :func:`parse_observations`."""
    lines = []
    for obs in dataset.observations:
        lines.append(
            json.dumps(
                {
                    "wearer_id": obs.wearer_id,
                    "day": obs.day.isoformat(),
                    "timestamp": obs.timestamp.isoformat(),
                    "image_id": obs.image_id,
                    "face_index": obs.face_index,
                    "descriptor": [float(v) for v in obs.descriptor],
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_coverage(dataset: Dataset, include_synthesized: bool = False) -> str:
    """Emit the coverage manifest format for the dataset's explicit entries.

    Synthesized spans are re-derivable from the observations, so they are
    omitted unless explicitly requested; this keeps parse/serialize a true
    round trip.
    """
    lines = []
    for key in sorted(dataset.coverage, key=lambda k: (k[0], k[1])):
        entry = dataset.coverage[key]
        if entry.synthesized and not include_synthesized:
            continue
        lines.append(
            json.dumps(
                {
                    "wearer_id": entry.wearer_id,
                    "day": entry.day.isoformat(),
                    "start": entry.start.isoformat(),
                    "end": entry.end.isoformat(),
                    "image_count": entry.image_count,
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def slice_dataset(dataset: Dataset, wearer_id: str) -> Dataset:
    """Sub-dataset for one wearer.

    Reads the dataset's per-wearer index, built on first use, so slicing
    every wearer in turn costs one pass over the dataset, not one per call.
    """
    part = dataset._wearer_index.get(wearer_id)
    if part is None:
        raise UnknownWearerError(f"unknown wearer id {wearer_id!r}")
    return Dataset(tuple(part.observations), dict(part.coverage))
