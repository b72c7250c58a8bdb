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

Every reader of the toolkit keeps one contract. :func:`_records` is the
only record loop: a reader is its field list plus a function that checks
and builds one record with the field checks here. The loop decodes a line
with orjson first, and json, through :func:`_decode`, judges every line
orjson refuses and every record built from orjson's value that is rejected.
So each line is accepted with exactly the value json gives it, or rejected
with json's message and line. :func:`_decode` alone decodes whole
documents and the clustering header. Identifiers are JSON strings, checked,
never coerced. A new check goes after a reader's existing ones, so an input
rejected before keeps its message and line.

The JSON documents the toolkit reads, the run config, the synth config and
each record of a traits report, are read into their dataclasses by
:func:`_read_fields`, and :data:`_KINDS` alone decides which JSON value a
field takes. A bool field takes ``true`` or ``false``; an int field a JSON
integer, never a bool; a float field a finite number, an integer read as a
float; a str field a string; a time or date field an ISO string. A field
``X | None`` also takes ``null``; ``tuple[X, X]`` takes a list of two and
``tuple[X, ...]`` a list; a dataclass field takes an object, read the same
way. A key is required exactly when its field has no default. Checks run in
one order: every key's kind, in field order, each nested object built (and
its own checks run) as it is read; then the dataclass's own checks; then the
first key that names no field, the object's own keys before those of the
objects in its fields. :func:`_json_document` alone writes a document.

:func:`_jsonl` writes line records, one ``json.dumps`` line a record, and
:func:`serialize_observations` writes the observation lines; both end and
join their lines through :func:`_joined_lines`.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from datetime import date, datetime, time, timedelta
from functools import cached_property
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence
from typing import get_args, get_origin, get_type_hints

import numpy as np
import orjson

DESCRIPTOR_DIM = 128

ObservationKey = tuple[str, str, int]

# What every line-record reader takes: the whole text, or an open text file
# (any iterable of str lines) read one line at a time.
LineSource = str | Iterable[str] | IO[str]


class IngestError(ValueError):
    """Rejecting parse or validation error, with the source line when known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.reason = message
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


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


def _index_wearers(
    observations: Sequence[FaceObservation], coverage: Mapping[tuple[str, date], DayCoverage]
) -> dict[str, Dataset]:
    """Every wearer with an observation or a coverage entry, mapped to its slice.

    A slice keeps the dataset's order of observations and of coverage entries.
    """
    own_obs: dict[str, list[FaceObservation]] = {}
    own_cov: dict[str, dict[tuple[str, date], DayCoverage]] = {}
    for obs in observations:
        own_obs.setdefault(obs.wearer_id, []).append(obs)
    for key, entry in coverage.items():
        own_cov.setdefault(key[0], {})[key] = entry
    return {w: Dataset(tuple(own_obs.get(w, ())), own_cov.get(w, {})) for w in own_obs | own_cov}


@dataclass(frozen=True)
class Dataset:
    """Immutable, sorted container of observations plus per-day coverage.

    Observations are sorted by (wearer_id, timestamp, image_id, face_index)
    and every (wearer, day) present in the observations has a coverage
    entry; coverage days with no observations are legitimate (a day worn
    with no faces detected). The per-wearer index behind :meth:`wearers`
    and :func:`slice_dataset` holds every wearer's slice, built once on first
    use and kept, so the coverage mapping must not change after construction.
    """

    observations: tuple[FaceObservation, ...] = ()
    coverage: Mapping[tuple[str, date], DayCoverage] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.observations)

    @cached_property
    def _wearer_index(self) -> dict[str, Dataset]:
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


def _decode(text: str, what: str, line_no: int | None = None) -> object:
    """The JSON value of ``text``; any fault is ``malformed {what}: ...`` at ``line_no``,
    or, in a whole document, at the line the decoder stops on.

    A syntax error carries its line. Nesting too deep and an integer past the
    interpreter's digit limit do not, so the line is found by bisection: the
    decoder reads left to right, so every prefix of whole lines that holds the
    line it stops on meets the same fault, and every shorter prefix runs out
    first. The prefixes are decoded in this frame, as ``text`` was, because the
    decoder's depth limit counts the frames of its caller.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"malformed {what}: {exc.msg}", line_no or exc.lineno) from None
    except RecursionError:
        fault, message = RecursionError, "nested too deeply"
    except ValueError as exc:  # an integer past the interpreter's digit limit
        fault, message = ValueError, str(exc)
    if line_no is None:
        ends = [m.end() for m in re.finditer("\n", text)] + [len(text)]
        lo, hi = 0, len(ends) - 1  # text[: ends[hi]] meets the fault
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                json.loads(text[: ends[mid]])
                met = False
            except (RecursionError, ValueError) as exc:
                met = type(exc) is fault  # not a JSONDecodeError
            lo, hi = (lo, mid) if met else (mid + 1, hi)
        line_no = lo + 1
    raise IngestError(f"malformed {what}: {message}", line_no)


def _record(
    value: object, line_no: int, fields: Sequence[str], build: Callable[[dict, int], object]
) -> object:
    """``build(value, line_no)`` if ``value`` is an object holding every key in ``fields``."""
    if not isinstance(value, dict):
        raise IngestError("record is not an object", line_no)
    missing = [f for f in fields if f not in value]
    if missing:
        raise IngestError(f"missing fields {missing}", line_no)
    return build(value, line_no)


def _line_record(
    line: str, line_no: int, fields: Sequence[str], build: Callable[[dict, int], object]
) -> object:
    """The record of one line, built from the value json gives it, or json's reject.

    orjson decodes a line with no ``{`` after its first character and at most
    one ``[``, too shallow for json's nesting limit. Where orjson accepts a
    line, its value is json's but for an integer outside [-2**63, 2**64),
    which it makes a float; inside a descriptor both give the same float64,
    and anywhere else only a check inside ``build`` can tell them apart. So a
    line orjson refuses, and a record built from its value that is rejected,
    is decoded again by json and built again.
    """
    if line.find("{", 1) < 0 and line.find("[", line.find("[") + 1) < 0:
        try:
            return _record(orjson.loads(line), line_no, fields, build)
        except (orjson.JSONDecodeError, IngestError):
            pass  # json judges the line
    return _record(_decode(line, "record", line_no), line_no, fields, build)


def _records(
    source: LineSource, fields: Sequence[str], build: Callable[[dict, int], object]
) -> Iterator[tuple[int, object]]:
    """(line number, ``build(record, line number)``) for each JSON object of ``source``
    that holds every key in ``fields``."""
    for line_no, line in _iter_lines(source):
        yield line_no, _line_record(line, line_no, fields, build)


def _strings(record: dict, keys: tuple[str, ...], line_no: int) -> None:
    """Reject ``record`` unless the value of each of ``keys`` is a JSON string."""
    for key in keys:
        if not isinstance(record[key], str):
            kind = "strings" if len(keys) > 1 else "a string"
            raise IngestError(f"{' and '.join(keys)} must be {kind}", line_no)


def _built(make: Callable[..., object], line_no: int, **values) -> object:
    """``make(**values)``, a record whose own checks raise ValueError, named by its line."""
    try:
        return make(**values)
    except ValueError as exc:
        raise IngestError(str(exc), line_no) from None


_OBSERVATION_FIELDS = ("wearer_id", "day", "timestamp", "image_id", "face_index", "descriptor")

# The types the JSON decoder gives a number; bool is neither, so exact-type
# membership also rejects true/false.
_NUMBER_TYPES = frozenset((int, float))


def _is_finite_number(value: object) -> bool:
    if type(value) not in _NUMBER_TYPES:
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float64 range
        return False


def _is_str(value: object) -> bool:
    return type(value) is str


class _Kind(NamedTuple):
    """What a JSON value must be to fill a field of one type, and how it is read."""

    description: str  # as a reject names it
    plural: str  # the same, for the entries of a pair
    fits: Callable[[object], bool]
    read: Callable[[object], object]  # may raise ValueError, a reject too


# The only place that decides which JSON value a dataclass field takes.
_KINDS = {
    bool: _Kind("true or false", "booleans", lambda v: type(v) is bool, bool),
    int: _Kind("an integer", "integers", lambda v: type(v) is int, int),
    float: _Kind("a finite number", "numbers", _is_finite_number, float),
    str: _Kind("a string", "strings", _is_str, str),
    time: _Kind("an ISO time string", "ISO time strings", _is_str, time.fromisoformat),
    date: _Kind("an ISO date string", "ISO date strings", _is_str, date.fromisoformat),
}


def _read_value(kind: object, value: object, name: str, key: str, unknown: list[str]) -> object:
    """``value`` read as the field type ``kind``; a reject names it as ``{key} {name!r}``.

    ``kind`` is a type of ``_KINDS``, ``X | None``, ``tuple[X, X]``,
    ``tuple[X, ...]`` or a dataclass; the key path of every key that names no
    field of a nested object is added to ``unknown``.
    """
    if is_dataclass(kind):
        return kind(**_field_values(kind, value, name, key, unknown))
    args = get_args(kind)
    if get_origin(kind) is tuple:
        if args[-1] is Ellipsis:
            if not isinstance(value, list):
                raise IngestError(f"{key} {name!r} must be a list, got {value!r}")
            args = (args[0],) * len(value)
        elif not (isinstance(value, list) and len(value) == 2):
            raise IngestError(
                f"{key} {name!r} must be a list of two {_KINDS[args[0]].plural}, got {value!r}"
            )
        return tuple(
            _read_value(arg, entry, f"{name}[{i}]", key, unknown)
            for i, (arg, entry) in enumerate(zip(args, value))
        )
    nullable = type(None) in args
    if nullable:
        if value is None:
            return None
        (kind,) = (arg for arg in args if arg is not type(None))
    description, _, fits, read = _KINDS[kind]
    if fits(value):
        with contextlib.suppress(ValueError):  # not an ISO time or date
            return read(value)
    or_null = " or null" if nullable else ""
    raise IngestError(f"{key} {name!r} must be {description}{or_null}, got {value!r}")


def _field_values(
    cls: type, record: object, name: str, key: str, unknown: list[str]
) -> dict[str, object]:
    """The value of each field of the dataclass ``cls`` that the JSON object ``record``
    holds, read as its type; ``name`` is the object's key path, "" for a document."""
    if not isinstance(record, dict):
        raise IngestError(f"{name} must be a JSON object")
    prefix = f"{name}." if name else ""
    hints = get_type_hints(cls)
    unknown.extend(prefix + k for k in record if k not in hints)
    values = {}
    for f in fields(cls):
        if f.name in record:
            path = prefix + f.name
            values[f.name] = _read_value(hints[f.name], record[f.name], path, key, unknown)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise IngestError(f"{name} lacks key {f.name!r}")
    return values


def _read_fields(
    cls: type, record: object, name: str = "", key: str = "config key", given: Mapping | None = None
) -> object:
    """The dataclass ``cls`` built from the JSON object ``record`` over the values
    ``given``, checked in the order the module docstring states.

    ``name`` is the object's key path, "" for a whole document; a reject names a
    value as ``{key} 'path'`` and a key that names no field as ``unknown {key}
    'path'``.
    """
    unknown: list[str] = []
    built = cls(**{**(given or {}), **_field_values(cls, record, name, key, unknown)})
    if unknown:
        raise IngestError(f"unknown {key} {unknown[0]!r}")
    return built


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


def _observation(record: dict, line_no: int) -> FaceObservation:
    raw_desc = record["descriptor"]
    if not isinstance(raw_desc, list) or len(raw_desc) != DESCRIPTOR_DIM:
        got = len(raw_desc) if isinstance(raw_desc, list) else type(raw_desc).__name__
        raise IngestError(
            f"descriptor must be an array of {DESCRIPTOR_DIM} numbers, got {got}", line_no
        )
    obs = _built(  # checked in the order of the arguments
        FaceObservation,
        line_no,
        descriptor=_CheckedDescriptor(_parse_descriptor(raw_desc, line_no)),
        face_index=_non_negative_int(record, "face_index", line_no),
        day=_parse_day(record["day"], line_no),
        timestamp=_parse_timestamp(record["timestamp"], line_no),
        wearer_id=record["wearer_id"],
        image_id=record["image_id"],
    )
    _strings(record, ("wearer_id", "image_id"), line_no)
    return obs


def _observation_key(record: dict, line_no: int) -> tuple[ObservationKey, dict]:
    """The observation a truth or clustering record names, and the record."""
    _strings(record, ("wearer_id", "image_id"), line_no)
    face_index = _non_negative_int(record, "face_index", line_no)
    return (record["wearer_id"], record["image_id"], face_index), record


def _see_once(seen: dict[ObservationKey, int], key: ObservationKey, line_no: int) -> None:
    """Note that ``key`` is named on ``line_no``; reject a key ``seen`` names already."""
    if key in seen:
        wearer_id, image_id, face_index = key
        raise IngestError(
            f"duplicate (image_id, face_index) = ({image_id!r}, {face_index}) "
            f"for wearer {wearer_id!r}, first seen on line {seen[key]}",
            line_no,
        )
    seen[key] = line_no


# The most bytes a file name may have on common file systems.
_NAME_MAX = 255


def _chart_name_fault(wearer_id: str) -> str | None:
    """Why ``wearer_id`` cannot name its own radar chart, ``<wearer_id>.svg`` beside
    ``overlay.svg``, or None: a '/' or NUL would put the chart elsewhere or nowhere,
    and a lone surrogate or a name past ``_NAME_MAX`` UTF-8 bytes cannot be written."""
    try:
        size = len(wearer_id.encode()) + len(".svg")
    except UnicodeEncodeError:  # a lone surrogate
        size = None
    if "/" in wearer_id or "\0" in wearer_id or wearer_id == "overlay":
        why = "it holds '/' or NUL, or is 'overlay'"
    elif size is None:
        why = "it holds a lone surrogate"
    elif size > _NAME_MAX:
        why = f"'<wearer_id>.svg' is {size} UTF-8 bytes, over {_NAME_MAX}"
    else:
        return None
    return f"wearer_id {wearer_id!r} cannot name a chart file: {why}"


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

    Each line is read in turn: a key seen before is rejected on the line that
    repeats it, and a wearer id that cannot name its chart on its own line.

    Coverage is synthesized as [first, last] observation timestamp for
    every (wearer, day), flagged ``synthesized``. Use :func:`load_dataset`
    to attach an explicit coverage manifest.
    """
    observations: list[FaceObservation] = []
    seen: dict[ObservationKey, int] = {}
    for line_no, obs in _records(source, _OBSERVATION_FIELDS, _observation):
        _see_once(seen, obs.key, line_no)
        fault = _chart_name_fault(obs.wearer_id)
        if fault:
            raise IngestError(fault, line_no)
        observations.append(obs)
    observations.sort(key=_sort_key)
    return Dataset(tuple(observations), _synthesize_coverage(observations))


_COVERAGE_FIELDS = ("wearer_id", "day", "start", "end")


def _coverage_entry(record: dict, line_no: int) -> DayCoverage:
    count = _non_negative_int(record, "image_count", line_no) if "image_count" in record else 0
    entry = _built(  # checked in the order of the arguments
        DayCoverage,
        line_no,
        image_count=count,
        day=_parse_day(record["day"], line_no),
        start=_parse_timestamp(record["start"], line_no),
        end=_parse_timestamp(record["end"], line_no),
        wearer_id=record["wearer_id"],
    )
    _strings(record, ("wearer_id",), line_no)
    return entry


def parse_coverage(source: LineSource) -> tuple[DayCoverage, ...]:
    """Parse a coverage manifest, a string or an open text file of JSON records, one a line."""
    entries: dict[tuple[str, date], DayCoverage] = {}
    for line_no, entry in _records(source, _COVERAGE_FIELDS, _coverage_entry):
        key = (entry.wearer_id, entry.day)
        if key in entries:
            raise IngestError(f"duplicate coverage entry for {key}", line_no)
        fault = _chart_name_fault(entry.wearer_id)
        if fault:
            raise IngestError(fault, line_no)
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


def _float_list(row: np.ndarray) -> str:
    """``json.dumps(row.tolist())`` for a 1-D float64 array, mostly written by orjson.

    orjson prints the same shortest round-trip digits as ``float.__repr__``,
    and for 0 and 1e-4 <= |x| < 1e16, where repr prints a plain decimal, it
    prints the same text. Every other entry (below 1e-4, 1e16 or more,
    non-finite) is json's own token, and a row orjson refuses, such as a
    non-contiguous one, is written by json whole.
    """
    try:
        text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    except orjson.JSONEncodeError:
        return json.dumps(row.tolist())
    size = np.abs(row)
    other = ((size < 1e-4) & (row != 0)) | ~(size < 1e16)  # NaN is not < 1e16
    if not other.any():
        return text.replace(",", ", ")
    tokens = text[1:-1].split(",")
    for i in np.flatnonzero(other):
        tokens[i] = json.dumps(float(row[i]))
    return "[" + ", ".join(tokens) + "]"


def _joined_lines(lines: list[str]) -> str:
    """The line-record form :func:`_records` reads: each line ended by a newline."""
    return "\n".join(lines) + ("\n" if lines else "")


def _jsonl(records: Iterable[dict]) -> str:
    """One ``json.dumps`` line a record."""
    return _joined_lines([json.dumps(record) for record in records])


def _json_default(value: object) -> object:
    """The JSON form of what json cannot write itself: a dataclass is its fields,
    a time or a date its ISO string."""
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, (time, date)):
        return value.isoformat()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_document(doc: object) -> str:
    """``doc`` as a JSON document: sorted keys, indented two spaces, ended by a newline."""
    return json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n"


def serialize_observations(dataset: Dataset) -> str:
    """Emit the observation line format; inverse of :func:`parse_observations`.

    Each line is the bytes ``json.dumps`` writes for the record with the
    descriptor as its list. The fields before the descriptor are written by
    one ``json.dumps``, with 0 for the descriptor, which then gives way to
    :func:`_float_list`'s text: orjson writes the entries that are 0 or lie in
    1e-4 <= |x| < 1e16, where ``float.__repr__``, and so json, prints a plain
    decimal, and orjson prints the same shortest round-trip digits the same
    way. json writes every other entry.
    """
    return _joined_lines(
        [
            json.dumps(
                {
                    "wearer_id": obs.wearer_id,
                    "day": obs.day.isoformat(),
                    "timestamp": obs.timestamp.isoformat(),
                    "image_id": obs.image_id,
                    "face_index": obs.face_index,
                    "descriptor": 0,
                }
            )[:-2]
            + _float_list(obs.descriptor)
            + "}"
            for obs in dataset.observations
        ]
    )


def serialize_coverage(dataset: Dataset, include_synthesized: bool = False) -> str:
    """Emit the coverage manifest format for the dataset's explicit entries.

    Synthesized spans are re-derivable from the observations, so they are
    omitted unless explicitly requested; this keeps parse/serialize a true
    round trip.
    """
    entries = [dataset.coverage[key] for key in sorted(dataset.coverage)]
    return _jsonl(
        {
            "wearer_id": entry.wearer_id,
            "day": entry.day.isoformat(),
            "start": entry.start.isoformat(),
            "end": entry.end.isoformat(),
            "image_count": entry.image_count,
        }
        for entry in entries
        if include_synthesized or not entry.synthesized
    )


def slice_dataset(dataset: Dataset, wearer_id: str) -> Dataset:
    """Sub-dataset for one wearer.

    Returns the slice the dataset's per-wearer index built, on first use, for
    every wearer at once: slicing every wearer in turn costs one pass over the
    dataset, and slicing one wearer again returns the same object.
    """
    part = dataset._wearer_index.get(wearer_id)
    if part is None:
        raise UnknownWearerError(f"unknown wearer id {wearer_id!r}")
    return part
