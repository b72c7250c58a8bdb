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

An observation file of 4 MiB or more is parsed on every usable CPU when it
is a regular file opened in text mode at its start, with
``errors="surrogateescape"`` as the CLI opens it, in UTF-8, ASCII or
Latin-1 (so that a ``\n`` byte always ends a line), and when the process
can fork, may run on more than one CPU (``os.sched_getaffinity``) and runs
no other Python thread. The file is cut into byte ranges, one per usable
CPU but at most one per 2 MiB, each ending just after a ``\n``. A forked
process parses each range but the first, which the reading process parses
itself, and sends its records back in frames; the parts are merged in file
order. The records, their order, and the message and line number of the
first faulty line are those of the serial reader, and the reading process
holds the parsed records plus one block of its own part's text or one frame
of another part's records. Every other input is read serially: a string,
an iterable of lines, a pipe, a smaller file, a run on one CPU.

Parsing is strict: malformed lines, wrong descriptor lengths, non-finite
values, duplicate (image_id, face_index) keys, and timestamp/day
mismatches are rejecting errors that name the offending line. Nothing is
silently dropped. Descriptors are stored exactly as given; normalization
is a clustering-stage option so the raw inputs stay inspectable.
"""

from __future__ import annotations

import codecs
import io
import json
import math
import os
import pickle
import re
import signal
import stat
import threading
import warnings
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from functools import cached_property
from typing import IO, Generator, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

DESCRIPTOR_DIM = 128

ObservationKey = tuple[str, str, int]

# What every line-record reader takes: the whole text, or an open text file
# (any iterable of str lines) read one line at a time.
LineSource = str | bytes | Iterable[str] | IO[str]


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


def _iter_lines(source: LineSource) -> Generator[tuple[int, str], None, int]:
    """Yield (1-based line number, stripped line), skipping blanks and '#' comments.

    ``source`` is the whole text, or an iterable of lines such as an open
    text file, which is read one line at a time. Each item is split as
    ``str.splitlines()`` would split it, so a file's lines are numbered
    exactly as the lines of its whole text: a text file ends its lines only
    at ``\n`` (``\r`` and ``\r\n`` are translated), and the other
    separators fall inside them. A byte that the file's decoder escaped with
    ``surrogateescape`` is rejected with its line. Returns the number of
    lines, blank and comment lines included.
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
    return no


def _record(line: str, line_no: int) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IngestError(f"malformed record: {exc.msg}", line_no) from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise IngestError(f"malformed record: {exc}", line_no) from None
    except RecursionError:
        raise IngestError("malformed record: nested too deeply", line_no) from None
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
    day = _parse_day(record["day"], line_no)
    timestamp = _parse_timestamp(record["timestamp"], line_no)
    try:
        return FaceObservation(
            wearer_id=str(record["wearer_id"]),
            day=day,
            timestamp=timestamp,
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


# --- parsing an observation file in parts ---------------------------------------

# Each part of a split file has at least this many bytes, so a file is split
# only from twice this size on.
_PART_MIN_BYTES = 2 << 20
# Bytes read from a file at a time.
_READ_BYTES = 1 << 16
# Observations a parsing process sends per frame.
_FRAME_RECORDS = 512
# Codecs in which the byte b"\n" is always a line end and decoding starts
# afresh after it, so that each part decodes on its own as the whole file does.
_SPLITTABLE_CODECS = frozenset(("ascii", "utf-8", "iso8859-1"))

# (line number, observation) per record of a part; returns the part's line count.
_PartRecords = Generator[tuple[int, FaceObservation], None, int]


def _observation_records(source: LineSource) -> _PartRecords:
    """Each record of ``source`` parsed, numbered as :func:`_iter_lines` numbers it."""
    lines = _iter_lines(source)
    while True:
        try:
            line_no, line = next(lines)
        except StopIteration as end:
            return end.value
        yield line_no, _parse_observation_line(line, line_no)


def _merge_parts(parts: Iterable[_PartRecords]) -> list[FaceObservation]:
    """The observations of consecutive parts of one input, in input order.

    Each part numbers its own lines; its records and its fault are moved past
    the lines of the parts before it, and a key seen before in any part is
    rejected on the line that repeats it.
    """
    observations: list[FaceObservation] = []
    seen: dict[ObservationKey, int] = {}
    offset = 0
    for records in parts:
        while True:
            try:
                line_no, obs = next(records)
            except StopIteration as end:
                offset += end.value
                break
            except IngestError as exc:
                raise IngestError(exc.reason, offset + exc.line_no) from None
            line_no += offset
            if obs.key in seen:
                raise IngestError(
                    f"duplicate (image_id, face_index) = ({obs.image_id!r}, {obs.face_index}) "
                    f"for wearer {obs.wearer_id!r}, first seen on line {seen[obs.key]}",
                    line_no,
                )
            seen[obs.key] = line_no
            observations.append(obs)
    return observations


def _part_ranges(source: LineSource) -> list[tuple[int, int]]:
    """The byte ranges to parse ``source`` in, one per process; [] to read it serially.

    ``source`` is split when it is a regular file opened in text mode at its
    start, with ``errors="surrogateescape"`` and a codec in
    ``_SPLITTABLE_CODECS``, when it holds at least two parts of
    ``_PART_MIN_BYTES``, and when this process can fork, may run on more than
    one CPU and runs no other Python thread. There is one range per usable
    CPU, but at most one per ``_PART_MIN_BYTES`` of the file, and each range
    but the last ends just after a b"\n".
    """
    if not (
        isinstance(source, io.TextIOWrapper)
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and threading.active_count() == 1
    ):
        return []
    try:
        if not (
            source.readable()
            and source.errors == "surrogateescape"
            and codecs.lookup(source.encoding).name in _SPLITTABLE_CODECS
            and source.tell() == 0
        ):
            return []
        fd = source.fileno()
        info = os.fstat(fd)
    except (OSError, ValueError):  # a closed file, or one without a descriptor or a position
        return []
    size = info.st_size
    n_parts = min(len(os.sched_getaffinity(0)), size // _PART_MIN_BYTES)
    if not stat.S_ISREG(info.st_mode) or n_parts < 2:
        return []
    bounds = [0]
    for i in range(1, n_parts):
        cut = _line_end(fd, size * i // n_parts)
        if cut is None or cut >= size:
            break
        if cut > bounds[-1]:  # a line longer than a part spans several targets
            bounds.append(cut)
    bounds.append(size)
    return list(zip(bounds, bounds[1:])) if len(bounds) > 2 else []


def _line_end(fd: int, pos: int) -> int | None:
    """The offset just past the first b"\n" at or after ``pos`` in the file; None if none."""
    while block := os.pread(fd, _READ_BYTES, pos):
        found = block.find(b"\n")
        if found >= 0:
            return pos + found + 1
        pos += len(block)
    return None


def _part_text(fd: int, start: int, end: int, encoding: str) -> Iterator[str]:
    """The text of bytes [start, end) of the file, a block of whole lines at a time.

    Each block but the last ends just after a b"\n", so :func:`_iter_lines`
    numbers its lines as those of the whole text. ``os.pread`` leaves the file
    position, which forked processes share, alone.
    """
    pending = b""
    while start < end:
        block = os.pread(fd, min(_READ_BYTES, end - start), start)
        if not block:  # the file got shorter
            break
        start += len(block)
        pending += block
        cut = pending.rfind(b"\n") + 1
        if cut:
            yield pending[:cut].decode(encoding, "surrogateescape")
            pending = pending[cut:]
    if pending:
        yield pending.decode(encoding, "surrogateescape")


def _send_part(stream: IO[bytes], lines: Iterable[str]) -> None:
    """Parse ``lines`` and write them to ``stream`` as pickled frames.

    A frame is (fields, descriptors, tail): up to ``_FRAME_RECORDS`` tuples of
    (line number, wearer_id, day, timestamp, image_id, face_index), their
    descriptors as one float64 block, and in the last frame only, the part's
    line count and the :class:`IngestError` that ended it, or None. The whole
    part is parsed before the first write, so that the parsing never waits on
    the pipe while the parent parses its own part.
    """
    fields, rows = [], []
    records = _observation_records(lines)
    while True:
        try:
            line_no, obs = next(records)
        except StopIteration as end:
            tail = (end.value, None)
            break
        except IngestError as exc:
            tail = (0, exc)
            break
        fields.append(
            (line_no, obs.wearer_id, obs.day, obs.timestamp, obs.image_id, obs.face_index)
        )
        rows.append(obs.descriptor)
    for at in range(0, max(len(fields), 1), _FRAME_RECORDS):
        stop = at + _FRAME_RECORDS
        block = np.array(rows[at:stop], dtype=np.float64).reshape(-1, DESCRIPTOR_DIM)
        frame = (fields[at:stop], block, tail if stop >= len(fields) else None)
        pickle.dump(frame, stream, pickle.HIGHEST_PROTOCOL)


class _PartProcess:
    """A forked process that parses bytes [start, end) of a file and sends the part back."""

    def __init__(self, fd: int, start: int, end: int, encoding: str):
        self.start, self.end = start, end
        self.exit_code: int | None = None
        read_end, write_end = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns when a process with threads (BLAS workers,
                # say) forks; the child only parses and writes to its pipe.
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read_end)
                with open(write_end, "wb") as stream:
                    _send_part(stream, _part_text(fd, start, end, encoding))
                status = 0
            finally:
                # Leave without running the parent's exit handlers or flushing
                # its buffered output a second time.
                os._exit(status)
        os.close(write_end)
        self.stream = open(read_end, "rb")

    def records(self) -> _PartRecords:
        """The part's records as the child parsed them, then its line count or its fault."""
        while True:
            try:
                fields, block, tail = pickle.load(self.stream)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(
                    f"the process parsing bytes {self.start}-{self.end} of the observation "
                    f"file exited with code {self.reap()} before sending them"
                ) from None
            for (line_no, *values), row in zip(fields, block):
                yield line_no, FaceObservation(*values, _CheckedDescriptor(row))
            if tail is not None:
                n_lines, fault = tail
                if fault is not None:
                    raise fault
                return n_lines

    def reap(self, kill: bool = False) -> int:
        """Close the pipe and wait for the child, killed first if asked; its exit code."""
        if self.exit_code is None:
            self.stream.close()
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            self.exit_code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.exit_code


def _parse_parts(source: IO[str], ranges: list[tuple[int, int]]) -> list[FaceObservation]:
    """Parse each byte range in a forked process, the first in this one, merged in file order.

    A range whose process cannot be started is parsed here when its turn comes.
    Every child is reaped before this returns or raises; one still parsing
    when this process raises is killed.
    """
    fd, encoding = source.fileno(), source.encoding
    children: list[_PartProcess | None] = [None]
    try:
        for start, end in ranges[1:]:
            try:
                children.append(_PartProcess(fd, start, end, encoding))
            except OSError:  # no process to spare
                children.append(None)
        parts = (
            child.records() if child else _observation_records(_part_text(fd, *span, encoding))
            for span, child in zip(ranges, children)
        )
        observations = _merge_parts(parts)
    finally:
        for child in children:
            if child:
                child.reap(kill=True)
    return observations


def parse_observations(source: LineSource) -> Dataset:
    """Parse observation lines, a string or an open text file, into a validated Dataset.

    A large regular file is parsed in parts on every usable CPU, as
    :func:`_part_ranges` decides and the module docstring describes; any other
    source is read one line at a time in this process. Both give the same
    records, in the same order, and the same reject message and line number
    for the first faulty line, and both hold the parsed records plus one line,
    or one frame of a forked parser's records, at a time.

    Coverage is synthesized as [first, last] observation timestamp for
    every (wearer, day), flagged ``synthesized``. Use :func:`load_dataset`
    to attach an explicit coverage manifest.
    """
    ranges = _part_ranges(source)
    if ranges:
        observations = _parse_parts(source, ranges)
    else:
        observations = _merge_parts([_observation_records(source)])
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
        day = _parse_day(record["day"], line_no)
        start = _parse_timestamp(record["start"], line_no)
        end = _parse_timestamp(record["end"], line_no)
        try:
            entry = DayCoverage(
                wearer_id=str(record["wearer_id"]),
                day=day,
                start=start,
                end=end,
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
