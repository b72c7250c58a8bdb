from __future__ import annotations

import json
from datetime import date, datetime, time, timedelta, timezone

import numpy as np
import pytest
from hypothesis import strategies as st

from egosocial.ingest import Dataset, DayCoverage, FaceObservation

DAY = date(2024, 3, 4)


def at(hour: int, minute: int = 0, second: int = 0, day: date = DAY) -> datetime:
    return datetime.combine(day, time(hour, minute, second), tzinfo=timezone.utc)


def observations_from_matrix(
    X,
    wearer: str = "u1",
    day: date = DAY,
    start_hour: int = 9,
    spacing_seconds: float = 30.0,
    image_prefix: str | None = None,
) -> list[FaceObservation]:
    """Wrap descriptor rows as a timestamp-spaced observation sequence."""
    X = np.asarray(X, dtype=float)
    t0 = at(start_hour, day=day)
    prefix = image_prefix if image_prefix is not None else f"img-{day.isoformat()}"
    out = []
    for i, row in enumerate(X):
        out.append(
            FaceObservation(
                wearer_id=wearer,
                day=day,
                timestamp=t0 + timedelta(seconds=i * spacing_seconds),
                image_id=f"{prefix}-{i:05d}",
                face_index=0,
                descriptor=row,
            )
        )
    return out


def dataset_from_matrix(X, wearer: str = "u1", day: date = DAY, **kw) -> Dataset:
    obs = observations_from_matrix(X, wearer=wearer, day=day, **kw)
    coverage = {
        (wearer, day): DayCoverage(
            wearer_id=wearer,
            day=day,
            start=at(8, day=day),
            end=at(21, day=day),
            image_count=len(obs),
        )
    }
    return Dataset(tuple(obs), coverage)


def pad128(*rows) -> np.ndarray:
    """Embed short vectors into 128-D by zero padding."""
    out = np.zeros((len(rows), 128))
    for i, row in enumerate(rows):
        row = np.asarray(row, dtype=float)
        out[i, : row.size] = row
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240304)


# --- corrupted line-record files ---------------------------------------------------

# Values a corrupted record may hold in a field: near-valid days and instants
# (out of range, other days, no offset, other offsets), negative, huge, fractional
# and boolean numbers, and values of every other JSON type.
ODD_VALUES = (
    "",
    "x",
    "2024-03-04",
    "2024-03-05",
    "2024-02-30",
    "2024-03-04T08:00:00",
    "2024-03-04T21:00:00Z",
    "2024-03-04T07:00:00+00:00",
    "2024-03-05T01:00:00+00:00",
    "2024-03-04T23:00:00-05:00",
    "2024-03-04T25:00:00+00:00",
    "img-1",
    "u2",
    0,
    -1,
    3,
    2**70,
    1.5,
    2.0,
    True,
    False,
    None,
    [],
    {"v": 1},
)

# Whole lines a corrupted file may hold instead of a record.
ODD_LINES = ("[1]", "3", "{", '"x"', "", "  ", "# c", '{"a": 1e999}', "nul", '{"a": 1,}')


def line_edits(fields: tuple[str, ...]):
    """One to three edits of a file of JSON records: set or drop a field, replace a
    whole line, or copy one line over another, each at a line index taken modulo
    the line count."""
    value = st.one_of(
        st.sampled_from(ODD_VALUES), st.integers(), st.floats(), st.text(max_size=4)
    )
    edit = st.one_of(
        st.tuples(st.just("set"), st.sampled_from(fields), value),
        st.tuples(st.just("drop"), st.sampled_from(fields), st.none()),
        st.tuples(st.just("replace"), st.sampled_from(ODD_LINES), st.none()),
        st.tuples(st.just("copy"), st.integers(0, 20), st.none()),
    )
    return st.lists(st.tuples(st.integers(0, 20), edit), min_size=1, max_size=3)


def edit_lines(lines: list[str], edits) -> list[str]:
    """``lines`` with ``edits`` from :func:`line_edits` applied in turn; a field edit
    of a line that no longer holds a JSON object leaves it as it is."""
    lines = list(lines)
    for index, (kind, arg, value) in edits:
        index %= len(lines)
        if kind == "replace":
            lines[index] = arg
        elif kind == "copy":
            lines[index] = lines[arg % len(lines)]
        else:
            try:
                record = json.loads(lines[index])
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if kind == "set":
                record[arg] = value
            else:
                record.pop(arg, None)
            lines[index] = json.dumps(record)
    return lines


def content_line_count(lines: list[str]) -> int:
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))
