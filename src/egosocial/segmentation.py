"""Temporal segmentation of identity appearances into social interactions.

Within each (person cluster, day), the identity's observation timestamps
are split wherever the gap between consecutive frames exceeds the maximum
gap (default 15 minutes, bridging frames the detector missed), and each
remaining run whose span reaches the minimum event duration (default 3
minutes) becomes one Interaction. Shorter runs are dropped but counted.

Events never cross a day boundary, and the discarded pool of a
consistency-filtered clustering never produces interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import Iterable

from .clustering import Clustering
from .ingest import (
    Dataset,
    LineSource,
    _built,
    _jsonl,
    _non_negative_int,
    _parse_day,
    _parse_timestamp,
    _records,
    _strings,
)


@dataclass(frozen=True)
class SegmentationParams:
    """Duration floor and gap ceiling, both in minutes, both independent."""

    min_event_minutes: float = 3.0
    max_gap_minutes: float = 15.0

    def __post_init__(self):
        for name in ("min_event_minutes", "max_gap_minutes"):
            minutes = getattr(self, name)
            if not minutes > 0:
                raise ValueError(f"{name} must be positive")
            try:
                timedelta(minutes=minutes)
            except OverflowError:
                raise ValueError(f"{name} exceeds the longest duration, got {minutes!r}") from None


@dataclass(frozen=True)
class Interaction:
    """One contiguous social event between the wearer and one identity."""

    wearer_id: str
    person_cluster_id: int
    day: date
    start: datetime
    end: datetime
    observation_count: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("interaction start must not exceed end")
        if self.start.date() != self.day or self.end.date() != self.day:
            raise ValueError("interaction must lie within its day")

    @property
    def duration_minutes(self) -> float:
        return (self.end - self.start).total_seconds() / 60.0


@dataclass(frozen=True)
class SegmentationResult:
    interactions: tuple[Interaction, ...]
    sub_event_runs: int  # runs dropped for falling short of the duration floor


def segment(
    clustering: Clustering,
    dataset: Dataset,
    params: SegmentationParams = SegmentationParams(),
) -> SegmentationResult:
    """Cut each identity cluster's timeline into interaction events.

    The clustering must cover the dataset's observations (indices align).
    Results are sorted by (wearer, day, start, cluster id) and depend only
    on the timestamp multiset of each cluster, not on input order.
    """
    if len(clustering.assignment) != len(dataset.observations):
        raise ValueError(
            f"clustering covers {len(clustering.assignment)} observations, "
            f"dataset has {len(dataset.observations)}"
        )
    max_gap = timedelta(minutes=params.max_gap_minutes)
    min_span = timedelta(minutes=params.min_event_minutes)

    interactions: list[Interaction] = []
    sub_event_runs = 0
    for cluster_id, members in enumerate(clustering.clusters):
        by_day: dict[tuple[str, date], list[datetime]] = {}
        for idx in members:
            obs = dataset.observations[idx]
            by_day.setdefault((obs.wearer_id, obs.day), []).append(obs.timestamp)
        for (wearer, day), stamps in by_day.items():
            stamps.sort()
            run_start = 0
            for pos in range(1, len(stamps) + 1):
                at_break = pos == len(stamps) or stamps[pos] - stamps[pos - 1] > max_gap
                if not at_break:
                    continue
                first, last = stamps[run_start], stamps[pos - 1]
                if last - first >= min_span:
                    interactions.append(
                        Interaction(
                            wearer_id=wearer,
                            person_cluster_id=cluster_id,
                            day=day,
                            start=first,
                            end=last,
                            observation_count=pos - run_start,
                        )
                    )
                else:
                    sub_event_runs += 1
                run_start = pos

    interactions.sort(key=lambda e: (e.wearer_id, e.day, e.start, e.person_cluster_id))
    return SegmentationResult(tuple(interactions), sub_event_runs)


def daily_interaction_timeline(
    interactions: Iterable[Interaction],
    wearer_id: str,
    day: date,
) -> tuple[tuple[datetime, datetime], ...]:
    """Union of the wearer's interaction intervals on one day.

    Overlapping or touching intervals coalesce, so simultaneous
    conversations with different people count the minutes once.
    """
    spans = sorted(
        (e.start, e.end)
        for e in interactions
        if e.wearer_id == wearer_id and e.day == day
    )
    merged: list[list[datetime]] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return tuple((s, e) for s, e in merged)


def serialize_interactions(interactions: Iterable[Interaction]) -> str:
    """One JSON record per interaction, in deterministic order."""
    ordered = sorted(
        interactions, key=lambda e: (e.wearer_id, e.day, e.start, e.person_cluster_id)
    )
    return _jsonl(
        {
            "wearer_id": e.wearer_id,
            "person_cluster_id": e.person_cluster_id,
            "day": e.day.isoformat(),
            "start": e.start.isoformat(),
            "end": e.end.isoformat(),
            "duration_minutes": e.duration_minutes,
            "observation_count": e.observation_count,
        }
        for e in ordered
    )


_INTERACTION_FIELDS = ("wearer_id", "person_cluster_id", "day", "start", "end", "observation_count")


def _interaction(rec: dict, line_no: int) -> Interaction:
    interaction = _built(  # checked in the order of the arguments
        Interaction,
        line_no,
        day=_parse_day(rec["day"], line_no),
        start=_parse_timestamp(rec["start"], line_no),
        end=_parse_timestamp(rec["end"], line_no),
        person_cluster_id=_non_negative_int(rec, "person_cluster_id", line_no),
        observation_count=_non_negative_int(rec, "observation_count", line_no),
        wearer_id=rec["wearer_id"],
    )
    _strings(rec, ("wearer_id",), line_no)
    return interaction


def parse_interactions(source: LineSource) -> tuple[Interaction, ...]:
    """Read the line format :func:`serialize_interactions` writes.

    ``source`` is the whole text or an open text file, read one line at a time.
    """
    return tuple(entry for _, entry in _records(source, _INTERACTION_FIELDS, _interaction))
