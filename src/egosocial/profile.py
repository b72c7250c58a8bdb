"""Per-wearer social behavioural traits and cross-wearer profiles.

Five traits summarize a wearer's recorded weeks: how many distinct people
they interact with per day, how many interactions they have per day, the
minutes an interaction lasts on average, the minutes spent per person per
day, and the minutes per day spent alone (recorded coverage minus the
merged interaction timeline, so simultaneous conversations are not
double-subtracted).

Profiles are the radar-ready form: each trait min-max normalized across
the wearer cohort, with the alone-time axis inverted so every axis reads
"larger = more social".
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

from .ingest import DayCoverage
from .segmentation import Interaction, daily_interaction_timeline

AXIS_LABELS = (
    "people/day",
    "interactions/day",
    "min/interaction",
    "min/person",
    "sociality",
)


class MissingCoverageError(ValueError):
    """An analyzed day has interactions but no coverage entry."""


@dataclass(frozen=True)
class SocialTraits:
    """The five per-wearer averages plus bookkeeping.

    When a wearer has no interactions at all, the per-interaction and
    per-person averages are 0 by convention and ``no_interactions`` is set.
    """

    wearer_id: str
    persons_per_day: float
    interactions_per_day: float
    minutes_per_interaction: float
    minutes_per_person: float
    minutes_alone_per_day: float
    days_analyzed: int
    no_interactions: bool = False

    def axis_values(self) -> tuple[float, float, float, float, float]:
        return (
            self.persons_per_day,
            self.interactions_per_day,
            self.minutes_per_interaction,
            self.minutes_per_person,
            self.minutes_alone_per_day,
        )


@dataclass(frozen=True)
class SocialProfile:
    """Cohort-normalized five-axis view of one wearer's traits."""

    traits: SocialTraits
    normalized_axes: tuple[float, float, float, float, float]
    provenance: str

    def __post_init__(self):
        if len(self.normalized_axes) != 5:
            raise ValueError("profiles have exactly five axes")
        if any(not 0.0 <= v <= 1.0 for v in self.normalized_axes):
            raise ValueError("normalized axes must lie in [0, 1]")
        if not self.provenance:
            raise ValueError("provenance must be non-empty")

    def to_dict(self) -> dict:
        """The JSON form: the record's fields plus the axis labels."""
        return {
            "traits": self.traits,
            "normalized_axes": self.normalized_axes,
            "axis_labels": AXIS_LABELS,
            "provenance": self.provenance,
        }


def compute_traits(
    interactions: Iterable[Interaction],
    coverage: Iterable[DayCoverage],
    wearer_id: str,
) -> SocialTraits:
    """Aggregate a wearer's interactions and coverage into the five traits.

    Every day with a coverage entry counts as analyzed: days with no
    interactions still pull down the per-day averages and contribute a
    full coverage span of alone time. The per-person average is taken over
    days on which at least one person was met.
    """
    day_coverage: dict[date, DayCoverage] = {}
    for cov in coverage:
        if cov.wearer_id == wearer_id:
            day_coverage[cov.day] = cov
    if not day_coverage:
        raise MissingCoverageError(f"no coverage entries for wearer {wearer_id!r}")

    events = [e for e in interactions if e.wearer_id == wearer_id]
    for e in events:
        if e.day not in day_coverage:
            raise MissingCoverageError(
                f"interaction on {e.day} has no coverage entry for wearer {wearer_id!r}"
            )

    days = sorted(day_coverage)
    per_day_persons: list[int] = []
    per_day_events: list[int] = []
    per_day_minutes: list[float] = []
    per_day_alone: list[float] = []
    for day in days:
        todays = [e for e in events if e.day == day]
        persons = len({e.person_cluster_id for e in todays})
        minutes = sum(e.duration_minutes for e in todays)
        merged = daily_interaction_timeline(todays, wearer_id, day)
        occupied = sum((end - start).total_seconds() / 60.0 for start, end in merged)
        per_day_persons.append(persons)
        per_day_events.append(len(todays))
        per_day_minutes.append(minutes)
        per_day_alone.append(day_coverage[day].duration_minutes - occupied)

    n_days = len(days)
    total_events = sum(per_day_events)
    social_days = [(m, p) for m, p in zip(per_day_minutes, per_day_persons) if p > 0]
    return SocialTraits(
        wearer_id=wearer_id,
        persons_per_day=sum(per_day_persons) / n_days,
        interactions_per_day=total_events / n_days,
        minutes_per_interaction=sum(per_day_minutes) / total_events if total_events else 0.0,
        minutes_per_person=(
            sum(m / p for m, p in social_days) / len(social_days) if social_days else 0.0
        ),
        minutes_alone_per_day=sum(per_day_alone) / n_days,
        days_analyzed=n_days,
        no_interactions=total_events == 0,
    )


def _minmax(values: Sequence[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        # Degenerate axis (single wearer, or a cohort tie): mid-scale.
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def build_profiles(
    traits: Sequence[SocialTraits],
    provenance: str = "unspecified",
) -> tuple[SocialProfile, ...]:
    """Min-max normalize each trait axis across the cohort.

    The alone-time axis is inverted into a sociality score so that every
    axis reads "larger = more social". A single-wearer cohort (or any axis
    with no spread) sits at 0.5. Axis order: people/day, interactions/day,
    min/interaction, min/person, sociality.
    """
    if not traits:
        raise ValueError("need at least one wearer")
    columns = list(zip(*(t.axis_values() for t in traits)))
    scaled = [_minmax(col) for col in columns]
    sociality = [1.0 - v for v in scaled[4]]

    profiles = []
    for i, t in enumerate(traits):
        axes = (scaled[0][i], scaled[1][i], scaled[2][i], scaled[3][i], sociality[i])
        profiles.append(SocialProfile(traits=t, normalized_axes=axes, provenance=provenance))
    return tuple(profiles)
