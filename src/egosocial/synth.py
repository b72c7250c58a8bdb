"""Synthetic descriptor photostreams with ground-truth identities.

Generates the exact ingest line formats from a scripted social schedule,
so the full pipeline is testable end to end without any private data.
Identities live on the 128-D unit sphere: each gets a center whose
distance to the others is controlled by a spread knob, and every emitted
frame is that center plus isotropic Gaussian noise, re-normalized. Frames
arrive at camera cadence (uniform in a 20-30 s interval by default) and
are dropped i.i.d. with the dropout rate, modeling detector misses.

Everything is driven by one seeded generator: identical configs produce
byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, fields, is_dataclass
from datetime import date, datetime, time, timedelta, timezone
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from .evaluation import GroundTruth
from .ingest import (
    DESCRIPTOR_DIM,
    Dataset,
    DayCoverage,
    FaceObservation,
    _is_finite_number,
    _jsonl,
)


class SynthConfigError(ValueError):
    """The scripted schedule or parameters are impossible."""


@dataclass(frozen=True)
class ScheduledInteraction:
    """One scripted appearance of an identity on one day."""

    identity: int
    day: int  # 0-based offset from base_day
    start: time
    end: time

    def __post_init__(self):
        if self.identity < 0 or self.day < 0:
            raise SynthConfigError("identity and day must be non-negative")
        if not self.start < self.end:
            raise SynthConfigError("scheduled start must precede end")


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_days: int = 1
    n_identities: int = 1
    identity_center_spread: float = 1.0  # 1: near-orthogonal centers; ~0: coincident
    within_person_noise: float = 0.02  # per-component sigma before re-normalization
    frame_interval_seconds: tuple[float, float] = (20.0, 30.0)
    schedule: tuple[ScheduledInteraction, ...] = ()
    dropout_rate: float = 0.0
    coverage_start: time = time(9, 0)
    coverage_end: time = time(21, 0)
    wearer_id: str = "wearer-0"
    base_day: date = date(2024, 3, 4)

    def __post_init__(self):
        lo, hi = self.frame_interval_seconds
        if not 0 < lo <= hi:
            raise SynthConfigError("frame interval must satisfy 0 < lo <= hi")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise SynthConfigError("dropout_rate must lie in [0, 1)")
        if self.within_person_noise < 0 or self.identity_center_spread < 0:
            raise SynthConfigError("noise and spread must be non-negative")
        if not self.coverage_start < self.coverage_end:
            raise SynthConfigError("coverage_start must precede coverage_end")
        if self.n_days < 1 or self.n_identities < 1:
            raise SynthConfigError("need at least one day and one identity")
        for ev in self.schedule:
            if ev.day >= self.n_days:
                raise SynthConfigError(f"scheduled day {ev.day} outside 0..{self.n_days - 1}")
            if ev.identity >= self.n_identities:
                raise SynthConfigError(
                    f"scheduled identity {ev.identity} outside 0..{self.n_identities - 1}"
                )
            if ev.start < self.coverage_start or ev.end > self.coverage_end:
                raise SynthConfigError(
                    f"scheduled event {ev} lies outside daily coverage "
                    f"[{self.coverage_start}, {self.coverage_end}]"
                )


@dataclass(frozen=True)
class RealizedEvent:
    """A scheduled interaction plus what the camera actually captured."""

    identity: int
    wearer_id: str
    day: date
    scripted_start: datetime
    scripted_end: datetime
    first_frame: datetime | None
    last_frame: datetime | None
    frame_count: int


@dataclass(frozen=True)
class SynthDataset:
    dataset: Dataset
    truth: GroundTruth
    schedule_truth: tuple[RealizedEvent, ...]


def identity_label(identity: int) -> str:
    return f"person-{identity:03d}"


def _at(day: date, t: time) -> datetime:
    return datetime.combine(day, t, tzinfo=timezone.utc)


def _draw_centers(rng: np.random.Generator, config: SynthConfig) -> np.ndarray:
    """Unit-norm identity centers; spread interpolates them away from a shared anchor."""
    anchor = rng.standard_normal(DESCRIPTOR_DIM)
    anchor /= np.linalg.norm(anchor)
    s = config.identity_center_spread
    centers = np.empty((config.n_identities, DESCRIPTOR_DIM))
    for i in range(config.n_identities):
        unique = rng.standard_normal(DESCRIPTOR_DIM)
        unique /= np.linalg.norm(unique)
        mixed = (1.0 - s) * anchor + s * unique
        norm = np.linalg.norm(mixed)
        if norm == 0.0:
            mixed = unique
            norm = 1.0
        centers[i] = mixed / norm
    return centers


def generate(config: SynthConfig) -> SynthDataset:
    """Generate a dataset, its labels, and the realized schedule oracle.

    Per scheduled event, frames are emitted from the scripted start at
    seeded intervals drawn uniformly from the frame interval, each kept
    with probability 1 - dropout_rate; each kept frame's descriptor is the
    identity center plus Gaussian noise, re-normalized to unit length.
    """
    rng = np.random.default_rng(config.seed)
    centers = _draw_centers(rng, config)

    ordered = sorted(config.schedule, key=lambda ev: (ev.day, ev.start, ev.end, ev.identity))
    frames: list[tuple[datetime, int, np.ndarray]] = []
    realized: list[RealizedEvent] = []
    for ev in ordered:
        day = config.base_day + timedelta(days=ev.day)
        start = _at(day, ev.start)
        end = _at(day, ev.end)
        stamp = start
        kept: list[datetime] = []
        while stamp <= end:
            dropped = config.dropout_rate > 0.0 and rng.uniform() < config.dropout_rate
            if not dropped:
                noise = config.within_person_noise * rng.standard_normal(DESCRIPTOR_DIM)
                vec = centers[ev.identity] + noise
                vec /= np.linalg.norm(vec)
                frames.append((stamp, ev.identity, vec))
                kept.append(stamp)
            stamp = stamp + timedelta(seconds=float(rng.uniform(*config.frame_interval_seconds)))
        realized.append(
            RealizedEvent(
                identity=ev.identity,
                wearer_id=config.wearer_id,
                day=day,
                scripted_start=start,
                scripted_end=end,
                first_frame=kept[0] if kept else None,
                last_frame=kept[-1] if kept else None,
                frame_count=len(kept),
            )
        )

    frames.sort(key=lambda f: (f[0], f[1]))
    observations = []
    labels: dict = {}
    for seq, (stamp, identity, vec) in enumerate(frames):
        image_id = f"img-{seq:06d}"
        obs = FaceObservation(
            wearer_id=config.wearer_id,
            day=stamp.date(),
            timestamp=stamp,
            image_id=image_id,
            face_index=0,
            descriptor=vec,
        )
        observations.append(obs)
        labels[obs.key] = identity_label(identity)

    coverage = {}
    per_day_images = {}
    for obs in observations:
        per_day_images.setdefault(obs.day, set()).add(obs.image_id)
    for offset in range(config.n_days):
        day = config.base_day + timedelta(days=offset)
        coverage[(config.wearer_id, day)] = DayCoverage(
            wearer_id=config.wearer_id,
            day=day,
            start=_at(day, config.coverage_start),
            end=_at(day, config.coverage_end),
            image_count=len(per_day_images.get(day, ())),
        )

    dataset = Dataset(tuple(observations), coverage)
    return SynthDataset(
        dataset=dataset,
        truth=GroundTruth(labels=labels),
        schedule_truth=tuple(realized),
    )


# ---------------------------------------------------------------------------
# config file form


def _is_str(value: object) -> bool:
    return type(value) is str


# What each config value must be in JSON: its description, the test the JSON
# value passes, and how it is read.
_JSON_KINDS = {
    int: ("an integer", lambda v: type(v) is int, int),
    float: ("a finite number", _is_finite_number, float),
    str: ("a string", _is_str, str),
    time: ("an ISO time string", _is_str, time.fromisoformat),
    date: ("an ISO date string", _is_str, date.fromisoformat),
}


def _typed(name: str, value: object, kind: type) -> object:
    """``value`` read as ``kind``; any other JSON value is rejected by ``name``.

    Integers take only JSON integers and numbers take finite integers or floats,
    never bools; times and dates take ISO strings.
    """
    description, fits, read = _JSON_KINDS[kind]
    if fits(value):
        with contextlib.suppress(ValueError):  # not an ISO time or date
            return read(value)
    raise SynthConfigError(f"config key {name!r} must be {description}, got {value!r}")


def _field_kinds(cls: type) -> dict[str, object]:
    """The key and type of each field of the dataclass ``cls``, in field order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _scheduled_interaction(i: int, ev: object) -> ScheduledInteraction:
    if not isinstance(ev, Mapping):
        raise SynthConfigError(f"schedule[{i}] must be a JSON object")
    values = {}
    for key, kind in _field_kinds(ScheduledInteraction).items():
        if key not in ev:
            raise SynthConfigError(f"schedule[{i}] lacks key {key!r}")
        values[key] = _typed(f"schedule[{i}].{key}", ev[key], kind)
    return ScheduledInteraction(**values)


def config_from_dict(record: Mapping) -> SynthConfig:
    if not isinstance(record, Mapping):
        raise SynthConfigError("synth config must hold a JSON object")
    kinds = _field_kinds(SynthConfig)
    # Every key but the two tuples, the frame interval and the schedule, comes
    # first; an absent key takes SynthConfig's default.
    values = {
        key: _typed(key, record[key], kind)
        for key, kind in kinds.items()
        if kind in _JSON_KINDS and key in record
    }
    if "frame_interval_seconds" in record:
        interval = record["frame_interval_seconds"]
        if not (isinstance(interval, list) and len(interval) == 2):
            raise SynthConfigError(
                "config key 'frame_interval_seconds' must be a list of two numbers, "
                f"got {interval!r}"
            )
        values["frame_interval_seconds"] = tuple(
            _typed(f"frame_interval_seconds[{i}]", v, float) for i, v in enumerate(interval)
        )
    schedule = record.get("schedule", [])
    if not isinstance(schedule, list):
        raise SynthConfigError(f"config key 'schedule' must be a list, got {schedule!r}")
    config = SynthConfig(
        **values, schedule=tuple(_scheduled_interaction(i, ev) for i, ev in enumerate(schedule))
    )
    # Checked last, so that an input rejected before keeps its message.
    stray = [key for key in record if key not in kinds]
    entry_keys = _field_kinds(ScheduledInteraction)
    for i, ev in enumerate(schedule):
        stray += (f"schedule[{i}].{key}" for key in ev if key not in entry_keys)
    if stray:
        raise SynthConfigError(f"unknown config key {stray[0]!r}")
    return config


def _json_form(value: object) -> object:
    """``value`` as JSON holds it: a dataclass as an object of its fields, a tuple as
    a list, a time or a date as its ISO string."""
    if is_dataclass(value):
        return {f.name: _json_form(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_json_form(v) for v in value]
    if isinstance(value, (time, date)):
        return value.isoformat()
    return value


def config_to_dict(config: SynthConfig) -> dict:
    return _json_form(config)


def dump_config(config: SynthConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"


def serialize_schedule_truth(events: Sequence[RealizedEvent]) -> str:
    return _jsonl(
        {
            "identity": ev.identity,
            "label": identity_label(ev.identity),
            "wearer_id": ev.wearer_id,
            "day": ev.day.isoformat(),
            "scripted_start": ev.scripted_start.isoformat(),
            "scripted_end": ev.scripted_end.isoformat(),
            "first_frame": ev.first_frame.isoformat() if ev.first_frame else None,
            "last_frame": ev.last_frame.isoformat() if ev.last_frame else None,
            "frame_count": ev.frame_count,
        }
        for ev in events
    )
