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

from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from typing import Mapping, Sequence

import numpy as np

from .evaluation import GroundTruth
from .ingest import (
    DESCRIPTOR_DIM,
    Dataset,
    DayCoverage,
    FaceObservation,
    _chart_name_fault,
    _json_document,
    _jsonl,
    _read_fields,
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
    # A config file is read in field order, so the two lists come last.
    seed: int = 0
    n_days: int = 1
    n_identities: int = 1
    identity_center_spread: float = 1.0  # 1: near-orthogonal centers; ~0: coincident
    within_person_noise: float = 0.02  # per-component sigma before re-normalization
    dropout_rate: float = 0.0
    coverage_start: time = time(9, 0)
    coverage_end: time = time(21, 0)
    wearer_id: str = "wearer-0"
    base_day: date = date(2024, 3, 4)
    frame_interval_seconds: tuple[float, float] = (20.0, 30.0)
    schedule: tuple[ScheduledInteraction, ...] = ()

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
        fault = _chart_name_fault(self.wearer_id)
        if fault:
            raise SynthConfigError(fault)


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


def config_from_dict(record: Mapping) -> SynthConfig:
    """The config a synth config document holds, read by :func:`ingest._read_fields`."""
    if not isinstance(record, Mapping):
        raise SynthConfigError("synth config must hold a JSON object")
    return _read_fields(SynthConfig, record)


def dump_config(config: SynthConfig) -> str:
    return _json_document(config)


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
