from __future__ import annotations

import json
from dataclasses import MISSING, fields
from datetime import date, time, timedelta

import numpy as np
import pytest

from conftest import config_to_dict
from egosocial.clustering import AhcParams, cluster_ahc
from egosocial.consistency import apply_consistency
from egosocial.evaluation import pairwise_prf
from egosocial.ingest import serialize_coverage, serialize_observations
from egosocial.segmentation import SegmentationParams, segment
from egosocial.synth import (
    ScheduledInteraction,
    SynthConfig,
    SynthConfigError,
    config_from_dict,
    dump_config,
    generate,
)


def _hourly_schedule(n_identities, day=0, minutes=10):
    # one event per identity, spaced well apart
    return tuple(
        ScheduledInteraction(
            identity=i, day=day, start=time(9 + i, 0), end=time(9 + i, minutes)
        )
        for i in range(n_identities)
    )


def test_deterministic_bytes():
    config = SynthConfig(
        seed=5,
        n_days=2,
        n_identities=3,
        schedule=_hourly_schedule(3),
        dropout_rate=0.1,
    )
    a = generate(config)
    b = generate(config)
    assert serialize_observations(a.dataset) == serialize_observations(b.dataset)
    assert serialize_coverage(a.dataset, include_synthesized=True) == serialize_coverage(
        b.dataset, include_synthesized=True
    )
    assert a.schedule_truth == b.schedule_truth


def test_fixed_interval_frame_count():
    config = SynthConfig(
        seed=1,
        n_identities=1,
        frame_interval_seconds=(20.0, 20.0),
        schedule=(ScheduledInteraction(0, 0, time(10, 0), time(10, 10)),),
    )
    result = generate(config)
    assert len(result.dataset) in (30, 31)
    assert set(result.truth.labels.values()) == {"person-000"}


def test_zero_noise_descriptors_identical_and_perfectly_clusterable():
    config = SynthConfig(
        seed=3,
        n_identities=4,
        within_person_noise=0.0,
        schedule=_hourly_schedule(4),
    )
    result = generate(config)
    X = result.dataset.descriptor_matrix()
    labels = [result.truth.labels[o.key] for o in result.dataset.observations]
    for ident in set(labels):
        rows = X[[i for i, l in enumerate(labels) if l == ident]]
        assert np.all(rows == rows[0])
    clustering = cluster_ahc(
        result.dataset.observations, AhcParams(cut_threshold=0.5)
    )
    report = pairwise_prf(clustering, result.dataset, result.truth)
    assert report.f_measure == 1.0


def test_full_pipeline_recovers_f_at_least_095():
    config = SynthConfig(
        seed=9,
        n_identities=20,
        n_days=2,
        within_person_noise=0.02,
        schedule=tuple(
            ScheduledInteraction(
                identity=i, day=i % 2, start=time(9 + (i // 2) % 10, 0), end=time(9 + (i // 2) % 10, 8)
            )
            for i in range(20)
        ),
    )
    result = generate(config)
    clustering = cluster_ahc(result.dataset.observations, AhcParams())
    filtered, _ = apply_consistency(clustering, result.dataset)
    report = pairwise_prf(filtered, result.dataset, result.truth)
    assert report.f_measure >= 0.95


def test_dropout_thins_frames():
    base = SynthConfig(seed=4, n_identities=1, schedule=_hourly_schedule(1, minutes=30))
    with_dropout = SynthConfig(
        seed=4,
        n_identities=1,
        schedule=_hourly_schedule(1, minutes=30),
        dropout_rate=0.5,
    )
    n_full = len(generate(base).dataset)
    n_thin = len(generate(with_dropout).dataset)
    assert n_thin < n_full


def test_segmentation_recovers_scripted_events_without_dropout():
    # gaps between events far exceed the 15-minute rule
    schedule = (
        ScheduledInteraction(0, 0, time(9, 0), time(9, 10)),
        ScheduledInteraction(0, 0, time(12, 0), time(12, 8)),
        ScheduledInteraction(1, 0, time(15, 0), time(15, 20)),
    )
    config = SynthConfig(seed=8, n_identities=2, schedule=schedule, within_person_noise=0.0)
    result = generate(config)
    clustering = cluster_ahc(result.dataset.observations, AhcParams(cut_threshold=0.5))
    filtered, _ = apply_consistency(clustering, result.dataset)
    segmented = segment(filtered, result.dataset, SegmentationParams())
    assert len(segmented.interactions) == len(schedule)

    interval = timedelta(seconds=30.0)
    recovered = sorted(segmented.interactions, key=lambda e: e.start)
    for event, truth in zip(recovered, result.schedule_truth):
        assert abs(event.start - truth.scripted_start) <= interval
        assert abs(event.end - truth.scripted_end) <= interval
        assert event.start == truth.first_frame
        assert event.end == truth.last_frame


def test_schedule_outside_coverage_rejected():
    with pytest.raises(SynthConfigError, match="coverage"):
        SynthConfig(
            schedule=(ScheduledInteraction(0, 0, time(7, 0), time(7, 30)),),
        )


def test_schedule_beyond_days_rejected():
    with pytest.raises(SynthConfigError):
        SynthConfig(
            n_days=1,
            schedule=(ScheduledInteraction(0, 3, time(10, 0), time(10, 30)),),
        )


def test_unknown_identity_rejected():
    with pytest.raises(SynthConfigError):
        SynthConfig(
            n_identities=2,
            schedule=(ScheduledInteraction(5, 0, time(10, 0), time(10, 30)),),
        )


# A config that sets every field away from its default, and the text
# dump_config writes for it.
_EVERY_FIELD = SynthConfig(
    seed=11,
    n_days=2,
    n_identities=3,
    identity_center_spread=0.4,
    within_person_noise=0.05,
    frame_interval_seconds=(4.0, 6.5),
    schedule=(
        ScheduledInteraction(2, 1, time(8, 30, 15), time(8, 50)),
        ScheduledInteraction(0, 0, time(12, 0), time(12, 20, 30)),
    ),
    dropout_rate=0.125,
    coverage_start=time(8, 15, 30),
    coverage_end=time(20, 45),
    wearer_id="wearer-\u00e97",
    base_day=date(2023, 12, 31),
)
_EVERY_FIELD_DUMP = """\
{
  "base_day": "2023-12-31",
  "coverage_end": "20:45:00",
  "coverage_start": "08:15:30",
  "dropout_rate": 0.125,
  "frame_interval_seconds": [
    4.0,
    6.5
  ],
  "identity_center_spread": 0.4,
  "n_days": 2,
  "n_identities": 3,
  "schedule": [
    {
      "day": 1,
      "end": "08:50:00",
      "identity": 2,
      "start": "08:30:15"
    },
    {
      "day": 0,
      "end": "12:20:30",
      "identity": 0,
      "start": "12:00:00"
    }
  ],
  "seed": 11,
  "wearer_id": "wearer-\\u00e97",
  "within_person_noise": 0.05
}
"""


def test_config_dict_round_trip():
    assert all(
        getattr(_EVERY_FIELD, f.name) != f.default
        for f in fields(SynthConfig)
        if f.default is not MISSING
    )
    text = dump_config(_EVERY_FIELD)
    assert text == _EVERY_FIELD_DUMP
    assert config_from_dict(json.loads(text)) == _EVERY_FIELD
    assert config_from_dict(config_to_dict(_EVERY_FIELD)) == _EVERY_FIELD


def test_spread_controls_center_distances():
    near = generate(
        SynthConfig(seed=2, n_identities=5, identity_center_spread=0.05,
                    schedule=_hourly_schedule(5), within_person_noise=0.0)
    )
    far = generate(
        SynthConfig(seed=2, n_identities=5, identity_center_spread=1.0,
                    schedule=_hourly_schedule(5), within_person_noise=0.0)
    )

    def mean_center_gap(result):
        X = result.dataset.descriptor_matrix()
        labels = [result.truth.labels[o.key] for o in result.dataset.observations]
        centers = {}
        for lab in set(labels):
            centers[lab] = X[[i for i, l in enumerate(labels) if l == lab]][0]
        mats = list(centers.values())
        gaps = [
            np.linalg.norm(a - b) for i, a in enumerate(mats) for b in mats[i + 1:]
        ]
        return float(np.mean(gaps))

    assert mean_center_gap(near) < mean_center_gap(far)
