from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from conftest import DAY, at
from egosocial import cli
from egosocial.ingest import DayCoverage
from egosocial.profile import (
    MissingCoverageError,
    SocialTraits,
    build_profiles,
    compute_traits,
)
from egosocial.segmentation import Interaction


def _cov(day=DAY, start_h=9, end_h=17, wearer="u1"):
    return DayCoverage(
        wearer_id=wearer,
        day=day,
        start=at(start_h, day=day),
        end=at(end_h, day=day),
    )


def _event(cluster, start, end, wearer="u1"):
    return Interaction(
        wearer_id=wearer,
        person_cluster_id=cluster,
        day=start.date(),
        start=start,
        end=end,
        observation_count=5,
    )


def test_single_event_arithmetic():
    events = [_event(0, at(10, 0), at(10, 12))]
    traits = compute_traits(events, [_cov()], "u1")
    assert traits.persons_per_day == 1.0
    assert traits.interactions_per_day == 1.0
    assert traits.minutes_per_interaction == 12.0
    assert traits.minutes_per_person == 12.0
    assert traits.minutes_alone_per_day == 468.0
    assert traits.days_analyzed == 1
    assert not traits.no_interactions


def test_zero_interaction_day():
    traits = compute_traits([], [_cov(start_h=9, end_h=17)], "u1")
    assert traits.persons_per_day == 0.0
    assert traits.interactions_per_day == 0.0
    assert traits.minutes_per_interaction == 0.0
    assert traits.minutes_per_person == 0.0
    assert traits.minutes_alone_per_day == 480.0
    assert traits.no_interactions


def test_scripted_week_matches_per_day_tally():
    days = [DAY + timedelta(days=i) for i in range(7)]
    coverage = [_cov(day=d, start_h=9, end_h=18) for d in days]
    events = []
    # two people on day 0, overlapping; one person on day 1; quiet rest of week
    events.append(_event(0, at(10, 0, day=days[0]), at(10, 30, day=days[0])))
    events.append(_event(1, at(10, 15, day=days[0]), at(10, 45, day=days[0])))
    events.append(_event(0, at(14, 0, day=days[1]), at(14, 20, day=days[1])))
    traits = compute_traits(events, coverage, "u1")

    # brute-force per-day tally
    assert traits.persons_per_day == pytest.approx((2 + 1) / 7, abs=1e-12)
    assert traits.interactions_per_day == pytest.approx(3 / 7, abs=1e-12)
    assert traits.minutes_per_interaction == pytest.approx((30 + 30 + 20) / 3, abs=1e-12)
    # day 0: 60 min over 2 persons; day 1: 20 min over 1 person
    assert traits.minutes_per_person == pytest.approx((60 / 2 + 20 / 1) / 2, abs=1e-12)
    # merged time day 0: 10:00-10:45 = 45 min; day 1: 20 min; 5 idle days
    expected_alone = ((540 - 45) + (540 - 20) + 5 * 540) / 7
    assert traits.minutes_alone_per_day == pytest.approx(expected_alone, abs=1e-12)


def test_minutes_per_interaction_identity():
    events = [
        _event(0, at(10, 0), at(10, 7)),
        _event(1, at(12, 0), at(12, 21)),
        _event(0, at(15, 0), at(15, 5)),
    ]
    traits = compute_traits(events, [_cov()], "u1")
    total = sum(e.duration_minutes for e in events)
    assert abs(traits.minutes_per_interaction - total / 3) < 1e-9


def test_alone_plus_merged_equals_coverage():
    day2 = DAY + timedelta(days=1)
    coverage = [_cov(), _cov(day=day2)]
    events = [
        _event(0, at(10, 0), at(10, 30)),
        _event(1, at(10, 15), at(10, 40)),
        _event(2, at(13, 0, day=day2), at(13, 10, day=day2)),
    ]
    traits = compute_traits(events, coverage, "u1")
    merged_day1 = 40.0
    merged_day2 = 10.0
    cov_minutes = 480.0
    assert traits.minutes_alone_per_day * 2 + merged_day1 + merged_day2 == 2 * cov_minutes


def test_simultaneous_people_not_double_subtracted():
    events = [
        _event(0, at(10, 0), at(11, 0)),
        _event(1, at(10, 0), at(11, 0)),
    ]
    traits = compute_traits(events, [_cov()], "u1")
    assert traits.minutes_alone_per_day == 480.0 - 60.0


def test_interaction_without_coverage_rejected():
    events = [_event(0, at(10, 0), at(10, 12))]
    with pytest.raises(MissingCoverageError):
        compute_traits(events, [_cov(day=DAY + timedelta(days=1))], "u1")


def test_no_coverage_at_all_rejected():
    with pytest.raises(MissingCoverageError):
        compute_traits([], [], "u1")


# --- profiles ---------------------------------------------------------------------


def _traits(wearer, p, i, ti, tp, alone):
    return SocialTraits(
        wearer_id=wearer,
        persons_per_day=p,
        interactions_per_day=i,
        minutes_per_interaction=ti,
        minutes_per_person=tp,
        minutes_alone_per_day=alone,
        days_analyzed=7,
    )


def test_single_wearer_all_axes_mid():
    profiles = build_profiles([_traits("u1", 9, 12, 12, 12, 503)], provenance="test")
    assert profiles[0].normalized_axes == (0.5, 0.5, 0.5, 0.5, 0.5)


def test_two_wearer_minmax_endpoints():
    profiles = build_profiles(
        [_traits("u1", 3, 5, 10, 10, 400), _traits("u2", 9, 5, 10, 10, 200)],
        provenance="test",
    )
    by_wearer = {p.traits.wearer_id: p for p in profiles}
    assert by_wearer["u1"].normalized_axes[0] == 0.0
    assert by_wearer["u2"].normalized_axes[0] == 1.0
    # tied axes sit mid-scale
    assert by_wearer["u1"].normalized_axes[1] == 0.5
    # more alone time -> lower sociality
    assert by_wearer["u1"].normalized_axes[4] == 0.0
    assert by_wearer["u2"].normalized_axes[4] == 1.0


def test_cohort_ranks_preserved():
    cohort = [
        _traits("u1", 9, 12, 12, 12, 503),
        _traits("u2", 7, 10, 17, 17, 952),
        _traits("u3", 3, 4, 21, 21, 699),
        _traits("u4", 5, 6, 15, 15, 462),
    ]
    profiles = build_profiles(cohort, provenance="test")
    for axis in range(4):
        raw = [t.axis_values()[axis] for t in cohort]
        scaled = [p.normalized_axes[axis] for p in profiles]
        assert np.argsort(raw).tolist() == np.argsort(scaled).tolist()
    # inverted axis reverses the alone-time order
    alone = [t.minutes_alone_per_day for t in cohort]
    sociality = [p.normalized_axes[4] for p in profiles]
    assert np.argsort(alone).tolist() == np.argsort(sociality).tolist()[::-1]


def test_axes_within_unit_interval():
    cohort = [
        _traits("u1", 9, 12, 12, 12, 503),
        _traits("u2", 7, 10, 17, 17, 952),
        _traits("u3", 3, 4, 21, 21, 699),
    ]
    for p in build_profiles(cohort, provenance="x"):
        assert all(0.0 <= v <= 1.0 for v in p.normalized_axes)


def test_empty_cohort_rejected():
    with pytest.raises(ValueError):
        build_profiles([], provenance="x")


def test_traits_round_trip_dict(tmp_path):
    t = _traits("u1", 9, 12, 12, 12, 503)
    path = tmp_path / "traits.json"
    cli._write_json(path, {"provenance": {"fingerprint": "f"}, "wearers": [t]})
    assert cli._read_traits(path) == ([t], "f")
