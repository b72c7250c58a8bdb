from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    DAY,
    assert_read_as_the_oracle,
    at,
    content_line_count,
    edit_lines,
    line_edits,
    two_field_edits,
)
from egosocial.clustering import clustering_from_clusters
from egosocial.ingest import Dataset, FaceObservation, IngestError
from egosocial.segmentation import (
    Interaction,
    SegmentationParams,
    daily_interaction_timeline,
    parse_interactions,
    segment,
    serialize_interactions,
)
from oracles import naive_interactions_fault, occupancy_minutes


def _obs_at(stamps, wearer="u1", cluster_prefix="img"):
    """Observations at explicit timestamps, all with the same descriptor."""
    out = []
    for i, ts in enumerate(stamps):
        out.append(
            FaceObservation(
                wearer_id=wearer,
                day=ts.date(),
                timestamp=ts,
                image_id=f"{cluster_prefix}-{i:05d}",
                face_index=0,
                descriptor=np.zeros(128) + 1.0,
            )
        )
    return out


def _dataset_and_clustering(stamp_groups, wearer="u1"):
    """One cluster per stamp group, observations interleaved by time."""
    all_obs = []
    groups_members = []
    for g, stamps in enumerate(stamp_groups):
        obs = _obs_at(stamps, wearer=wearer, cluster_prefix=f"g{g}")
        all_obs.extend(obs)
    order = sorted(range(len(all_obs)), key=lambda i: (all_obs[i].wearer_id, all_obs[i].timestamp, all_obs[i].image_id))
    ordered_obs = [all_obs[i] for i in order]
    pos = {id(o): i for i, o in enumerate(ordered_obs)}
    cursor = 0
    for g, stamps in enumerate(stamp_groups):
        members = []
        for o in all_obs[cursor : cursor + len(stamps)]:
            members.append(pos[id(o)])
        cursor += len(stamps)
        groups_members.append(sorted(members))
    dataset = Dataset(tuple(ordered_obs), {})
    clustering = clustering_from_clusters(
        groups_members, len(ordered_obs), "ahc", {}
    )
    return dataset, clustering


def every_30s(start, end):
    out = []
    t = start
    while t <= end:
        out.append(t)
        t += timedelta(seconds=30)
    return out


def test_short_run_produces_no_interaction():
    stamps = [at(9, 0, 0), at(9, 0, 30), at(9, 1, 0), at(9, 1, 30)]
    dataset, clustering = _dataset_and_clustering([stamps])
    result = segment(clustering, dataset)
    assert result.interactions == ()
    assert result.sub_event_runs == 1


def test_gap_below_max_bridges_into_one_event():
    stamps = every_30s(at(10, 0), at(10, 5)) + every_30s(at(10, 15), at(10, 20))
    dataset, clustering = _dataset_and_clustering([stamps])
    result = segment(clustering, dataset)
    assert len(result.interactions) == 1
    event = result.interactions[0]
    assert event.start == at(10, 0)
    assert event.end == at(10, 20)
    assert event.duration_minutes == 20.0


def test_gap_above_max_splits_into_two_events():
    stamps = every_30s(at(10, 0), at(10, 5)) + every_30s(at(10, 30), at(10, 36))
    dataset, clustering = _dataset_and_clustering([stamps])
    result = segment(clustering, dataset)
    assert len(result.interactions) == 2
    first, second = result.interactions
    assert first.duration_minutes == 5.0
    assert second.duration_minutes == 6.0


def test_gap_exactly_max_still_bridges():
    stamps = [at(10, 0), at(10, 3), at(10, 18)]  # 15-minute gap, inclusive bound
    dataset, clustering = _dataset_and_clustering([stamps])
    result = segment(clustering, dataset)
    assert len(result.interactions) == 1
    assert result.interactions[0].duration_minutes == 18.0


def test_span_exactly_minimum_kept():
    stamps = [at(10, 0), at(10, 1, 30), at(10, 3)]
    dataset, clustering = _dataset_and_clustering([stamps])
    result = segment(clustering, dataset)
    assert len(result.interactions) == 1


def test_events_never_cross_day_boundary():
    day2 = DAY + timedelta(days=1)
    stamps = [at(23, 58), at(0, 3, day=day2)]
    dataset, clustering = _dataset_and_clustering([stamps])
    result = segment(clustering, dataset, SegmentationParams(min_event_minutes=1.0))
    # each day holds a single instant: zero span, below any positive minimum
    assert result.interactions == ()
    assert result.sub_event_runs == 2


def test_discarded_pool_never_produces_interactions():
    stamps = every_30s(at(10, 0), at(10, 10))
    dataset, clustering = _dataset_and_clustering([stamps])
    discarded_all = clustering_from_clusters(
        [], len(dataset.observations), "ahc", {}, discarded=tuple(range(len(dataset.observations)))
    )
    result = segment(discarded_all, dataset)
    assert result.interactions == ()


def test_order_invariance(rng):
    stamps = every_30s(at(9, 0), at(9, 10)) + every_30s(at(11, 0), at(11, 20))
    dataset, clustering = _dataset_and_clustering([stamps])
    base = segment(clustering, dataset)
    # same timestamp multiset, different member order inside the cluster
    shuffled_members = list(clustering.clusters[0])
    rng.shuffle(shuffled_members)
    relisted = clustering_from_clusters(
        [sorted(shuffled_members)], len(dataset.observations), "ahc", {}
    )
    again = segment(relisted, dataset)
    assert again.interactions == base.interactions


def test_shrinking_max_gap_never_lengthens_events():
    stamps = every_30s(at(10, 0), at(10, 5)) + every_30s(at(10, 15), at(10, 20))
    dataset, clustering = _dataset_and_clustering([stamps])
    wide = segment(clustering, dataset, SegmentationParams(3.0, 15.0))
    narrow = segment(clustering, dataset, SegmentationParams(3.0, 5.0))
    assert max(e.duration_minutes for e in wide.interactions) >= max(
        e.duration_minutes for e in narrow.interactions
    )
    assert len(narrow.interactions) == 2


def test_maximal_runs():
    params = SegmentationParams(3.0, 15.0)
    stamps = every_30s(at(10, 0), at(10, 5)) + every_30s(at(10, 30), at(10, 36))
    dataset, clustering = _dataset_and_clustering([stamps])
    result = segment(clustering, dataset, params)
    gap = timedelta(minutes=params.max_gap_minutes)
    all_ts = sorted(o.timestamp for o in dataset.observations)
    for event in result.interactions:
        before = [t for t in all_ts if t < event.start]
        after = [t for t in all_ts if t > event.end]
        if before:
            assert event.start - max(before) > gap
        if after:
            assert min(after) - event.end > gap


# --- timeline union ---------------------------------------------------------------


def _interaction(wearer, cluster, start, end):
    return Interaction(
        wearer_id=wearer,
        person_cluster_id=cluster,
        day=start.date(),
        start=start,
        end=end,
        observation_count=2,
    )


def test_overlapping_intervals_merge():
    events = [
        _interaction("u1", 0, at(10, 0), at(10, 20)),
        _interaction("u1", 1, at(10, 10), at(10, 30)),
    ]
    merged = daily_interaction_timeline(events, "u1", DAY)
    assert merged == ((at(10, 0), at(10, 30)),)


def test_disjoint_intervals_untouched():
    events = [
        _interaction("u1", 0, at(9, 0), at(9, 10)),
        _interaction("u1", 1, at(11, 0), at(11, 5)),
    ]
    merged = daily_interaction_timeline(events, "u1", DAY)
    assert merged == ((at(9, 0), at(9, 10)), (at(11, 0), at(11, 5)))


def test_random_intervals_match_minute_occupancy_oracle(rng):
    for _ in range(10):
        events = []
        for c in range(5):
            start_min = int(rng.integers(0, 500))
            length = int(rng.integers(1, 120))
            start = at(0, 0) + timedelta(minutes=start_min)
            end = start + timedelta(minutes=length)
            events.append(_interaction("u1", c, start, end))
        merged = daily_interaction_timeline(events, "u1", DAY)
        total = sum((e - s).total_seconds() / 60.0 for s, e in merged)
        oracle = occupancy_minutes(
            [(e.start, e.end) for e in events], at(0, 0), 24 * 60
        )
        assert total == oracle


def test_merged_total_bounded_by_sum():
    events = [
        _interaction("u1", 0, at(10, 0), at(10, 20)),
        _interaction("u1", 1, at(10, 10), at(10, 30)),
        _interaction("u1", 2, at(12, 0), at(12, 15)),
    ]
    merged = daily_interaction_timeline(events, "u1", DAY)
    total = sum((e - s).total_seconds() / 60.0 for s, e in merged)
    individual = sum(e.duration_minutes for e in events)
    assert total <= individual
    disjoint = daily_interaction_timeline(events[2:], "u1", DAY)
    assert sum((e - s).total_seconds() / 60.0 for s, e in disjoint) == 15.0


def test_serialization_round_trip():
    events = (
        _interaction("u1", 0, at(10, 0), at(10, 20)),
        _interaction("u1", 1, at(11, 0), at(11, 30)),
    )
    text = serialize_interactions(events)
    assert parse_interactions(text) == events


_INTERACTION_FIELDS = ("wearer_id", "person_cluster_id", "day", "start", "end", "observation_count")


_NEXT_DAY = DAY + timedelta(days=1)
_INTERACTION_LINES = serialize_interactions(
    [
        _interaction("u1", 0, at(9, 0), at(9, 20)),
        _interaction("u1", 1, at(10, 0), at(10, 5)),
        _interaction("u2", 0, at(14, 0), at(14, 30)),
        _interaction("u2", 2, at(16, 0, day=_NEXT_DAY), at(16, 9, day=_NEXT_DAY)),
    ]
).splitlines()


@settings(max_examples=300, deadline=None)
@given(
    edits=line_edits(
        ("wearer_id", "person_cluster_id", "day", "start", "end", "observation_count")
    )
)
def test_interactions_reader_rejects_as_the_line_by_line_oracle(edits):
    lines = edit_lines(_INTERACTION_LINES, edits)
    expected = naive_interactions_fault(lines)
    if expected is None:
        assert len(parse_interactions("\n".join(lines))) == content_line_count(lines)
        return
    with pytest.raises(IngestError) as info:
        parse_interactions("\n".join(lines))
    line_no, message = expected
    assert (str(info.value), info.value.line_no) == (f"line {line_no}: {message}", line_no)


def test_interactions_reader_rejects_two_faults_on_a_line_as_the_oracle():
    for lines in two_field_edits(_INTERACTION_LINES, _INTERACTION_FIELDS):
        assert_read_as_the_oracle(parse_interactions, naive_interactions_fault, lines)


@pytest.mark.parametrize("value", [None, 7, True, [1, 2]], ids=["null", "int", "bool", "list"])
def test_interaction_wearer_id_must_be_a_string(value):
    lines = edit_lines(_INTERACTION_LINES, [(1, ("set", "wearer_id", value))])
    with pytest.raises(IngestError) as info:
        parse_interactions("\n".join(lines))
    assert (str(info.value), info.value.line_no) == ("line 2: wearer_id must be a string", 2)


@pytest.mark.parametrize(
    "edit, message",
    [
        (("set", "start", "2024-03-04T21:00:00Z"), "interaction start must not exceed end"),
        (("set", "day", "2024-03-05"), "interaction must lie within its day"),
        (("set", "end", "2024-03-05T01:00:00+00:00"), "interaction must lie within its day"),
    ],
)
def test_interaction_record_out_of_order_or_off_its_day_rejected(edit, message):
    lines = edit_lines(_INTERACTION_LINES, [(1, edit)])
    assert naive_interactions_fault(lines) == (2, message)
    with pytest.raises(IngestError) as info:
        parse_interactions("\n".join(lines))
    assert (str(info.value), info.value.line_no) == (f"line 2: {message}", 2)


def test_params_validated():
    with pytest.raises(ValueError):
        SegmentationParams(min_event_minutes=0.0)
    with pytest.raises(ValueError):
        SegmentationParams(max_gap_minutes=-1.0)


@pytest.mark.parametrize("field", ["min_event_minutes", "max_gap_minutes"])
@pytest.mark.parametrize("minutes", [float("inf"), 1e300, 1.44e12])
def test_params_beyond_the_longest_duration_rejected(field, minutes):
    with pytest.raises(ValueError, match=f"^{field} exceeds the longest duration, got "):
        SegmentationParams(**{field: minutes})


def test_params_up_to_the_longest_duration_segment():
    longest = float(timedelta.max.days * 24 * 60)
    dataset, clustering = _dataset_and_clustering([[at(9, 0), at(9, 10)]])
    result = segment(clustering, dataset, SegmentationParams(longest, longest))
    assert (len(result.interactions), result.sub_event_runs) == (0, 1)
