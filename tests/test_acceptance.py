"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Every expected value is either derived from an
independent oracle in ``oracles.py`` or fixed by the documented defaults;
nothing here is tuned to the implementation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import resource
import time as systime
from datetime import time, timedelta
from pathlib import Path

import numpy as np
import pytest

from egosocial.cli import main
from egosocial.clustering import (
    AhcParams,
    ahc_average_linkage,
    cluster_ahc,
    clustering_from_clusters,
    clustering_from_labels,
    compute_distances,
)
from egosocial.consistency import (
    STATUS_PRUNED,
    STATUS_REJECTED,
    STATUS_ROBUST,
    apply_consistency,
    cluster_mean_correlation,
    pearson,
)
from egosocial.evaluation import GroundTruth, pairwise_prf
from egosocial.ingest import Dataset, FaceObservation
from egosocial.profile import build_profiles, compute_traits
from egosocial.render import radar_spec_from_profiles, render_radar, render_table
from egosocial.segmentation import (
    SegmentationParams,
    daily_interaction_timeline,
    segment,
)
from egosocial.synth import ScheduledInteraction, SynthConfig, config_to_dict, generate

import conftest
from conftest import at, dataset_from_matrix, pad128
from oracles import (
    naive_average_linkage,
    parse_radar,
    parse_rendered_table,
    partition_of,
    pearson_highprec,
    prf_pair_loop,
)
from test_consistency import _mixed_cluster_matrix, correlated_members


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:2d} FAIL  {description}")
                raise
            print(f"\nACCEPTANCE {number:2d} PASS  {description}")

        return inner

    return wrap


@criterion(1, "pearson matches a high-precision oracle; affine-invariant; < 1 s")
def test_criterion_1_pearson_oracle():
    rng = np.random.default_rng(101)
    pairs = []
    while len(pairs) < 1000:
        n = int(rng.integers(2, 129))
        x = rng.standard_normal(n) * rng.uniform(0.1, 30)
        y = rng.standard_normal(n) * rng.uniform(0.1, 30)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        pairs.append((x, y, float(rng.uniform(0.1, 10)), float(rng.uniform(-50, 50))))

    start = systime.perf_counter()
    results = [pearson(x, y) for x, y, _, _ in pairs]
    affine = [pearson(a * x + b, y) for x, y, a, b in pairs]
    elapsed = systime.perf_counter() - start

    for (x, y, _, _), r, ra in zip(pairs, results, affine):
        assert abs(r - pearson_highprec(x, y)) < 1e-9
        assert abs(ra - r) < 1e-9
    assert elapsed < 1.0, f"2000 pearson evaluations took {elapsed:.3f}s"


@criterion(2, "average-linkage equals the naive O(n^3) oracle on 200 instances; < 5 s")
def test_criterion_2_ahc_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = systime.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 11))
        X = rng.standard_normal((n, int(rng.integers(2, 16))))
        X = pad128(*X)
        dist = compute_distances(X, metric="euclidean", normalize=False)
        off = dist.entries[np.triu_indices(n, k=1)] if n > 1 else np.array([1.0])
        cut = float(rng.uniform(0.3, 1.7) * np.median(off))
        params = AhcParams(metric="euclidean", cut_threshold=max(cut, 1e-9),
                           normalize_descriptors=False)
        ours = partition_of(ahc_average_linkage(dist, params))
        ref = naive_average_linkage(dist.entries, params.cut_threshold)
        assert ours == ref
    elapsed = systime.perf_counter() - start
    assert elapsed < 5.0, f"200 oracle comparisons took {elapsed:.3f}s"


@criterion(3, "consistency filter: 0.8 robust, 0.4 reject, 0.70 member floor; idempotent")
def test_criterion_3_consistency_laws():
    rng = np.random.default_rng(303)

    # m >= 0.8: untouched
    X = correlated_members(rng, 5, 0.9)
    dataset = dataset_from_matrix(X)
    whole = clustering_from_clusters([list(range(5))], 5, "ahc", {})
    filtered, report = apply_consistency(whole, dataset)
    assert report.verdicts[0].status == STATUS_ROBUST
    assert filtered.clusters == ((0, 1, 2, 3, 4),)

    # m < 0.4: rejected outright
    X = correlated_members(rng, 5, 0.25)
    dataset = dataset_from_matrix(X)
    filtered, report = apply_consistency(whole, dataset)
    assert report.verdicts[0].status == STATUS_REJECTED
    assert filtered.clusters == ()
    assert filtered.discarded == (0, 1, 2, 3, 4)

    # middle band: exactly the planted low-correlation member pruned
    X = _mixed_cluster_matrix(rng)
    dataset = dataset_from_matrix(X)
    mean_r = cluster_mean_correlation(X)
    assert 0.4 <= mean_r < 0.8
    rest = [pearson(X[4], X[j]) for j in range(4)]
    assert sum(rest) / 4 < 0.70
    filtered, report = apply_consistency(whole, dataset)
    assert report.verdicts[0].status == STATUS_PRUNED
    assert report.verdicts[0].removed_members == (4,)
    assert filtered.clusters == ((0, 1, 2, 3),)

    # idempotence
    again, _ = apply_consistency(filtered, dataset)
    assert again.clusters == filtered.clusters
    assert again.discarded == filtered.discarded


@criterion(4, "segmentation: 1.5 min -> none; 10 min gap -> one event; 25 min gap -> two")
def test_criterion_4_segmentation_laws():
    from test_segmentation import _dataset_and_clustering, every_30s

    params = SegmentationParams()  # defaults: 3 min floor, 15 min gap

    stamps = [at(9, 0, 0), at(9, 0, 30), at(9, 1, 0), at(9, 1, 30)]
    dataset, clustering = _dataset_and_clustering([stamps])
    assert segment(clustering, dataset, params).interactions == ()

    stamps = every_30s(at(10, 0), at(10, 5)) + every_30s(at(10, 15), at(10, 20))
    dataset, clustering = _dataset_and_clustering([stamps])
    events = segment(clustering, dataset, params).interactions
    assert len(events) == 1
    assert events[0].start == at(10, 0) and events[0].end == at(10, 20)
    assert events[0].duration_minutes == 20.0

    stamps = every_30s(at(10, 0), at(10, 5)) + every_30s(at(10, 30), at(10, 36))
    dataset, clustering = _dataset_and_clustering([stamps])
    events = segment(clustering, dataset, params).interactions
    assert [e.duration_minutes for e in events] == [5.0, 6.0]


@criterion(5, "traits equal the schedule-truth tally within 1e-9 min; alone+merged = coverage")
def test_criterion_5_trait_oracle():
    from oracles import traits_tally

    schedule = []
    for day in range(7):
        schedule.append(ScheduledInteraction(0, day, time(9, 30), time(9, 40)))
        if day % 2 == 0:
            schedule.append(ScheduledInteraction(1, day, time(11, 0), time(11, 20)))
            # overlapping second person, exercises the merged timeline
            schedule.append(ScheduledInteraction(2, day, time(11, 10), time(11, 30)))
        if day == 3:
            schedule.append(ScheduledInteraction(0, day, time(16, 0), time(16, 6)))
    config = SynthConfig(
        seed=55,
        n_days=7,
        n_identities=3,
        within_person_noise=0.0,
        dropout_rate=0.0,
        frame_interval_seconds=(30.0, 30.0),  # dyadic minutes: exact arithmetic
        schedule=tuple(schedule),
    )
    synth = generate(config)

    clustering = cluster_ahc(synth.dataset.observations, AhcParams())
    filtered, _ = apply_consistency(clustering, synth.dataset)
    segmented = segment(filtered, synth.dataset, SegmentationParams())
    traits = compute_traits(
        segmented.interactions, synth.dataset.coverage.values(), "wearer-0"
    )

    coverage_by_day = {c.day: c for (_, _), c in
                      [(k, v) for k, v in synth.dataset.coverage.items()]}
    tally = traits_tally(synth.schedule_truth, coverage_by_day)
    assert abs(traits.persons_per_day - tally["persons_per_day"]) < 1e-9
    assert abs(traits.interactions_per_day - tally["interactions_per_day"]) < 1e-9
    assert abs(traits.minutes_per_interaction - tally["minutes_per_interaction"]) < 1e-9
    assert abs(traits.minutes_per_person - tally["minutes_per_person"]) < 1e-9
    assert abs(traits.minutes_alone_per_day - tally["minutes_alone_per_day"]) < 1e-9

    # exact per-day conservation: alone + merged timeline = coverage
    for (wearer, day), cov in synth.dataset.coverage.items():
        merged = daily_interaction_timeline(segmented.interactions, wearer, day)
        occupied = sum((e - s).total_seconds() / 60.0 for s, e in merged)
        alone = cov.duration_minutes - occupied
        assert alone + occupied == cov.duration_minutes


def _benchmark_config(seed: int, noise: float, dropout: float = 0.05) -> SynthConfig:
    """20 identities across a 2-day window, one event each."""
    schedule = []
    for ident in range(20):
        day = ident % 2
        hour = 9 + (ident // 2)
        schedule.append(
            ScheduledInteraction(ident, day, time(hour, 0), time(hour, 8))
        )
    return SynthConfig(
        seed=seed,
        n_days=2,
        n_identities=20,
        within_person_noise=noise,
        dropout_rate=dropout,
        schedule=tuple(schedule),
    )


def _pipeline_f(config: SynthConfig) -> float:
    synth = generate(config)
    clustering = cluster_ahc(synth.dataset.observations, AhcParams())
    filtered, _ = apply_consistency(clustering, synth.dataset)
    return pairwise_prf(filtered, synth.dataset, synth.truth).f_measure


@criterion(6, "20-identity benchmark: F >= 0.90 at low noise; mean F non-increasing in noise")
def test_criterion_6_end_to_end_recovery():
    start = systime.perf_counter()
    f_low = _pipeline_f(_benchmark_config(seed=606, noise=0.02, dropout=0.05))
    assert f_low >= 0.90, f"pairwise F {f_low:.4f} below 0.90"

    noise_levels = [0.02, 0.12, 0.25, 0.4, 0.6]
    seeds = range(20)
    means = []
    for noise in noise_levels:
        scores = [
            _pipeline_f(_benchmark_config(seed=1000 + s, noise=noise)) for s in seeds
        ]
        means.append(sum(scores) / len(scores))
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a + 1e-12)
    assert inversions <= 1, f"mean F {means} not monotone (inversions={inversions})"
    elapsed = systime.perf_counter() - start
    assert elapsed < 60.0, f"benchmark took {elapsed:.1f}s"


@criterion(7, "pair-count identities and relabeling invariance on 100 random clusterings")
def test_criterion_7_pair_count_identities():
    from math import comb

    rng = np.random.default_rng(707)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        true = [f"t{v}" for v in rng.integers(0, 6, size=n)]
        pred = rng.integers(0, 6, size=n)
        dataset = dataset_from_matrix(rng.standard_normal((n, 128)))
        truth = GroundTruth(labels={o.key: t for o, t in zip(dataset.observations, true)})
        clustering = clustering_from_labels(pred, "ahc", {})
        report = pairwise_prf(clustering, dataset, truth)

        cluster_pairs = sum(comb(len(m), 2) for m in clustering.clusters)
        sizes: dict[str, int] = {}
        for t in true:
            sizes[t] = sizes.get(t, 0) + 1
        class_pairs = sum(comb(s, 2) for s in sizes.values())
        assert report.tp + report.fp == cluster_pairs
        assert report.tp + report.fn == class_pairs

        oracle = prf_pair_loop(pred.tolist(), true)
        assert (report.tp, report.fp, report.fn) == (
            oracle["tp"], oracle["fp"], oracle["fn"],
        )

        # relabeling invariance
        perm = {v: f"z{9 - v}" for v in range(10)}
        renamed = GroundTruth(
            labels={o.key: perm[int(t[1:])] for o, t in zip(dataset.observations, true)}
        )
        shifted = clustering_from_labels(pred + 17, "ahc", {})
        again = pairwise_prf(shifted, dataset, renamed)
        assert (again.tp, again.fp, again.fn) == (report.tp, report.fp, report.fn)


@criterion(8, "pipeline rerun produces a byte-identical artifact tree")
def test_criterion_8_pipeline_determinism(tmp_path):
    config = SynthConfig(
        seed=808,
        n_days=2,
        n_identities=5,
        dropout_rate=0.05,
        schedule=tuple(
            ScheduledInteraction(i, i % 2, time(9 + i, 0), time(9 + i, 10))
            for i in range(5)
        ),
    )
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(config_to_dict(config)))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0

    def run(out: Path) -> dict[str, str]:
        rc = main(
            [
                "pipeline",
                "--obs", str(data / "observations.jsonl"),
                "--coverage", str(data / "coverage.jsonl"),
                "--truth", str(data / "truth.jsonl"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        return {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    tree1 = run(tmp_path / "run1")
    tree2 = run(tmp_path / "run2")
    assert tree1 == tree2
    assert any(name.endswith(".svg") for name in tree1)


@criterion(9, "5,000-observation clustering under 10 s and 1 GB")
def test_criterion_9_performance():
    rng = np.random.default_rng(909)
    n, k = 5000, 40
    centers = rng.standard_normal((k, 128))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    X = centers[rng.integers(0, k, size=n)] + 0.03 * rng.standard_normal((n, 128))

    start = systime.perf_counter()
    dist = compute_distances(X, metric="euclidean", normalize=True)
    clustering = ahc_average_linkage(dist, AhcParams(cut_threshold=0.9))
    elapsed = systime.perf_counter() - start

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert clustering.n_observations == n
    assert elapsed < 10.0, f"clustering took {elapsed:.1f}s"
    assert peak_mb < 1024.0, f"peak memory {peak_mb:.0f} MB"


@criterion(10, "table and radar renderings parse back to their inputs")
def test_criterion_10_rendering_round_trip():
    import re

    from egosocial.profile import SocialTraits

    reference = SocialTraits(
        wearer_id="user-1",
        persons_per_day=9,
        interactions_per_day=12,
        minutes_per_interaction=12,
        minutes_per_person=12,
        minutes_alone_per_day=503,
        days_analyzed=7,
    )
    table = render_table([reference])
    row = re.sub(r" +", " ", table.splitlines()[2]).strip()
    assert row == "user-1 | 9 | 12 | 12 | 12 | 8h 23m"

    rng = np.random.default_rng(1010)
    cohort = [
        SocialTraits(
            wearer_id=f"w{i}",
            persons_per_day=float(rng.uniform(0, 15)),
            interactions_per_day=float(rng.uniform(0, 25)),
            minutes_per_interaction=float(rng.uniform(1, 60)),
            minutes_per_person=float(rng.uniform(1, 60)),
            minutes_alone_per_day=float(rng.uniform(0, 1000)),
            days_analyzed=7,
        )
        for i in range(4)
    ]
    parsed_rows = parse_rendered_table(render_table(cohort))
    by_wearer = {r["wearer_id"]: r for r in parsed_rows}
    for t in cohort:
        got = by_wearer[t.wearer_id]
        assert abs(got["persons_per_day"] - t.persons_per_day) <= 0.005
        assert abs(got["interactions_per_day"] - t.interactions_per_day) <= 0.005
        assert abs(got["minutes_per_interaction"] - t.minutes_per_interaction) <= 0.005
        assert abs(got["minutes_per_person"] - t.minutes_per_person) <= 0.005
        assert abs(got["minutes_alone_per_day"] - t.minutes_alone_per_day) <= 0.5

    profiles = build_profiles(cohort, provenance="acceptance")
    svg = render_radar(radar_spec_from_profiles(profiles))
    parsed = parse_radar(svg)
    for profile in profiles:
        got = parsed["series"][profile.traits.wearer_id]
        for g, want in zip(got, profile.normalized_axes):
            assert abs(g - want) < 1e-6
