from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import egosocial.consistency as consistency
from conftest import dataset_from_matrix, pad128
from egosocial.cli import _write_clustering
from egosocial.clustering import clustering_from_clusters
from egosocial.consistency import (
    STATUS_PRUNED,
    STATUS_REJECTED,
    STATUS_ROBUST,
    STATUS_SINGLETON,
    ConsistencyThresholds,
    apply_consistency,
    pairwise_pearson_matrix,
)
from oracles import (
    UndefinedCorrelationError,
    cluster_mean_correlation,
    naive_prune,
    pearson,
    pearson_highprec,
)


# --- pearson -----------------------------------------------------------------


def test_identity_is_one():
    assert pearson([1, 2, 3], [1, 2, 3]) == 1.0


def test_perfect_anticorrelation_is_minus_one():
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0


def test_scale_invariance():
    assert pearson([1, 2, 3, 4], [2, 4, 6, 8]) == 1.0


def test_known_value_against_closed_form_and_highprec():
    r = pearson([1, 2, 3], [1, 2, 4])
    assert abs(r - 9.0 / math.sqrt(84.0)) < 1e-12
    assert abs(r - pearson_highprec([1, 2, 3], [1, 2, 4])) < 1e-12
    assert abs(r - 0.9819805060619657) < 1e-12


def test_constant_input_undefined():
    with pytest.raises(UndefinedCorrelationError):
        pearson([5, 5, 5], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 2, 3], [2, 2, 2])


def test_short_input_rejected():
    with pytest.raises(ValueError):
        pearson([1], [2])


def test_matches_highprec_oracle_on_random_pairs(rng):
    for _ in range(200):
        n = int(rng.integers(2, 129))
        x = rng.standard_normal(n) * rng.uniform(0.1, 50)
        y = rng.standard_normal(n) * rng.uniform(0.1, 50)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        assert abs(pearson(x, y) - pearson_highprec(x, y)) < 1e-9


def test_negative_scaling_flips_sign(rng):
    x = rng.standard_normal(32)
    y = rng.standard_normal(32)
    assert abs(pearson(-2.0 * x + 1.0, y) + pearson(x, y)) < 1e-12


@given(
    xs=st.lists(st.floats(-100, 100), min_size=3, max_size=20),
    ys=st.lists(st.floats(-100, 100), min_size=3, max_size=20),
)
@settings(max_examples=80, deadline=None)
def test_symmetry_property(xs, ys):
    n = min(len(xs), len(ys))
    x, y = np.asarray(xs[:n]), np.asarray(ys[:n])
    if np.ptp(x) < 1e-3 or np.ptp(y) < 1e-3:
        return
    assert abs(pearson(x, y) - pearson(y, x)) < 1e-12


@given(
    xs=st.lists(st.floats(-100, 100), min_size=3, max_size=20),
    a=st.floats(0.1, 10.0),
    b=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_affine_invariance_property(xs, a, b, seed):
    x = np.asarray(xs)
    if np.ptp(x) < 1e-3:
        return
    y = np.random.default_rng(seed).standard_normal(len(x)) * 10
    if np.ptp(y) < 1e-3:
        return
    assert abs(pearson(a * x + b, y) - pearson(x, y)) < 1e-9


# --- cluster scoring ----------------------------------------------------------


def _centered_orthonormal_basis(rng, m: int, dim: int = 128) -> np.ndarray:
    """Rows: orthonormal, exactly mean-zero vectors (correlation = dot product)."""
    A = rng.standard_normal((dim, m))
    ones = np.ones(dim) / math.sqrt(dim)
    A = A - ones[:, None] * (ones @ A)
    Q, _ = np.linalg.qr(A)
    return Q.T


def correlated_members(rng, n_members: int, r_within: float) -> np.ndarray:
    """Vectors whose pairwise Pearson correlation is r_within (to fp noise)."""
    basis = _centered_orthonormal_basis(rng, n_members + 1)
    shared, privates = basis[0], basis[1:]
    alpha = math.sqrt(r_within)
    beta = math.sqrt(1.0 - r_within)
    return np.stack([alpha * shared + beta * p for p in privates])


def test_correlated_members_construction(rng):
    X = correlated_members(rng, 4, 0.85)
    R = pairwise_pearson_matrix(X)
    off = R[np.triu_indices(4, 1)]
    assert np.allclose(off, 0.85, atol=1e-9)


def test_cluster_mean_identical_vectors(rng):
    v = rng.standard_normal(128)
    assert cluster_mean_correlation(np.stack([v, v, v])) == 1.0


def test_cluster_mean_singleton_undefined(rng):
    assert cluster_mean_correlation(rng.standard_normal((1, 128))) is None


def test_cluster_mean_matches_pairwise_loop(rng):
    X = rng.standard_normal((4, 128))
    pairs = [
        pearson(X[i], X[j]) for i in range(4) for j in range(i + 1, 4)
    ]
    expected = sum(pairs) / len(pairs)
    assert abs(cluster_mean_correlation(X) - expected) < 1e-12


def _single_cluster(dataset):
    n = len(dataset.observations)
    return clustering_from_clusters([list(range(n))], n, "ahc", {})


def test_robust_cluster_untouched(rng):
    X = correlated_members(rng, 5, 0.95)
    dataset = dataset_from_matrix(X)
    filtered, report = apply_consistency(_single_cluster(dataset), dataset)
    verdict = report.verdicts[0]
    assert verdict.status == STATUS_ROBUST
    assert verdict.removed_members == ()
    assert filtered.clusters == ((0, 1, 2, 3, 4),)
    assert filtered.discarded == ()


def test_low_mean_cluster_rejected(rng):
    X = correlated_members(rng, 5, 0.2)
    dataset = dataset_from_matrix(X)
    filtered, report = apply_consistency(_single_cluster(dataset), dataset)
    assert report.verdicts[0].status == STATUS_REJECTED
    assert filtered.clusters == ()
    assert filtered.discarded == (0, 1, 2, 3, 4)


def _mixed_cluster_matrix(rng):
    """Four members at mutual r=0.85 plus one planted outlier at r=0.30."""
    basis = _centered_orthonormal_basis(rng, 6)
    shared, privates = basis[0], basis[1:5]
    alpha = math.sqrt(0.85)
    beta = math.sqrt(0.15)
    members = [alpha * shared + beta * p for p in privates]
    gamma = 0.30 / alpha
    outlier = gamma * shared + math.sqrt(1 - gamma * gamma) * basis[5]
    return np.stack(members + [outlier])


def test_mixed_cluster_prunes_planted_outlier(rng):
    X = _mixed_cluster_matrix(rng)
    dataset = dataset_from_matrix(X)
    clustering = _single_cluster(dataset)
    mean_r = cluster_mean_correlation(X)
    assert 0.4 <= mean_r < 0.8  # middle band by construction (~0.63)

    filtered, report = apply_consistency(clustering, dataset)
    verdict = report.verdicts[0]
    assert verdict.status == STATUS_PRUNED
    assert verdict.removed_members == (4,)
    assert filtered.clusters == ((0, 1, 2, 3),)
    assert filtered.discarded == (4,)
    assert verdict.final_mean_pairwise_r == pytest.approx(0.85, abs=1e-9)

    # verify by brute-force recomputation: outlier's mean-to-rest < 0.70,
    # survivors' mean-to-rest >= 0.70
    rest = [pearson(X[4], X[j]) for j in range(4)]
    assert sum(rest) / 4 < 0.70
    for i in range(4):
        others = [pearson(X[i], X[j]) for j in range(4) if j != i]
        assert sum(others) / len(others) >= 0.70


def test_middle_band_without_low_members_keeps_all(rng):
    X = correlated_members(rng, 4, 0.75)
    dataset = dataset_from_matrix(X)
    filtered, report = apply_consistency(_single_cluster(dataset), dataset)
    verdict = report.verdicts[0]
    assert verdict.status == STATUS_PRUNED
    assert verdict.removed_members == ()
    assert filtered.clusters == ((0, 1, 2, 3),)


def test_singleton_retained_and_flagged(rng):
    X = rng.standard_normal((1, 128))
    dataset = dataset_from_matrix(X)
    filtered, report = apply_consistency(_single_cluster(dataset), dataset)
    assert report.verdicts[0].status == STATUS_SINGLETON
    assert report.verdicts[0].mean_pairwise_r is None
    assert filtered.clusters == ((0,),)


def test_constant_descriptor_pruned_first(rng):
    X = correlated_members(rng, 3, 0.75)
    X = np.vstack([X, np.full(128, 5.0)])  # zero-variance member
    dataset = dataset_from_matrix(X)
    filtered, report = apply_consistency(_single_cluster(dataset), dataset)
    verdict = report.verdicts[0]
    assert verdict.status == STATUS_PRUNED
    assert 3 in verdict.removed_members
    assert 3 in filtered.discarded


# Integer descriptors whose entries sum to zero: centering leaves them exact and
# every Gram entry is an exact integer under any summation order, so the means
# below do not depend on the BLAS build. Clusters, in order: robust, singleton,
# pruned (two removals, the later observation first), rejected outright, and a
# middle-band cluster rejected after pruning down to one member.
_VERDICT_ROWS = [
    (3, -1, -1, -1), (6, -2, -2, -2), (3, -1, -2, 0),
    (1, 2, -3, 0),
    (4, -1, -1, -1, -1), (1, 1, -1, 0, -1), (4, -2, -1, -1, 0),
    (4, -1, -2, 0, -1), (5, -1, -1, -1, -2), (0, -1, 0, 2, -1),
    (1, -1, 0, 0), (-1, 1, 0, 0), (0, 1, -1, 0),
    (1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1),
]
_VERDICT_CLUSTERS = [[0, 1, 2], [3], [4, 5, 6, 7, 8, 9], [10, 11, 12], [13, 14, 15]]


def _verdict(cluster_id, size, mean, final, status, removed, surviving):
    return {
        "cluster_id": cluster_id,
        "final_mean_pairwise_r": final,
        "mean_pairwise_r": mean,
        "removed_members": removed,
        "size": size,
        "status": status,
        "surviving_cluster_id": surviving,
    }


# The consistency.json those clusters must produce, byte for byte.
_RECORDED_CONSISTENCY = {
    "provenance": {"fingerprint": "f", "params": {}},
    "wearers": {
        "u1": {
            "clusters": [
                _verdict(0, 3, 0.9505467331817009, 0.9505467331817009, "robust", [], 0),
                _verdict(1, 1, None, None, "singleton", [], 1),
                _verdict(2, 6, 0.535624662202756, 0.9418308069872524, "pruned", [9, 5], 2),
                _verdict(
                    3, 3, -0.3333333333333333, -0.3333333333333333, "rejected", [10, 11, 12], None
                ),
                _verdict(4, 3, 0.5, None, "rejected", [13, 14, 15], None),
            ],
            "status_counts": {"pruned": 1, "rejected": 2, "robust": 1, "singleton": 1},
            "thresholds": {"member_min": 0.7, "reject_mean": 0.4, "robust_mean": 0.8},
        }
    },
}


def test_consistency_report_written_form_is_pinned(tmp_path):
    assert all(sum(row) == 0 for row in _VERDICT_ROWS)
    dataset = dataset_from_matrix(pad128(*_VERDICT_ROWS))
    n = len(_VERDICT_ROWS)
    clustering = clustering_from_clusters(_VERDICT_CLUSTERS, n, "ahc", {"method": "ahc"})
    filtered, report = apply_consistency(clustering, dataset)
    assert filtered.clusters == ((0, 1, 2), (3,), (4, 6, 7, 8))
    assert filtered.discarded == (5, 9, 10, 11, 12, 13, 14, 15)

    prov = {"fingerprint": "f", "params": {}}
    _write_clustering(tmp_path, {"u1": (dataset, filtered)}, {"u1": report}, prov)
    text = (tmp_path / "consistency.json").read_text()
    assert text == json.dumps(_RECORDED_CONSISTENCY, indent=2, sort_keys=True) + "\n"


def test_idempotence(rng):
    X = np.vstack(
        [
            _mixed_cluster_matrix(rng),
            correlated_members(rng, 3, 0.9),
            correlated_members(rng, 4, 0.1),
        ]
    )
    dataset = dataset_from_matrix(X)
    clustering = clustering_from_clusters(
        [list(range(5)), list(range(5, 8)), list(range(8, 12))], 12, "ahc", {}
    )
    once, _ = apply_consistency(clustering, dataset)
    twice, _ = apply_consistency(once, dataset)
    assert twice.clusters == once.clusters
    assert twice.discarded == once.discarded


def test_no_observation_vanishes(rng):
    X = np.vstack(
        [
            correlated_members(rng, 4, 0.9),
            correlated_members(rng, 4, 0.2),
            _mixed_cluster_matrix(rng),
        ]
    )
    dataset = dataset_from_matrix(X)
    clustering = clustering_from_clusters(
        [list(range(4)), list(range(4, 8)), list(range(8, 13))], 13, "ahc", {}
    )
    filtered, _ = apply_consistency(clustering, dataset)
    kept = {m for members in filtered.clusters for m in members}
    assert kept | set(filtered.discarded) == set(range(13))
    assert kept & set(filtered.discarded) == set()


def test_statuses_reproducible_from_thresholds(rng):
    X = _mixed_cluster_matrix(rng)
    dataset = dataset_from_matrix(X)
    _, report1 = apply_consistency(_single_cluster(dataset), dataset)
    _, report2 = apply_consistency(_single_cluster(dataset), dataset)
    assert report1 == report2


def test_custom_thresholds_change_verdicts(rng):
    X = correlated_members(rng, 4, 0.75)
    dataset = dataset_from_matrix(X)
    strict = ConsistencyThresholds(robust_mean=0.7, reject_mean=0.3, member_min=0.5)
    _, report = apply_consistency(_single_cluster(dataset), dataset, strict)
    assert report.verdicts[0].status == STATUS_ROBUST


def test_threshold_invariants_enforced():
    with pytest.raises(ValueError):
        ConsistencyThresholds(robust_mean=0.4, reject_mean=0.8)
    with pytest.raises(ValueError):
        ConsistencyThresholds(member_min=1.5)


# --- prune loop against the full-rescan oracle ---------------------------------


def _graded_members(rng, loadings: np.ndarray) -> np.ndarray:
    """Rows sharing one direction with the given loadings: r_ij ~ a_i * a_j."""
    shared = rng.standard_normal(128)
    noise = rng.standard_normal((len(loadings), 128))
    return loadings[:, None] * shared + np.sqrt(1.0 - loadings**2)[:, None] * noise


def _expected_verdict(R, members, thresholds):
    removed, kept, final_mean = naive_prune(R, members, thresholds.member_min)
    if len(kept) >= 2 and final_mean is not None and final_mean >= thresholds.reject_mean:
        return STATUS_PRUNED, tuple(removed), final_mean
    return STATUS_REJECTED, tuple(members), final_mean


def _verdict_of_single_cluster(X, thresholds):
    dataset = dataset_from_matrix(X)
    _, report = apply_consistency(_single_cluster(dataset), dataset, thresholds)
    v = report.verdicts[0]
    return v.status, v.removed_members, v.final_mean_pairwise_r


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 60),
    n_duplicates=st.integers(0, 8),
    n_constant=st.integers(0, 3),
    n_near_ties=st.integers(0, 3),
    member_min=st.sampled_from([0.5, 0.7, 0.8]),
)
@settings(max_examples=150, deadline=None)
def test_prune_matches_rescan_oracle(seed, m, n_duplicates, n_constant, n_near_ties, member_min):
    rng = np.random.default_rng(seed)
    X = _graded_members(rng, rng.uniform(0.55, 0.98, m))
    for _ in range(n_duplicates):
        i, j = rng.integers(0, m, 2)
        X[i] = X[j]
    for _ in range(n_near_ties):
        # Scores that differ from a neighbour's only in the last few digits.
        i, j = rng.integers(0, m, 2)
        X[i] = X[j] + 1e-12 * rng.standard_normal(128)
    for i in rng.integers(0, m, n_constant):
        X[i] = 0.25
    thresholds = ConsistencyThresholds(member_min=member_min)
    mean_r = cluster_mean_correlation(X)
    assume(mean_r is None or thresholds.reject_mean <= mean_r < thresholds.robust_mean)

    R = pairwise_pearson_matrix(X)
    expected = _expected_verdict(R, tuple(range(m)), thresholds)
    assert _verdict_of_single_cluster(X, thresholds) == expected


def _eight_hundred_members() -> np.ndarray:
    """800 distinct members: 500 tight ones and 300 weak ones the prune removes."""
    rng = np.random.default_rng(800)
    loadings = np.concatenate([rng.uniform(0.86, 0.97, 500), rng.uniform(0.2, 0.8, 300)])
    rng.shuffle(loadings)
    return _graded_members(rng, loadings)


def test_eight_hundred_member_prune_matches_oracle():
    X = _eight_hundred_members()
    thresholds = ConsistencyThresholds()
    assert thresholds.reject_mean <= cluster_mean_correlation(X) < thresholds.robust_mean
    expected = _expected_verdict(pairwise_pearson_matrix(X), tuple(range(800)), thresholds)
    assert expected[0] == STATUS_PRUNED
    assert 200 <= len(expected[1]) <= 400
    assert _verdict_of_single_cluster(X, thresholds) == expected


def test_prune_scores_few_members_per_removal(monkeypatch):
    """A full rescan scores every live member each round, about m per removal."""
    calls = 0
    original = consistency._mean_to_rest

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(consistency, "_mean_to_rest", counted)
    status, removed, _ = _verdict_of_single_cluster(_eight_hundred_members(), ConsistencyThresholds())
    assert status == STATUS_PRUNED
    assert len(removed) >= 200
    assert calls <= 3 * (len(removed) + 1)
