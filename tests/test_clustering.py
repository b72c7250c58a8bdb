from __future__ import annotations

import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dataset_from_matrix,
    edit_lines,
    line_edits,
    observations_from_matrix,
    pad128,
)
from egosocial import clustering as clustering_module
from egosocial.clustering import (
    METRICS,
    AhcParams,
    Clustering,
    DegenerateVectorError,
    DistanceMatrix,
    MeanShiftParams,
    SpectralParams,
    ahc_average_linkage,
    cluster_ahc,
    clustering_from_clusters,
    clustering_from_labels,
    compute_distances,
    estimate_bandwidth,
    meanshift,
    parse_clustering,
    serialize_clustering,
    spectral,
    validate_clustering,
)
from egosocial.ingest import Dataset, IngestError
from oracles import (
    distance_double_loop,
    gram_distances,
    lance_williams_linkage,
    naive_average_linkage,
    naive_clustering_fault,
    naive_components,
    partition_of,
    pearson,
)


# --- distances -----------------------------------------------------------------


def test_identical_vectors_zero_under_all_metrics(rng):
    u = rng.standard_normal(128)
    X = np.stack([u, u])
    for metric in ("euclidean", "cosine", "correlation"):
        d = compute_distances(X, metric=metric, normalize=(metric == "euclidean"))
        assert d.entries[0, 1] == 0.0
        assert d.entries[1, 0] == 0.0


def test_orthogonal_unit_vectors():
    X = pad128([1.0, 0.0], [0.0, 1.0])
    d_euc = compute_distances(X, metric="euclidean", normalize=False)
    assert abs(d_euc.entries[0, 1] - math.sqrt(2.0)) < 1e-15
    d_cos = compute_distances(X, metric="cosine", normalize=False)
    assert abs(d_cos.entries[0, 1] - 1.0) < 1e-15


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "correlation"])
@pytest.mark.parametrize("normalize", [False, True])
def test_matches_double_loop_oracle(rng, metric, normalize):
    X = rng.standard_normal((5, 128)) * 3.0 + 0.5
    d = compute_distances(X, metric=metric, normalize=normalize)
    ref_X = X / np.linalg.norm(X, axis=1, keepdims=True) if normalize else X
    ref = distance_double_loop(ref_X, metric)
    assert np.max(np.abs(d.entries - ref)) < 1e-12


def _kernel_rows(kind: str, n: int, rng) -> np.ndarray:
    """Random rows, rows drawn from four distinct descriptors, or rows from 1e-9
    to 1e-5 apart, whose pairs straddle the near-duplicate thresholds."""
    if kind == "random":
        return rng.standard_normal((n, 128))
    if kind == "few-distinct":
        return rng.standard_normal((4, 128))[rng.integers(0, 4, n)]
    spread = np.logspace(-9, -5, n)[rng.permutation(n), None]
    return rng.standard_normal(128) + spread * rng.standard_normal((n, 128))


# n crosses the edges of the 32-row blocks of compute_distances.
@pytest.mark.parametrize("n", [1, 31, 32, 33, 300])
@pytest.mark.parametrize("kind", ["random", "few-distinct", "close"])
def test_distances_equal_gram_oracle_bitwise(kind, n):
    X = _kernel_rows(kind, n, np.random.default_rng(n))
    for metric in METRICS:
        for normalize in (False, True):
            D = compute_distances(X, metric=metric, normalize=normalize).entries
            assert np.array_equal(D, gram_distances(X, metric, normalize)), (metric, normalize)


def test_correlation_distance_consistent_with_pearson(rng):
    X = rng.standard_normal((6, 128))
    d = compute_distances(X, metric="correlation", normalize=False)
    for i in range(6):
        for j in range(i + 1, 6):
            assert abs(d.entries[i, j] - (1.0 - pearson(X[i], X[j]))) < 1e-12


def test_zero_vector_rejected_for_cosine():
    X = pad128([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(DegenerateVectorError, match="row 1"):
        compute_distances(X, metric="cosine", normalize=False)


def test_constant_vector_rejected_for_correlation():
    X = np.vstack([np.arange(128.0), np.full(128, 7.0)])
    with pytest.raises(DegenerateVectorError):
        compute_distances(X, metric="correlation", normalize=False)


def test_zero_vector_rejected_when_normalizing():
    X = pad128([0.0], [1.0])
    with pytest.raises(DegenerateVectorError):
        compute_distances(X, metric="euclidean", normalize=True)


def test_degenerate_error_names_observation(rng):
    obs = observations_from_matrix(pad128([1.0, 0.0], [0.0, 0.0]))
    with pytest.raises(DegenerateVectorError, match="img-"):
        compute_distances(obs, metric="cosine", normalize=False)


def test_matrix_is_validated():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        ahc_average_linkage(
            DistanceMatrix(entries=bad, metric_tag="euclidean"), AhcParams()
        )


def _faulty(n, *faults):
    """An n x n symmetric matrix of ones with the given (i, j, value) writes."""
    E = np.ones((n, n))
    np.fill_diagonal(E, 0.0)
    for i, j, value in faults:
        E[i, j] = value
    return DistanceMatrix(entries=E, metric_tag="euclidean")


@pytest.mark.parametrize(
    "faults, message",
    [
        # far from the diagonal, more than one 256-row block away
        ([(0, 299, 2.0)], "not symmetric"),
        ([(299, 0, 2.0)], "not symmetric"),
        ([(10, 280, 2.0)], "not symmetric"),
        ([(3, 290, np.nan), (290, 3, np.nan)], "non-finite"),
        ([(280, 5, np.inf)], "non-finite"),
        ([(7, 270, -1.0), (270, 7, -1.0)], "negative"),
        ([(150, 150, 0.5)], "diagonal must be zero"),
        # several faults: the first in check order is reported
        ([(0, 299, 2.0), (298, 297, np.nan)], "non-finite"),
        ([(0, 299, 2.0), (299, 298, -1.0), (298, 299, -1.0)], "negative"),
        ([(0, 299, 2.0), (150, 150, 0.5)], "not symmetric"),
    ],
)
def test_matrix_validation_messages(faults, message):
    with pytest.raises(ValueError, match=message):
        ahc_average_linkage(_faulty(300, *faults), AhcParams())


# --- average-linkage AHC ---------------------------------------------------------


def _euclid_params(cut, normalize=False):
    return AhcParams(metric="euclidean", cut_threshold=cut, normalize_descriptors=normalize)


def test_well_separated_pairs():
    X = pad128([0.0], [0.1], [5.0], [5.1])
    d = compute_distances(X, metric="euclidean", normalize=False)
    clustering = ahc_average_linkage(d, _euclid_params(1.0))
    assert partition_of(clustering) == {frozenset({0, 1}), frozenset({2, 3})}


def test_huge_cut_gives_single_cluster(rng):
    X = rng.standard_normal((7, 128))
    d = compute_distances(X, metric="euclidean", normalize=False)
    clustering = ahc_average_linkage(d, _euclid_params(1e12))
    assert clustering.n_clusters == 1


def test_tiny_cut_gives_singletons(rng):
    X = rng.standard_normal((6, 128))
    d = compute_distances(X, metric="euclidean", normalize=False)
    clustering = ahc_average_linkage(d, _euclid_params(1e-9))
    assert clustering.n_clusters == 6


def test_single_observation(rng):
    d = compute_distances(rng.standard_normal((1, 128)), normalize=False)
    clustering = ahc_average_linkage(d, _euclid_params(1.0))
    assert clustering.clusters == ((0,),)


def test_matches_naive_oracle_small_instances(rng):
    for _ in range(40):
        n = int(rng.integers(2, 11))
        X = rng.standard_normal((n, 128))
        d = compute_distances(X, metric="euclidean", normalize=False)
        cut = float(rng.uniform(0.5, 2.5)) * float(np.median(d.entries))
        ours = ahc_average_linkage(d, _euclid_params(cut))
        ref = naive_average_linkage(d.entries, cut)
        assert partition_of(ours) == ref


def _assert_matches_naive(D, cuts):
    dist = DistanceMatrix(entries=D, metric_tag="euclidean")
    for cut in cuts:
        ours = ahc_average_linkage(dist, _euclid_params(cut))
        assert partition_of(ours) == naive_average_linkage(dist.entries, cut), cut


def test_duplicated_rows_match_naive_oracle(rng):
    for _ in range(10):
        base = rng.standard_normal((int(rng.integers(2, 6)), 128))
        X = base[rng.integers(0, len(base), size=int(rng.integers(4, 13)))]
        D = compute_distances(X, metric="euclidean", normalize=False).entries
        # With two distinct rows every cross average is exactly the median,
        # so a cut there is decided by rounding: keep cuts off it.
        med = float(np.median(D[D > 0])) if np.any(D > 0) else 1.0
        _assert_matches_naive(D, [1e-9, 0.5 * med, 0.97 * med, 1.03 * med, 1.7 * med])


def test_integer_lattice_ties_match_naive_oracle(rng):
    for _ in range(10):
        coords = rng.integers(0, 12, size=int(rng.integers(3, 13)))
        D = compute_distances(
            pad128(*[[float(c)] for c in coords]), metric="euclidean", normalize=False
        ).entries
        assert np.array_equal(D, np.abs(coords[:, None] - coords[None, :]).astype(float))
        _assert_matches_naive(D, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])


def test_separated_blobs_and_singletons_match_naive_oracle(rng):
    for _ in range(8):
        centers = rng.standard_normal((int(rng.integers(3, 6)), 128)) * 10.0
        sizes = rng.integers(1, 4, size=len(centers))
        X = np.vstack(
            [c + 0.3 * rng.standard_normal((s, 128)) for c, s in zip(centers, sizes)]
        )
        X = X[rng.permutation(len(X))]
        D = compute_distances(X, metric="euclidean", normalize=False).entries
        ours = ahc_average_linkage(
            DistanceMatrix(entries=D, metric_tag="euclidean"), _euclid_params(20.0)
        )
        assert ours.n_clusters == len(centers)
        assert sorted(len(c) for c in ours.clusters) == sorted(sizes.tolist())
        _assert_matches_naive(D, [5.0, 20.0, 40.0])


def _ulps_above_cut(rng, cut, n_groups, ulp_range):
    """Random in-group distances below ``cut``; every cross-group one a few ulps above."""
    n = int(rng.integers(4, 12))
    groups = rng.integers(0, n_groups, size=n)
    cross = groups[:, None] != groups[None, :]
    ulps = rng.integers(*ulp_range, size=(n, n))
    D = np.where(cross, cut + ulps * np.spacing(cut), rng.uniform(0.1, cut, size=(n, n)))
    D = np.triu(D, 1)
    return D + D.T, groups


def test_cross_group_distances_ulps_above_cut_match_naive_oracle(rng):
    cut = 0.9
    for _ in range(20):
        D, groups = _ulps_above_cut(rng, cut, 3, (3, 41))
        _assert_matches_naive(D, [cut])
        ours = ahc_average_linkage(
            DistanceMatrix(entries=D, metric_tag="euclidean"), _euclid_params(cut)
        )
        assert all(len(set(groups[list(c)])) == 1 for c in ours.clusters)


def test_rounding_merges_one_ulp_above_cut_match_whole_matrix_loop(rng):
    # One or two ulps above the cut, a rounded Lance-Williams average can
    # land on the cut and merge two groups; splitting the work must not
    # change that.
    crossed = 0
    for _ in range(300):
        cut = float(rng.uniform(0.5, 2.0))
        D, groups = _ulps_above_cut(rng, cut, 2, (1, 3))
        ours = ahc_average_linkage(
            DistanceMatrix(entries=D, metric_tag="euclidean"), _euclid_params(cut)
        )
        assert partition_of(ours) == lance_williams_linkage(D, cut)
        crossed += any(len(set(groups[list(c)])) > 1 for c in ours.clusters)
    assert crossed > 0


def _counting_merge_loop(monkeypatch) -> list[int]:
    """Record the row count of every matrix `_merge_loop` is called on."""
    sizes: list[int] = []
    loop = clustering_module._merge_loop

    def counted(D, cut):
        sizes.append(len(D))
        return loop(D, cut)

    monkeypatch.setattr(clustering_module, "_merge_loop", counted)
    return sizes


def _tight(cut, n):
    """The largest component maximum that ahc_average_linkage closes without its loop."""
    return cut * (1.0 - 4.0 * n * 2.0**-53)


def test_cliques_ulps_below_cut_that_split_by_rounding_run_the_loop(rng, monkeypatch):
    # Every distance is 0-2 ulps below the cut, yet a rounded Lance-Williams
    # average can land above it and split the clique: only a margin below
    # the cut makes one cluster certain.
    loops = _counting_merge_loop(monkeypatch)
    split = 0
    for _ in range(400):
        cut = float(rng.uniform(0.5, 2.0))
        n = int(rng.integers(4, 12))
        D = np.triu(cut - rng.integers(0, 3, size=(n, n)) * np.spacing(cut), 1)
        D += D.T
        del loops[:]
        ours = ahc_average_linkage(
            DistanceMatrix(entries=D, metric_tag="euclidean"), _euclid_params(cut)
        )
        assert partition_of(ours) == lance_williams_linkage(D, cut)
        assert loops == [n]
        split += ours.n_clusters > 1
    assert split > 0


def _component(rng, kind):
    """A clique's distances scaled so that the largest is exactly 1.0."""
    m = int(rng.integers(2, 9))
    if kind == "lattice":  # exact ties, and duplicates where coordinates meet
        coords = rng.integers(0, 4, size=m)
        coords[:2] = 0, 3
        return np.abs(coords[:, None] - coords[None, :]) / 3.0
    if kind == "duplicates":
        base = rng.standard_normal((int(rng.integers(2, m + 1)), 128))
        X = base[np.concatenate([[0, 1], rng.integers(0, len(base), size=m - 2)])]
        L = compute_distances(X, metric="euclidean", normalize=False).entries
    else:
        L = np.triu(rng.uniform(0.2, 1.0, size=(m, m)), 1)
        L += L.T
    return L / L.max()


@pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicates"])
def test_components_at_and_one_ulp_above_the_margin_match_whole_matrix_loop(
    rng, monkeypatch, kind
):
    # A component whose largest distance is the rounded cut * (1 - kappa)
    # is closed as one cluster without the merge loop; one ulp above it, the
    # loop runs. Either way the partition is the whole-matrix loop's.
    loops = _counting_merge_loop(monkeypatch)
    for _ in range(60):
        cut = float(rng.uniform(0.5, 2.0))
        parts = [_component(rng, kind) for _ in range(int(rng.integers(1, 5)))]
        above = rng.integers(0, 2, size=len(parts)).astype(bool)
        n = sum(len(P) for P in parts)
        tight = _tight(cut, n)
        D = np.full((n, n), 3.0 * cut)
        owner = np.repeat(np.arange(len(parts)), [len(P) for P in parts])
        for c, (P, over) in enumerate(zip(parts, above)):
            rows = np.flatnonzero(owner == c)
            D[np.ix_(rows, rows)] = P * (np.nextafter(tight, np.inf) if over else tight)
        order = rng.permutation(n)
        D, owner = D[np.ix_(order, order)], owner[order]

        del loops[:]
        ours = ahc_average_linkage(
            DistanceMatrix(entries=D, metric_tag="euclidean"), _euclid_params(cut)
        )
        assert partition_of(ours) == lance_williams_linkage(D, cut)
        assert sorted(loops) == sorted(len(P) for P, over in zip(parts, above) if over)
        for c in np.flatnonzero(~above):
            assert frozenset(np.flatnonzero(owner == c).tolist()) in partition_of(ours)


@pytest.mark.parametrize("cut, top", [(1.7e308, 1e308), (1e-310, 5e-311)])
def test_components_near_overflow_or_underflow_run_the_loop(monkeypatch, cut, top):
    # Near the top of the float range a Lance-Williams product overflows to
    # inf and stops the loop; near the bottom rounding is not relative. In
    # neither range is a component closed without the loop.
    loops = _counting_merge_loop(monkeypatch)
    D = np.full((3, 3), top)
    np.fill_diagonal(D, 0.0)
    with np.errstate(over="ignore"):
        ours = ahc_average_linkage(
            DistanceMatrix(entries=D, metric_tag="euclidean"), _euclid_params(cut)
        )
        assert partition_of(ours) == lance_williams_linkage(D, cut)
    assert loops == [3]


def test_permutation_invariance(rng):
    X = rng.standard_normal((12, 128))
    d = compute_distances(X, metric="euclidean", normalize=False)
    base = ahc_average_linkage(d, _euclid_params(2.0))
    perm = rng.permutation(12)
    Xp = X[perm]
    dp = compute_distances(Xp, metric="euclidean", normalize=False)
    permuted = ahc_average_linkage(dp, _euclid_params(2.0))
    # map permuted indices back to original identities
    remapped = {frozenset(int(perm[m]) for m in members) for members in permuted.clusters}
    assert remapped == partition_of(base)


def test_rotation_invariance_euclidean(rng):
    X = rng.standard_normal((10, 128))
    Q, _ = np.linalg.qr(rng.standard_normal((128, 128)))
    base = cluster_ahc(X, _euclid_params(12.0))
    rotated = cluster_ahc(X @ Q.T, _euclid_params(12.0))
    assert partition_of(base) == partition_of(rotated)


def test_scaling_invariance_when_normalized(rng):
    X = rng.standard_normal((10, 128))
    scales = rng.uniform(0.5, 20.0, size=(10, 1))
    base = cluster_ahc(X, _euclid_params(0.9, normalize=True))
    scaled = cluster_ahc(X * scales, _euclid_params(0.9, normalize=True))
    assert partition_of(base) == partition_of(scaled)


def test_raising_cut_never_increases_cluster_count(rng):
    X = rng.standard_normal((15, 128))
    d = compute_distances(X, metric="euclidean", normalize=False)
    cuts = np.linspace(0.1, 2.0, 12) * float(np.median(d.entries))
    counts = [ahc_average_linkage(d, _euclid_params(float(c))).n_clusters for c in cuts]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_metric_mismatch_rejected(rng):
    d = compute_distances(rng.standard_normal((3, 128)), metric="cosine", normalize=False)
    with pytest.raises(ValueError, match="does not match"):
        ahc_average_linkage(d, _euclid_params(1.0))


def test_distances_and_linkage_stay_near_one_dense_matrix(rng):
    n, k = 2000, 40
    centers = rng.standard_normal((k, 128))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    X = centers[rng.integers(0, k, size=n)] + 0.03 * rng.standard_normal((n, 128))
    dense = n * n * 8
    tracemalloc.start()
    try:
        distance_peak = {}
        for metric in ("cosine", "correlation", "euclidean"):  # euclidean's is clustered
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            dist = compute_distances(X, metric=metric, normalize=True)
            distance_peak[metric] = (tracemalloc.get_traced_memory()[1] - base) / dense
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        clustering = ahc_average_linkage(dist, AhcParams(cut_threshold=0.9))
        linkage_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert clustering.n_clusters == k
    # Measured 1.103x for euclidean, 1.134x for cosine and correlation, and
    # 0.019x for linkage (numpy 2.4): the matrix plus one descriptor copy (and
    # the unit rows) and 32-row temporaries, and linkage's 32-row gathers.
    assert distance_peak["euclidean"] <= 1.12, distance_peak
    assert distance_peak["cosine"] <= 1.16, distance_peak
    assert distance_peak["correlation"] <= 1.16, distance_peak
    assert linkage_peak <= 0.025 * dense, linkage_peak / dense


def test_identical_rows_peak_near_one_dense_matrix(rng):
    """Every pair of 3,000 identical rows is near, and all are gathered."""
    n = 3000
    X = np.tile(rng.standard_normal(128), (n, 1))
    dense = n * n * 8
    peak = {}
    tracemalloc.start()
    try:
        for metric in ("euclidean", "cosine"):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            dist = compute_distances(X, metric=metric, normalize=True)
            peak[metric] = (tracemalloc.get_traced_memory()[1] - base) / dense
            assert not dist.entries.any()
            del dist
    finally:
        tracemalloc.stop()
    # Measured 1.10x (euclidean) and 1.13x (cosine), numpy 2.4; 3.80x and
    # 3.09x when up to 65,536 pairs of rows were gathered at once.
    assert max(peak.values()) <= 1.3, peak


@pytest.mark.parametrize("metric", METRICS)
def test_near_pair_chunk_size_changes_no_bit(rng, monkeypatch, metric):
    X = np.repeat(rng.standard_normal((20, 128)), 15, axis=0)
    X[::3] += 1e-9 * rng.standard_normal((100, 128))
    whole = compute_distances(X, metric=metric).entries
    monkeypatch.setattr(clustering_module, "_NEAR_ENTRIES", 1)
    assert compute_distances(X, metric=metric).entries.tobytes() == whole.tobytes()


# --- cluster_ahc on more rows than one group holds ------------------------------------
# _BIN is lowered so that small inputs take the grouped path, and _PACK so
# that their components are packed into several groups.


@st.composite
def _exact_rows(draw):
    """A metric, a normalize flag and rows whose Gram products are exact in float64.

    Rows are copies of up to eight base rows, so duplicates and exact distance
    ties are common. With normalize off, euclidean rows are small integers;
    otherwise a base row has 1, 4 or 16 entries of +-1 (zero-sum for
    correlation), so its length is a power of two and normalizing is exact.
    Every row may be scaled by 2**30.
    """
    metric = draw(st.sampled_from(METRICS))
    normalize = draw(st.booleans())
    d = 16
    bases = []
    for _ in range(draw(st.integers(1, 8))):
        if metric == "euclidean" and not normalize:
            bases.append(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
            continue
        k = draw(st.sampled_from((4, 16) if metric == "correlation" else (1, 4, 16)))
        if metric == "correlation":
            signs = draw(st.permutations([1] * (k // 2) + [-1] * (k // 2)))
        else:
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
        row = [0] * d
        for pos, sign in zip(draw(st.permutations(range(d))), signs):
            row[pos] = sign
        bases.append(row)
    n = draw(st.integers(2, 24))
    picks = draw(st.lists(st.integers(0, len(bases) - 1), min_size=n, max_size=n))
    X = np.array([bases[i] for i in picks], dtype=float) * draw(st.sampled_from((1.0, 2.0**30)))
    return metric, normalize, X


@settings(max_examples=400, deadline=None)
@given(
    case=_exact_rows(),
    at=st.integers(0, 10**6),
    scale=st.sampled_from((1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.5, 1.5)),
    rows_per_group=st.integers(1, 23),
)
def test_grouped_ahc_matches_whole_matrix_and_oracle(case, at, scale, rows_per_group):
    metric, normalize, X = case
    D = compute_distances(X, metric=metric, normalize=normalize).entries
    values = np.unique(D[D > 0])
    # A cut at an exact pairwise distance, or a relative 1e-12 either side of it.
    cut = float(values[at % values.size]) * scale if values.size else scale
    params = AhcParams(metric=metric, cut_threshold=cut, normalize_descriptors=normalize)
    whole = ahc_average_linkage(DistanceMatrix(entries=D, metric_tag=metric), params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering_module, "_BIN", len(X) - 1)
        mp.setattr(clustering_module, "_PACK", min(rows_per_group, len(X) - 1))
        grouped = cluster_ahc(X, params)
    assert grouped == whole
    assert partition_of(whole) == lance_williams_linkage(D, cut)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    metric=st.sampled_from(METRICS),
    magnitude=st.sampled_from((1e-3, 1.0, 1e6)),
    scale=st.sampled_from((1.0, 1.0 - 1e-12, 1.0 + 1e-12)),
)
def test_grouping_never_splits_pairs_within_the_cut(seed, metric, magnitude, scale):
    # Random rows near a few centres: a pair in different groups must be above
    # the widest threshold ahc_average_linkage uses, however its Gram rounds.
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(3, 40)), int(rng.integers(2, 20))
    centres = rng.standard_normal((int(rng.integers(1, 6)), d))
    X = (centres[rng.integers(0, len(centres), n)] + 0.05 * rng.standard_normal((n, d))) * magnitude
    D = compute_distances(X, metric=metric, normalize=False).entries
    cut = float(D[0, int(rng.integers(1, n))]) * scale or 1.0
    A = X if metric == "euclidean" else clustering_module._unit_rows(X, metric, [])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering_module, "_PACK", 1)
        groups = clustering_module._cut_groups(A, metric == "euclidean", cut)
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(n))
    assert all(np.all(np.diff(g) > 0) for g in groups)
    label = np.empty(n, dtype=int)
    for i, g in enumerate(groups):
        label[g] = i
    apart = label[:, None] != label[None, :]
    assert np.all(D[apart] > cut * (1.0 + 4.0 * n * 2.0**-53))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    metric=st.sampled_from(METRICS),
    magnitude=st.sampled_from((1e-30, 1e-20, 1e30, 1e200)),
    scale=st.sampled_from((1.0, 1.0 - 1e-12, 1.0 + 1e-12)),
)
def test_grouping_never_splits_pairs_within_the_cut_where_float32_hands_over(
    seed, metric, magnitude, scale
):
    # Rows whose squared norms fall outside float32's proven range keep
    # float64 blocks: a pair in different groups is still above the widest
    # threshold, and a matrix that is not finite raises as the whole one does.
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(3, 40)), int(rng.integers(2, 20))
    centres = rng.standard_normal((int(rng.integers(1, 6)), d))
    X = (centres[rng.integers(0, len(centres), n)] + 0.05 * rng.standard_normal((n, d))) * magnitude
    A = X if metric == "euclidean" else clustering_module._unit_rows(X, metric, [])
    with np.errstate(over="ignore", invalid="ignore"):
        D = compute_distances(X, metric=metric, normalize=False).entries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering_module, "_PACK", 1)
        if not np.isfinite(D).all():
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="non-finite"):
                    clustering_module._cut_groups(A, metric == "euclidean", 1.0)
            return
        cut = float(D[0, int(rng.integers(1, n))]) * scale or 1.0
        groups = clustering_module._cut_groups(A, metric == "euclidean", cut)
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(n))
    label = np.empty(n, dtype=int)
    for i, g in enumerate(groups):
        label[g] = i
    apart = label[:, None] != label[None, :]
    assert np.all(D[apart] > cut * (1.0 + 4.0 * n * 2.0**-53))


@settings(max_examples=200, deadline=None)
@given(
    case=_exact_rows(),
    at=st.integers(0, 10**6),
    scale=st.sampled_from((1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.5, 1.5)),
    tile=st.integers(1, 8),
    rows=st.integers(1, 4),
    rows_per_group=st.integers(1, 23),
)
def test_grouping_is_the_same_on_one_cpu_and_on_four(case, at, scale, tile, rows, rows_per_group):
    # Small blocks, several to a thread, folded _ROWS rows at a time where dense.
    metric, normalize, X = case
    X, A = clustering_module._checked_rows(X, metric, normalize)
    D = compute_distances(X, metric=metric, normalize=False).entries
    values = np.unique(D[D > 0])
    cut = float(values[at % values.size]) * scale if values.size else scale
    found = []
    for cpus in ({0}, {0, 1, 2, 3}):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering_module.os, "sched_getaffinity", lambda pid: cpus)
            mp.setattr(clustering_module, "_TILE", tile)
            mp.setattr(clustering_module, "_ROWS", rows)
            mp.setattr(clustering_module, "_PACK", rows_per_group)
            groups = clustering_module._cut_groups(A, metric == "euclidean", cut)
        found.append([g.tolist() for g in groups])
    assert found[0] == found[1]
    label = np.empty(len(X), dtype=int)
    for i, g in enumerate(found[0]):
        label[g] = i
    apart = label[:, None] != label[None, :]
    assert np.all(D[apart] > cut * (1.0 + 4.0 * len(X) * 2.0**-53))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    at=st.integers(0, 10**6),
    rows=st.integers(1, 8),
    outliers=st.integers(0, 3),
)
def test_cut_components_match_a_search_over_every_entry(seed, at, rows, outliers):
    # Tight blobs whose pairs are all within a cut above their spread join into
    # one giant component, with or without far-off outliers anywhere in the
    # order; a cut at an exact entry value puts ties on the threshold.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    centres = rng.standard_normal((int(rng.integers(1, 4)), 6))
    X = centres[rng.integers(0, len(centres), n)] + 0.1 * rng.standard_normal((n, 6))
    X[rng.integers(0, n, outliers)] += 100.0
    E = compute_distances(X, normalize=False).entries
    threshold = float(np.sort(E, axis=None)[at % E.size])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering_module, "_ROWS", rows)
        found = clustering_module._cut_components(E, threshold)
    assert [c.tolist() for c in found] == naive_components(E, threshold)


def test_component_larger_than_a_group_is_a_group_of_its_own(rng, monkeypatch):
    sizes = [2, 9, 1, 3, 2, 1]
    centres = 10.0 * rng.standard_normal((len(sizes), 8))
    X = np.vstack([c + 0.01 * rng.standard_normal((s, 8)) for c, s in zip(centres, sizes)])
    X = X[rng.permutation(len(X))]
    params = _euclid_params(1.0)
    whole = ahc_average_linkage(compute_distances(X, normalize=False), params)
    monkeypatch.setattr(clustering_module, "_BIN", 4)
    monkeypatch.setattr(clustering_module, "_PACK", 4)
    groups = clustering_module._cut_groups(X, True, 1.0)
    # Components in order of smallest member, packed into groups of <= 4 rows.
    by_min = sorted(whole.clusters)
    packed, current = [], []
    for c in by_min:
        if current and len(current) + len(c) > 4:
            packed.append(sorted(current))
            current = []
        current += c
    packed.append(sorted(current))
    assert [g.tolist() for g in groups] == packed
    assert any(len(g) == 9 for g in groups)
    assert cluster_ahc(X, params) == whole


def test_clusters_split_from_a_component_are_ordered_across_groups(monkeypatch):
    # Rows 0, 1 and 3 form one component (0 - 1 - 3 within the cut) that splits
    # into {0, 1} and {3}; row 2 is a component of its own, in the next group.
    X = np.array([[0.0], [0.9], [50.0], [1.9]])
    params = _euclid_params(1.0)
    monkeypatch.setattr(clustering_module, "_BIN", 3)
    monkeypatch.setattr(clustering_module, "_PACK", 3)
    assert [g.tolist() for g in clustering_module._cut_groups(X, True, 1.0)] == [[0, 1, 3], [2]]
    assert cluster_ahc(X, params).clusters == ((0, 1), (2,), (3,))


def test_grouping_on_one_cpu_leaves_no_thread_behind(rng, monkeypatch):
    # One usable CPU gives the pool one worker, shut down before cluster_ahc returns.
    X = rng.standard_normal((20, 16))[rng.integers(0, 20, size=1100)]
    X += 0.01 * rng.standard_normal(X.shape)
    assert len(X) > clustering_module._BIN
    params = _euclid_params(1.0)
    whole = ahc_average_linkage(compute_distances(X, normalize=False), params)
    monkeypatch.setattr(clustering_module.os, "sched_getaffinity", lambda pid: {0})
    before = threading.active_count()
    assert cluster_ahc(X, params) == whole
    assert threading.active_count() == before


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="np.errstate is a context variable only since numpy 2",
)
@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2, 3}], ids=["one-cpu", "four-cpus"])
def test_grouping_blocks_run_under_the_callers_errstate(monkeypatch, cpus):
    # Rows of size 1e200: every product overflows to inf, and subtracting the
    # (infinite) half norms is an invalid value, first met inside a worker's block.
    A = np.full((2 * clustering_module._TILE, 4), 1e200)
    monkeypatch.setattr(clustering_module.os, "sched_getaffinity", lambda pid: cpus)
    with np.errstate(over="ignore", invalid="raise"), pytest.raises(FloatingPointError):
        clustering_module._cut_groups(A, True, 1.0)


@pytest.mark.parametrize(
    "metric, normalize, fault, message",
    [
        ("euclidean", True, 0.0, "cannot normalize zero-length descriptor"),
        ("cosine", False, 0.0, "cosine distance undefined for zero descriptor"),
        ("correlation", False, 0.75, "correlation undefined for constant descriptor"),
        ("cosine", True, 0.0, "cannot normalize zero-length descriptor"),
    ],
)
def test_degenerate_row_deep_in_a_large_input_is_named(rng, metric, normalize, fault, message):
    X = rng.standard_normal((1100, 128))
    X[1037] = fault
    params = AhcParams(metric=metric, cut_threshold=0.5, normalize_descriptors=normalize)
    assert len(X) > clustering_module._BIN
    for rows, name in (
        (X, "row 1037"),
        (observations_from_matrix(X, image_prefix="img"), "observation 1037 (image 'img-01037')"),
    ):
        with pytest.raises(DegenerateVectorError) as whole:
            compute_distances(rows, metric=metric, normalize=normalize)
        with pytest.raises(DegenerateVectorError) as grouped:
            cluster_ahc(rows, params)
        assert str(grouped.value) == str(whole.value) == f"{message}: {name}"


@pytest.mark.parametrize("metric", METRICS)
def test_non_finite_row_raises_as_the_whole_matrix_does(rng, monkeypatch, metric):
    X = rng.standard_normal((6, 4))
    X[4, 1] = np.nan
    params = AhcParams(metric=metric, cut_threshold=0.5, normalize_descriptors=False)
    with pytest.raises(ValueError, match="non-finite") as whole:
        ahc_average_linkage(compute_distances(X, metric=metric, normalize=False), params)
    monkeypatch.setattr(clustering_module, "_BIN", 2)
    with pytest.raises(ValueError) as grouped:
        cluster_ahc(X, params)
    assert str(grouped.value) == str(whole.value)


def test_grouped_ahc_peaks_well_below_one_dense_matrix(rng):
    n, k = 3000, 30
    centres = rng.standard_normal((k, 128))
    X = centres[rng.integers(0, k, size=n)] + 0.01 * rng.standard_normal((n, 128))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        clustering = cluster_ahc(X, AhcParams(cut_threshold=0.9))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert clustering.n_clusters == k
    # Measured 0.213x (numpy 2.4): three groups of ten blobs, one group's
    # matrix at a time, the descriptor copy and one 256-row Gram block.
    assert peak < 0.35 * n * n * 8, peak / (n * n * 8)


def test_one_giant_component_peaks_no_higher_than_the_whole_matrix_path(rng):
    # A cut above the data's spread joins every row, so the one group is the
    # whole input: the grouping pass must not hold O(n^2) edges on top of it.
    # cluster_ahc may hold its checked copy of the descriptors and two n-entry
    # index arrays besides (the whole-matrix path's copy is gone by then).
    X = rng.standard_normal((1500, 16))
    params = _euclid_params(100.0)
    peaks = []
    tracemalloc.start()
    try:
        for run in (
            lambda: ahc_average_linkage(compute_distances(X, normalize=False), params),
            lambda: cluster_ahc(X, params),
        ):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = run()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            assert result.n_clusters == 1
    finally:
        tracemalloc.stop()
    whole, grouped = peaks
    assert grouped <= whole + X.nbytes + 16 * len(X), (grouped, whole)


def test_assignment_cross_check(rng):
    X = rng.standard_normal((9, 128))
    clustering = cluster_ahc(X, _euclid_params(10.0))
    validate_clustering(clustering)
    for cid, members in enumerate(clustering.clusters):
        for m in members:
            assert clustering.assignment[m] == cid


# --- mean shift ------------------------------------------------------------------


def _two_groups(rng, spread=0.01, separation=10.0):
    a = rng.standard_normal(128)
    a /= np.linalg.norm(a)
    b = -a
    g1 = a * separation + spread * rng.standard_normal((5, 128))
    g2 = b * separation + spread * rng.standard_normal((5, 128))
    return np.vstack([g1, g2])


def test_meanshift_two_tight_groups(rng):
    X = _two_groups(rng)
    clustering = meanshift(X, bandwidth=1.0)
    assert partition_of(clustering) == {frozenset(range(5)), frozenset(range(5, 10))}


def test_meanshift_identical_points(rng):
    X = np.tile(rng.standard_normal(128), (6, 1))
    clustering = meanshift(X, bandwidth=0.5)
    assert clustering.n_clusters == 1


def test_meanshift_recovers_three_gaussians(rng):
    centers = rng.standard_normal((3, 128))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= 4.0
    inter = min(
        np.linalg.norm(centers[i] - centers[j]) for i in range(3) for j in range(i + 1, 3)
    )
    labels_true = np.repeat(np.arange(3), 8)
    X = centers[labels_true] + 0.05 * rng.standard_normal((24, 128))
    clustering = meanshift(X, bandwidth=float(inter) / 2.0)
    got = {frozenset(members) for members in clustering.clusters}
    want = {frozenset(np.flatnonzero(labels_true == c)) for c in range(3)}
    assert got == want


def test_meanshift_reports_unconverged():
    X = pad128(*[[float(i)] for i in range(10)])
    clustering = meanshift(X, bandwidth=3.5, max_iter=1, tol=1e-12)
    assert clustering.params_used["unconverged"] > 0
    # same data, enough iterations: everything settles
    settled = meanshift(X, bandwidth=3.5, max_iter=300, tol=1e-12)
    assert settled.params_used["unconverged"] == 0


def test_meanshift_rejects_bad_bandwidth(rng):
    with pytest.raises(ValueError):
        meanshift(rng.standard_normal((4, 128)), bandwidth=0.0)


def test_meanshift_rejects_nan_bandwidth(rng):
    with pytest.raises(ValueError, match="^bandwidth must be positive$"):
        meanshift(rng.standard_normal((4, 128)), bandwidth=float("nan"))


def test_estimate_bandwidth_median(rng):
    X = rng.standard_normal((20, 128))
    bw = estimate_bandwidth(X)
    d = compute_distances(X, metric="euclidean", normalize=False)
    vals = d.entries[np.triu_indices(20, 1)]
    assert abs(bw - float(np.median(vals))) < 1e-12


# --- spectral --------------------------------------------------------------------


def test_spectral_k_equals_n_gives_singletons(rng):
    X = rng.standard_normal((6, 128))
    clustering = spectral(X, k=6, affinity_scale=1.0, seed=3)
    assert clustering.n_clusters == 6


def test_spectral_k_one_gives_single_cluster(rng):
    X = rng.standard_normal((6, 128))
    clustering = spectral(X, k=1, affinity_scale=1.0, seed=3)
    assert clustering.n_clusters == 1


def test_spectral_recovers_two_blobs(rng):
    X = _two_groups(rng, spread=0.05, separation=5.0)
    clustering = spectral(X, k=2, affinity_scale=1.0, seed=0)
    assert partition_of(clustering) == {frozenset(range(5)), frozenset(range(5, 10))}


def test_spectral_deterministic_per_seed(rng):
    X = _two_groups(rng, spread=0.3, separation=2.0)
    a = spectral(X, k=3, affinity_scale=1.0, seed=11)
    b = spectral(X, k=3, affinity_scale=1.0, seed=11)
    assert a.clusters == b.clusters


def test_spectral_validates_k(rng):
    X = rng.standard_normal((4, 128))
    with pytest.raises(ValueError):
        spectral(X, k=0, affinity_scale=1.0)
    with pytest.raises(ValueError):
        spectral(X, k=5, affinity_scale=1.0)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
def test_spectral_rejects_bad_affinity_scale(rng, scale):
    with pytest.raises(ValueError, match="^affinity_scale must be positive$"):
        spectral(rng.standard_normal((4, 128)), k=2, affinity_scale=scale)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: MeanShiftParams(bandwidth=0.0), "^bandwidth must be positive$"),
        (lambda: MeanShiftParams(bandwidth=float("nan")), "^bandwidth must be positive$"),
        (lambda: SpectralParams(k=0), "^need 1 <= k, got k=0$"),
        (lambda: SpectralParams(k=2, affinity_scale=-1.0), "^affinity_scale must be positive$"),
    ],
)
def test_method_params_check_their_settings(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_method_params_leave_an_unset_scale_to_the_estimate():
    assert MeanShiftParams().bandwidth is None
    assert SpectralParams(k=1).affinity_scale is None


# --- clustering container and serialization ---------------------------------------


def test_clustering_from_labels_densifies():
    clustering = clustering_from_labels([7, 3, 7, 9], "ahc", {})
    assert clustering.clusters == ((0, 2), (1,), (3,))
    assert clustering.assignment == (0, 1, 0, 2)


def test_validate_rejects_overlap():
    with pytest.raises(ValueError):
        clustering_from_clusters([[0, 1], [1, 2]], 3, "ahc", {})


def test_validate_rejects_unassigned():
    with pytest.raises(ValueError):
        clustering_from_clusters([[0, 1]], 3, "ahc", {})


def test_serialization_round_trip(rng):
    X = rng.standard_normal((8, 128))
    dataset = dataset_from_matrix(X, wearer="u1")
    clustering = cluster_ahc(dataset.observations, _euclid_params(10.0))
    clustering = Clustering(
        assignment=clustering.assignment,
        clusters=clustering.clusters,
        method_tag=clustering.method_tag,
        params_used=clustering.params_used,
        discarded=clustering.discarded,
    )
    text = serialize_clustering({"u1": (dataset, clustering)})
    parsed = parse_clustering(text, dataset)
    assert parsed["u1"].clusters == clustering.clusters
    assert parsed["u1"].discarded == clustering.discarded
    assert parsed["u1"].method_tag == "ahc"


def test_serialization_round_trip_with_discarded(rng):
    X = rng.standard_normal((5, 128))
    dataset = dataset_from_matrix(X, wearer="u1")
    clustering = clustering_from_clusters(
        [[0, 2], [3]], 5, "ahc", {"method": "ahc"}, discarded=(1, 4)
    )
    text = serialize_clustering({"u1": (dataset, clustering)})
    parsed = parse_clustering(text, dataset)
    assert parsed["u1"].clusters == ((0, 2), (3,))
    assert parsed["u1"].discarded == (1, 4)


def _two_wearer_clustering_file() -> tuple[Dataset, list[str]]:
    """Two wearers' observations, and the header line and records of their clusterings."""
    X = np.arange(7 * 128, dtype=float).reshape(7, 128)
    one = dataset_from_matrix(X[:4], wearer="u1", image_prefix="img")
    two = dataset_from_matrix(X[4:], wearer="u2", image_prefix="img")
    per_wearer = {
        "u1": (one, clustering_from_clusters([[0, 2], [3]], 4, "ahc", {}, discarded=(1,))),
        "u2": (two, clustering_from_clusters([[0, 1, 2]], 3, "ahc", {})),
    }
    dataset = Dataset(one.observations + two.observations, {**one.coverage, **two.coverage})
    return dataset, serialize_clustering(per_wearer).splitlines()


_CLUSTERING_DATASET, _CLUSTERING_LINES = _two_wearer_clustering_file()


@settings(max_examples=300, deadline=None)
@given(edits=line_edits(("wearer_id", "image_id", "face_index", "cluster_id")))
def test_clustering_reader_rejects_as_the_line_by_line_oracle(edits):
    header, *records = _CLUSTERING_LINES  # the header stays valid
    lines = [header] + edit_lines(records, edits)
    text = "\n".join(lines)
    expected = naive_clustering_fault(lines, _CLUSTERING_DATASET)
    if expected is None:
        parsed = parse_clustering(text, _CLUSTERING_DATASET)
        named = set()  # (wearer, cluster id in the file, parsed cluster id)
        for line in lines[1:]:
            if not line.strip() or line.strip().startswith("#"):
                continue
            rec = json.loads(line)
            wearer = rec["wearer_id"]
            keys = [o.key for o in _CLUSTERING_DATASET.observations if o.wearer_id == wearer]
            idx = keys.index((wearer, rec["image_id"], rec["face_index"]))
            named.add((wearer, rec["cluster_id"], parsed[wearer].assignment[idx]))
        # The file's ids and the parsed ones name the same clusters, and the same pool.
        assert len(named) == len({(w, cid) for w, cid, _ in named})
        assert len(named) == len({(w, label) for w, _, label in named})
        assert all((cid == -1) == (label == -1) for _, cid, label in named)
        return
    with pytest.raises(ValueError) as info:
        parse_clustering(text, _CLUSTERING_DATASET)
    line_no, message = expected
    if line_no is None:  # a record the file lacks
        assert not isinstance(info.value, IngestError)
        assert str(info.value) == message
    else:
        assert isinstance(info.value, IngestError)
        assert (str(info.value), info.value.line_no) == (f"line {line_no}: {message}", line_no)


def test_clustering_reader_names_the_first_of_several_stray_records():
    header, *records = _CLUSTERING_LINES
    edits = [(3, ("set", "face_index", 5)), (1, ("set", "image_id", "img-9"))]
    lines = [header] + edit_lines(records, edits)
    message = "record names no observation in the dataset"
    assert naive_clustering_fault(lines, _CLUSTERING_DATASET) == (3, message)
    with pytest.raises(IngestError) as info:
        parse_clustering("\n".join(lines), _CLUSTERING_DATASET)
    assert (str(info.value), info.value.line_no) == (f"line 3: {message}", 3)


def _one_wearer_clustering_files() -> list[str]:
    """Each wearer of the two-wearer file as a file of its own: its header and records."""
    X = np.arange(7 * 128, dtype=float).reshape(7, 128)
    one = dataset_from_matrix(X[:4], wearer="u1", image_prefix="img")
    two = dataset_from_matrix(X[4:], wearer="u2", image_prefix="img")
    return [
        serialize_clustering(
            {"u1": (one, clustering_from_clusters([[0, 2], [3]], 4, "ahc", {"seed": 1}, (1,)))}
        ),
        serialize_clustering(
            {"u2": (two, clustering_from_clusters([[0, 1, 2]], 3, "spectral", {"k": 1}))}
        ),
    ]


def test_concatenated_clustering_files_keep_every_header():
    first, second = _one_wearer_clustering_files()
    parsed = parse_clustering(first + second, _CLUSTERING_DATASET)
    assert (parsed["u1"].method_tag, parsed["u1"].params_used) == ("ahc", {"seed": 1})
    assert (parsed["u2"].method_tag, parsed["u2"].params_used) == ("spectral", {"k": 1})


def test_wearer_named_by_two_headers_is_rejected_on_the_later_one():
    first, second = _one_wearer_clustering_files()
    text = first + second + first.splitlines()[0] + "\n"
    line_no = len((first + second).splitlines()) + 1
    with pytest.raises(IngestError) as info:
        parse_clustering(text, _CLUSTERING_DATASET)
    message = "duplicate header for wearer 'u1', first seen on line 1"
    assert (str(info.value), info.value.line_no) == (f"line {line_no}: {message}", line_no)
