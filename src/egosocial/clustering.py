"""Grouping face descriptors into identity clusters.

The proposed re-identification method is average-linkage agglomerative
hierarchical clustering over a pairwise dissimilarity matrix, cut at a
distance threshold so no prior person count is needed. Flat-kernel mean
shift and normalized-cut spectral clustering are provided as baselines
for method comparison.

Everything here is deterministic: merge ties break on the smallest
(cluster id, cluster id) pair, mean-shift has no randomness, and spectral
clustering is seeded. Repeat runs on identical inputs are bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .ingest import Dataset, FaceObservation, IngestError, _iter_lines, _record

METRICS = ("euclidean", "cosine", "correlation")


class DegenerateVectorError(ValueError):
    """A descriptor is unusable under the requested metric (zero or constant)."""


class NumericFailureError(RuntimeError):
    """A numerical routine (eigensolver) failed to converge."""


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise dissimilarities with the metric that produced them."""

    entries: np.ndarray
    metric_tag: str

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("distance matrix must be square")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if self.metric_tag not in METRICS:
            raise ValueError(f"metric_tag must be one of {METRICS}")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class AhcParams:
    """Average-linkage configuration: metric, dendrogram cut, normalization."""

    metric: str = "euclidean"
    cut_threshold: float = 0.9
    normalize_descriptors: bool = True

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if not self.cut_threshold > 0:
            raise ValueError("cut_threshold must be positive")

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "cut_threshold": self.cut_threshold,
            "normalize_descriptors": self.normalize_descriptors,
        }


@dataclass(frozen=True)
class MeanShiftParams:
    bandwidth: float | None = None  # None: median pairwise distance of a subsample
    max_iter: int = 300
    tol: float = 1e-6

    def to_dict(self) -> dict:
        return {"bandwidth": self.bandwidth, "max_iter": self.max_iter, "tol": self.tol}


@dataclass(frozen=True)
class SpectralParams:
    k: int = 2
    affinity_scale: float | None = None  # None: median pairwise distance of a subsample
    seed: int = 0

    def to_dict(self) -> dict:
        return {"k": self.k, "affinity_scale": self.affinity_scale, "seed": self.seed}


MethodParams = AhcParams | MeanShiftParams | SpectralParams


@dataclass(frozen=True)
class Clustering:
    """A partition of observation indices into identity clusters.

    ``assignment[i]`` is the cluster id of observation i, or -1 when the
    observation sits in the ``discarded`` pool (populated by the
    consistency filter; never silently deleted). Cluster ids are dense
    from 0 and each cluster's member list is ascending.
    """

    assignment: tuple[int, ...]
    clusters: tuple[tuple[int, ...], ...]
    method_tag: str
    params_used: Mapping[str, object] = field(default_factory=dict)
    discarded: tuple[int, ...] = ()

    @property
    def n_observations(self) -> int:
        return len(self.assignment)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def labels(self) -> np.ndarray:
        return np.asarray(self.assignment, dtype=np.int64)


def validate_clustering(clustering: Clustering) -> None:
    """Raise if the assignment/clusters cross-check fails."""
    seen = np.full(clustering.n_observations, -2, dtype=np.int64)
    for cid, members in enumerate(clustering.clusters):
        if not members:
            raise ValueError(f"cluster {cid} is empty")
        if list(members) != sorted(members):
            raise ValueError(f"cluster {cid} member list is not ascending")
        for m in members:
            if seen[m] != -2:
                raise ValueError(f"observation {m} assigned more than once")
            seen[m] = cid
    for m in clustering.discarded:
        if seen[m] != -2:
            raise ValueError(f"observation {m} both clustered and discarded")
        seen[m] = -1
    if np.any(seen == -2):
        missing = int(np.flatnonzero(seen == -2)[0])
        raise ValueError(f"observation {missing} is unassigned")
    if list(clustering.assignment) != seen.tolist():
        raise ValueError("assignment map disagrees with cluster member lists")


def clustering_from_clusters(
    clusters: Sequence[Sequence[int]],
    n_observations: int,
    method_tag: str,
    params_used: Mapping[str, object],
    discarded: tuple[int, ...] = (),
) -> Clustering:
    """Build a validated Clustering from member lists (order preserved)."""
    canon = tuple(tuple(sorted(c)) for c in clusters)
    assignment = np.full(n_observations, -1, dtype=np.int64)
    for cid, members in enumerate(canon):
        assignment[list(members)] = cid
    clustering = Clustering(
        assignment=tuple(int(a) for a in assignment),
        clusters=canon,
        method_tag=method_tag,
        params_used=dict(params_used),
        discarded=tuple(sorted(discarded)),
    )
    validate_clustering(clustering)
    return clustering


def clustering_from_labels(
    labels: Sequence[int] | np.ndarray,
    method_tag: str,
    params_used: Mapping[str, object],
) -> Clustering:
    """Build a Clustering from a flat label vector; ids densified by first appearance."""
    labels = np.asarray(labels)
    order: dict[int, int] = {}
    members: list[list[int]] = []
    for i, lab in enumerate(labels.tolist()):
        if lab not in order:
            order[lab] = len(members)
            members.append([])
        members[order[lab]].append(i)
    return clustering_from_clusters(members, len(labels), method_tag, params_used)


# ---------------------------------------------------------------------------
# distance computation


def _descriptor_rows(observations) -> tuple[np.ndarray, list[str]]:
    """Extract an (n, d) float matrix and per-row names for error messages."""
    if isinstance(observations, Dataset):
        observations = observations.observations
    if isinstance(observations, np.ndarray):
        X = np.asarray(observations, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("descriptor array must be 2-D")
        return X.copy(), [f"row {i}" for i in range(X.shape[0])]
    rows = list(observations)
    if not rows:
        raise ValueError("need at least one observation")
    if isinstance(rows[0], FaceObservation):
        X = np.stack([o.descriptor for o in rows])
        names = [f"observation {i} (image {o.image_id!r})" for i, o in enumerate(rows)]
        return X, names
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("descriptor array must be 2-D")
    return X.copy(), [f"row {i}" for i in range(X.shape[0])]


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared euclidean distances via the Gram expansion, clamped at zero."""
    ra = np.einsum("ij,ij->i", A, A)
    rb = np.einsum("ij,ij->i", B, B)
    d2 = ra[:, None] + rb[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _zero_identical_rows(D: np.ndarray, X: np.ndarray, floor: float) -> None:
    """Force exact zeros where rows are bit-identical (fp floor entries only)."""
    ii, jj = np.nonzero(D <= floor)
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i != j and np.array_equal(X[i], X[j]):
            D[i, j] = 0.0


# Rows per block in the blocked n x n passes below: a block's temporaries stay
# a small fraction of the matrix, and a transposed block copy stays in cache.
_TILE = 256


def _mirror_upper(D: np.ndarray) -> None:
    """Copy the strict upper triangle onto the lower one in place; zero the diagonal."""
    n = D.shape[0]
    for lo in range(0, n, _TILE):
        hi = min(lo + _TILE, n)
        tile = D[lo:hi, lo:hi]
        below = np.tril_indices(hi - lo, -1)
        tile[below] = tile.T[below]
        D[hi:, lo:hi] = D[lo:hi, hi:].T
    np.fill_diagonal(D, 0.0)


def _euclidean_upper(X: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows of X, valid on and above the diagonal.

    One Gram matrix is the only n x n buffer: each block of rows is turned
    into distances in place, over the columns from its first row on.
    """
    n = X.shape[0]
    r = np.einsum("ij,ij->i", X, X)
    D = X @ X.T
    for lo in range(0, n, _TILE):
        hi = min(lo + _TILE, n)
        d2 = D[lo:hi, lo:]
        rr = r[lo:hi, None] + r[None, lo:]
        d2 *= -2.0
        d2 += rr
        np.maximum(d2, 0.0, out=d2)
        # The Gram expansion cancels catastrophically for near-duplicates;
        # recompute those entries directly so tiny distances stay exact.
        rr += 1.0
        rr *= 1e-12
        suspect = d2 <= rr
        suspect[:, : hi - lo][np.tril_indices(hi - lo)] = False
        ii, jj = np.nonzero(suspect)
        for start in range(0, ii.size, 65536):
            si = ii[start : start + 65536]
            sj = jj[start : start + 65536]
            diff = X[si + lo] - X[sj + lo]
            d2[si, sj] = np.einsum("ij,ij->i", diff, diff)
        np.sqrt(d2, out=d2)
    return D


def _one_minus_gram(U: np.ndarray) -> np.ndarray:
    """1 - clip(U U^T, -1, 1) for unit rows, in the Gram buffer itself."""
    D = U @ U.T
    np.clip(D, -1.0, 1.0, out=D)
    np.subtract(1.0, D, out=D)
    return D


def compute_distances(
    observations,
    metric: str = "euclidean",
    normalize: bool = True,
) -> DistanceMatrix:
    """Exact pairwise dissimilarities between descriptors.

    euclidean: L2 distance, after optional per-vector L2 normalization.
    cosine: 1 - cosine similarity.
    correlation: 1 - Pearson correlation (consistent with
        :func:`egosocial.consistency.pearson`).

    Zero vectors under cosine, constant vectors under correlation, and zero
    vectors under normalization raise :class:`DegenerateVectorError` naming
    the observation.

    The result is the only n x n float64 buffer: the Gram matrix is turned
    into distances in place, 256 rows at a time, and the upper triangle is
    then copied onto the lower one block by block. Peak memory is therefore
    about one dense matrix plus O(256 * n) of temporaries and the (n, 128)
    descriptor copies: 1.33x n*n*8 bytes measured at n = 2,000, closer to 1x
    as n grows.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    X, names = _descriptor_rows(observations)
    n = X.shape[0]

    if normalize:
        norms = np.sqrt(np.einsum("ij,ij->i", X, X))
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise DegenerateVectorError(
                f"cannot normalize zero-length descriptor: {names[int(bad[0])]}"
            )
        X = X / norms[:, None]

    if metric == "euclidean":
        D = _euclidean_upper(X)
    elif metric == "cosine":
        norms = np.sqrt(np.einsum("ij,ij->i", X, X))
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise DegenerateVectorError(
                f"cosine distance undefined for zero descriptor: {names[int(bad[0])]}"
            )
        D = _one_minus_gram(X / norms[:, None])
        _zero_identical_rows(D, X, 1e-12)
    else:  # correlation
        centered = X - X.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise DegenerateVectorError(
                f"correlation undefined for constant descriptor: {names[int(bad[0])]}"
            )
        D = _one_minus_gram(centered / norms[:, None])
        _zero_identical_rows(D, X, 1e-12)

    _mirror_upper(D)
    return DistanceMatrix(entries=D, metric_tag=metric)


def _check_distance_matrix(dist: DistanceMatrix) -> None:
    """Reject non-finite, negative, asymmetric or non-zero-diagonal matrices.

    The range tests are two reductions (min is NaN if any entry is), and
    symmetry compares each 256 x 256 tile above the diagonal with its
    mirror, so no n x n temporary is made. When several faults are present
    the message names the first of the order above.
    """
    E = dist.entries
    n = E.shape[0]
    if n == 0:
        return
    lowest, highest = E.min(), E.max()
    if not (-np.inf < lowest and highest < np.inf):
        raise ValueError("distance matrix contains non-finite entries")
    if lowest < 0:
        raise ValueError("distance matrix contains negative entries")
    for lo in range(0, n, _TILE):
        for lo2 in range(lo, n, _TILE):
            tile = E[lo : lo + _TILE, lo2 : lo2 + _TILE]
            mirror = E[lo2 : lo2 + _TILE, lo : lo + _TILE]
            if not np.array_equal(tile, mirror.T):
                raise ValueError("distance matrix is not symmetric")
    if np.any(np.diagonal(E) != 0.0):
        raise ValueError("distance matrix diagonal must be zero")


# ---------------------------------------------------------------------------
# average-linkage agglomerative clustering


def _cut_components(E: np.ndarray, threshold: float) -> list[np.ndarray]:
    """Connected components of the graph with an edge wherever E <= threshold.

    Breadth-first search that scans each row once, when its node is in the
    frontier, so the whole labelling is one pass over E. Components come
    out ordered by their smallest member, members ascending.
    """
    n = E.shape[0]
    seen = np.zeros(n, dtype=bool)
    components = []
    for seed in range(n):
        if seen[seed]:
            continue
        seen[seed] = True
        frontier = np.array([seed])
        found = [frontier]
        while frontier.size:
            reach = np.zeros(n, dtype=bool)
            for lo in range(0, frontier.size, _TILE):
                reach |= (E[frontier[lo : lo + _TILE]] <= threshold).any(axis=0)
            frontier = np.flatnonzero(reach & ~seen)
            seen[frontier] = True
            found.append(frontier)
        components.append(np.sort(np.concatenate(found)))
    return components


def _merge_loop(D: np.ndarray, cut: float) -> list[list[int]]:
    """Greedy average-linkage merges on one matrix, which is overwritten.

    Returns the member lists (indices into D) of the clusters left when the
    smallest average exceeds ``cut``. Dead slots and the diagonal hold +inf,
    so the Lance-Williams row of a merge already holds +inf wherever no live
    partner is, and plain row and column writes keep D symmetric.
    """
    m = D.shape[0]
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(m, dtype=np.int64)
    members: list[list[int] | None] = [[i] for i in range(m)]

    # Cached per-row minima; argmin's first-occurrence rule gives the
    # smallest partner id, which realizes the lexicographic tie-break.
    # Dead rows hold (+inf, -1), so they never win and are never stale.
    row_arg = D.argmin(axis=1)
    row_min = D[np.arange(m), row_arg]

    n_active = m
    while n_active > 1:
        a = int(row_min.argmin())
        if not row_min[a] <= cut:
            break
        b = int(row_arg[a])
        if b < a:
            a, b = b, a

        sa, sb = int(sizes[a]), int(sizes[b])
        merged_row = (sa * D[a] + sb * D[b]) / (sa + sb)
        D[a] = merged_row
        D[:, a] = merged_row
        D[b] = np.inf
        D[:, b] = np.inf

        sizes[a] = sa + sb
        row_min[b] = np.inf
        row_arg[b] = -1
        members[a].extend(members[b])  # type: ignore[union-attr]
        members[b] = None
        n_active -= 1
        if n_active == 1:
            break

        # Rescan row a and every row whose cached partner was a or b.
        stale = row_arg == a
        stale |= row_arg == b
        stale[a] = True
        ks = np.flatnonzero(stale)
        args = D[ks].argmin(axis=1)
        row_arg[ks] = args
        row_min[ks] = D[ks, args]
        # Column a changed. A rescanned row already agrees with it, so this
        # update is a no-op there, and dead rows see +inf against +inf.
        change = merged_row == row_min
        change &= row_arg > a
        change |= merged_row < row_min
        change[a] = False
        np.minimum(row_min, merged_row, out=row_min)
        row_arg[change] = a

    return [ms for ms in members if ms is not None]


def ahc_average_linkage(dist: DistanceMatrix, params: AhcParams) -> Clustering:
    """Unweighted pair-group average-linkage clustering with a distance cut.

    Repeatedly merges the two clusters whose mean cross-pair dissimilarity
    is smallest, until that minimum exceeds ``params.cut_threshold``. The
    merged cluster keeps the smaller of the two slot ids, and distance ties
    break on the smallest (id, id) pair, so runs are reproducible
    bit-for-bit and independent of input order.

    The merge loop runs once per connected component of the graph with an
    edge wherever ``d <= cut * (1 + kappa)``, on that component's own
    submatrix. This gives exactly the merges of one loop over the whole
    matrix:

    * Every pair in different components is above ``cut * (1 + kappa)``,
      and the average of values above a bound is above it too, so no
      cluster distance across components can reach the cut. Such distances
      only ever decide that the loop stops, which each component's loop
      decides by itself.
    * Merges in one component leave the cluster distances of every other
      component untouched. The global loop's next merge is the smallest
      (distance, id, id) over all components; the per-component loops
      perform the same merges, in component order instead of interleaved,
      and the slot order inside a submatrix is the global order, so each
      tie breaks the same way.

    ``kappa`` covers the rounding of the computed averages. A merge row is
    ``fl(fl(fl(sa*x) + fl(sb*y)) / (sa + sb))`` with exact integer sizes, so
    it is at least ``(1 - u)^3`` times the exact weighted mean of ``x`` and
    ``y`` (``u = 2**-53``). A cluster distance is at most n - 1 merges deep,
    and forming the threshold ``cut * (1 + kappa)`` rounds twice more, so a
    cross-component value is at least ``cut * (1 + kappa) * (1 - u)^(3n-1)``,
    which is above ``cut`` for ``kappa = 4 * n * u`` (then
    ``kappa * (1 - 3nu) > 3nu`` for every n < 2**49).
    """
    _check_distance_matrix(dist)
    if params.metric != dist.metric_tag:
        raise ValueError(
            f"params.metric {params.metric!r} does not match matrix metric {dist.metric_tag!r}"
        )
    n = dist.n
    if n == 0:
        raise ValueError("cannot cluster an empty distance matrix")

    params_used = {"method": "ahc", **params.to_dict()}
    cut = params.cut_threshold
    kappa = 4.0 * n * 2.0**-53
    final: list[list[int]] = []
    for comp in _cut_components(dist.entries, cut * (1.0 + kappa)):
        if comp.size == 1:
            final.append([int(comp[0])])
            continue
        for local in _merge_loop(dist.entries[np.ix_(comp, comp)], cut):
            final.append(comp[local].tolist())
    final.sort(key=min)
    return clustering_from_clusters(final, n, "ahc", params_used)


def cluster_ahc(observations, params: AhcParams = AhcParams()) -> Clustering:
    """Convenience wrapper: pairwise distances plus the average-linkage merge."""
    dist = compute_distances(
        observations, metric=params.metric, normalize=params.normalize_descriptors
    )
    return ahc_average_linkage(dist, params)


# ---------------------------------------------------------------------------
# baselines


def estimate_bandwidth(observations, sample_size: int = 500, seed: int = 0) -> float:
    """Median pairwise euclidean distance over a seeded subsample."""
    X, _ = _descriptor_rows(observations)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations to estimate a bandwidth")
    if n > sample_size:
        rng = np.random.default_rng(seed)
        X = X[np.sort(rng.choice(n, size=sample_size, replace=False))]
    d2 = _sq_dists(X, X)
    vals = np.sqrt(d2[np.triu_indices(X.shape[0], k=1)])
    return float(np.median(vals))


def meanshift(
    observations,
    bandwidth: float,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> Clustering:
    """Flat-kernel mean-shift mode seeking, one trajectory per point.

    Each point iterates to the mean of the points within ``bandwidth`` of
    its current position until the shift falls below ``tol``. Points whose
    converged modes lie within ``bandwidth / 2`` of each other share a
    cluster. Trajectories still moving after ``max_iter`` are labeled from
    their last mode and counted in ``params_used['unconverged']``.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    X, _ = _descriptor_rows(observations)
    n = X.shape[0]
    modes = X.copy()
    active = np.arange(n)
    bw2 = bandwidth * bandwidth
    tol2 = tol * tol
    for _ in range(max_iter):
        if active.size == 0:
            break
        M = modes[active]
        d2 = _sq_dists(M, X)
        nbr = (d2 <= bw2).astype(np.float64)
        counts = nbr.sum(axis=1)
        shifted = (nbr @ X) / counts[:, None]
        move2 = np.einsum("ij,ij->i", shifted - M, shifted - M)
        modes[active] = shifted
        active = active[move2 > tol2]
    unconverged = int(active.size)

    # Merge modes within half a bandwidth; the first point's mode anchors
    # each cluster, so the grouping is deterministic.
    reps: list[np.ndarray] = []
    labels = np.empty(n, dtype=np.int64)
    half2 = (bandwidth / 2.0) ** 2
    for i in range(n):
        assigned = -1
        if reps:
            d2 = np.einsum("ij,ij->i", np.asarray(reps) - modes[i], np.asarray(reps) - modes[i])
            hits = np.flatnonzero(d2 <= half2)
            if hits.size:
                assigned = int(hits[0])
        if assigned < 0:
            reps.append(modes[i])
            assigned = len(reps) - 1
        labels[i] = assigned

    params_used = {
        "method": "meanshift",
        "bandwidth": bandwidth,
        "max_iter": max_iter,
        "tol": tol,
        "unconverged": unconverged,
    }
    return clustering_from_labels(labels, "meanshift", params_used)


def _kmeans(points: np.ndarray, k: int, seed: int, max_iter: int = 300) -> np.ndarray:
    """Seeded k-means++ plus Lloyd iterations; deterministic per seed."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2min = _sq_dists(points, points[chosen[-1]][None, :])[:, 0]
    while len(chosen) < k:
        total = float(d2min.sum())
        if total > 0.0:
            pick = int(rng.choice(n, p=d2min / total))
        else:
            remaining = sorted(set(range(n)) - set(chosen))
            pick = remaining[0]
        chosen.append(pick)
        d2min = np.minimum(d2min, _sq_dists(points, points[pick][None, :])[:, 0])

    centers = points[chosen].copy()
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = _sq_dists(points, centers)
        new_labels = d2.argmin(axis=1)
        own = d2[np.arange(n), new_labels].copy()
        for c in range(k):
            if not np.any(new_labels == c):
                # Reseed an empty cluster with the worst-served point; mark
                # it served so two empty clusters never grab the same point.
                far = int(np.argmax(own))
                new_labels[far] = c
                centers[c] = points[far]
                own[far] = -np.inf
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return labels


def spectral(
    observations,
    k: int,
    affinity_scale: float,
    seed: int = 0,
) -> Clustering:
    """Normalized-cut spectral clustering with a Gaussian affinity.

    Affinity exp(-d^2 / (2 * affinity_scale^2)) over euclidean distances,
    symmetric normalized Laplacian, rows of the k bottom eigenvectors unit
    normalized and grouped by seeded k-means.
    """
    X, _ = _descriptor_rows(observations)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    if affinity_scale <= 0:
        raise ValueError("affinity_scale must be positive")

    d2 = _sq_dists(X, X)
    A = np.exp(-d2 / (2.0 * affinity_scale * affinity_scale))
    deg = A.sum(axis=1)  # >= 1 because the self-affinity is 1
    dinv = 1.0 / np.sqrt(deg)
    L = np.eye(n) - dinv[:, None] * A * dinv[None, :]
    L = (L + L.T) / 2.0
    try:
        _, vecs = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc
    E = vecs[:, :k]
    norms = np.sqrt(np.einsum("ij,ij->i", E, E))
    E = E / np.where(norms > 0.0, norms, 1.0)[:, None]
    labels = _kmeans(E, k, seed)

    params_used = {
        "method": "spectral",
        "k": k,
        "affinity_scale": affinity_scale,
        "seed": seed,
    }
    return clustering_from_labels(labels, "spectral", params_used)


def cluster(observations, params: MethodParams, seed: int = 0) -> Clustering:
    """Cluster with the method ``params`` selects.

    A mean-shift bandwidth or spectral affinity scale left as None is
    estimated with :func:`estimate_bandwidth` on a subsample drawn with
    ``seed``; the spectral k-means keeps its own ``params.seed``.
    """
    if isinstance(params, AhcParams):
        return cluster_ahc(observations, params)
    if isinstance(params, MeanShiftParams):
        bandwidth = params.bandwidth
        if bandwidth is None:
            bandwidth = estimate_bandwidth(observations, seed=seed)
        return meanshift(observations, bandwidth, max_iter=params.max_iter, tol=params.tol)
    if isinstance(params, SpectralParams):
        scale = params.affinity_scale
        if scale is None:
            scale = estimate_bandwidth(observations, seed=seed)
        return spectral(observations, params.k, affinity_scale=scale, seed=params.seed)
    raise TypeError(f"no clustering method takes {type(params).__name__}")


# ---------------------------------------------------------------------------
# serialization: one record per observation plus a params header block


CLUSTERING_HEADER = "# egosocial-clustering v1 "


def serialize_clustering(
    per_wearer: Mapping[str, tuple[Dataset, Clustering]],
) -> str:
    """Line-record form of one or more per-wearer clusterings.

    The header block carries method and parameters; each record maps an
    observation key to its wearer-scoped cluster id (-1 = discarded pool).
    """
    headers = {}
    lines = []
    for wearer in sorted(per_wearer):
        dataset, clustering = per_wearer[wearer]
        headers[wearer] = {
            "method": clustering.method_tag,
            "params": _jsonable(clustering.params_used),
        }
        for idx, obs in enumerate(dataset.observations):
            lines.append(
                json.dumps(
                    {
                        "wearer_id": obs.wearer_id,
                        "image_id": obs.image_id,
                        "face_index": obs.face_index,
                        "cluster_id": int(clustering.assignment[idx]),
                    }
                )
            )
    header = CLUSTERING_HEADER + json.dumps(headers, sort_keys=True)
    return "\n".join([header] + lines) + "\n"


def _clustering_header(line: str, line_no: int) -> dict:
    try:
        header = json.loads(line[len(CLUSTERING_HEADER) :])
    except json.JSONDecodeError as exc:
        raise IngestError(f"malformed clustering header: {exc.msg}", line_no) from None
    if not isinstance(header, dict) or not all(
        isinstance(meta, dict)
        and isinstance(meta.get("method", ""), str)
        and isinstance(meta.get("params", {}), dict)
        for meta in header.values()
    ):
        raise IngestError(
            "clustering header must map wearer ids to {method, params} objects", line_no
        )
    return header


_CLUSTERING_FIELDS = ("wearer_id", "image_id", "face_index", "cluster_id")


def parse_clustering(text: str, dataset: Dataset) -> dict[str, Clustering]:
    """Rebuild per-wearer clusterings from their line-record form.

    Records must cover exactly the observations of each wearer present in
    the file; the dataset supplies observation order. A malformed header or
    record raises :class:`IngestError` with its line number.
    """
    lines = text.splitlines()
    headers: dict = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith(CLUSTERING_HEADER):
            headers = _clustering_header(line, line_no)

    records: dict[str, dict[tuple[str, int], tuple[int, int]]] = {}
    for line_no, line in _iter_lines(lines):
        rec = _record(line, line_no)
        missing = [f for f in _CLUSTERING_FIELDS if f not in rec]
        if missing:
            raise IngestError(f"missing fields {missing}", line_no)
        wearer, image = rec["wearer_id"], rec["image_id"]
        face, cid = rec["face_index"], rec["cluster_id"]
        if not (isinstance(wearer, str) and isinstance(image, str)):
            raise IngestError("wearer_id and image_id must be strings", line_no)
        if not isinstance(face, int) or isinstance(face, bool) or face < 0:
            raise IngestError(f"face_index must be a non-negative integer, got {face!r}", line_no)
        if not isinstance(cid, int) or isinstance(cid, bool) or cid < -1:
            raise IngestError(f"cluster_id must be an integer >= -1, got {cid!r}", line_no)
        own = records.setdefault(wearer, {})
        if (image, face) in own:
            raise IngestError(
                f"duplicate record for {(wearer, image, face)}, "
                f"first seen on line {own[image, face][1]}",
                line_no,
            )
        own[image, face] = (cid, line_no)

    by_wearer: dict[str, list[FaceObservation]] = {}
    for o in dataset.observations:
        by_wearer.setdefault(o.wearer_id, []).append(o)
    out: dict[str, Clustering] = {}
    for wearer in sorted(records):
        own = records[wearer]
        obs = by_wearer.get(wearer, [])
        keys = [(o.image_id, o.face_index) for o in obs]
        stray = own.keys() - set(keys)
        if stray:
            line_no = min(own[key][1] for key in stray)
            raise IngestError("record names no observation in the dataset", line_no)
        labels: list[int] = []
        for o, key in zip(obs, keys):
            if key not in own:
                raise ValueError(f"clustering file lacks a record for {o.key}")
            labels.append(own[key][0])
        clusters: dict[int, list[int]] = {}
        for idx, cid in enumerate(labels):
            if cid >= 0:
                clusters.setdefault(cid, []).append(idx)
        meta = headers.get(wearer, {})
        out[wearer] = clustering_from_clusters(
            [clusters[c] for c in sorted(clusters)],
            n_observations=len(obs),
            method_tag=meta.get("method", "ahc"),
            params_used=meta.get("params", {}),
            discarded=tuple(idx for idx, cid in enumerate(labels) if cid == -1),
        )
    return out


def _jsonable(value):
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value
