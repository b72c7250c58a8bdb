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

import contextvars
import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .ingest import (
    Dataset,
    IngestError,
    ObservationKey,
    _decode,
    _jsonl,
    _observation_key,
    _records,
)

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


@dataclass(frozen=True)
class MeanShiftParams:
    bandwidth: float | None = None  # None: median pairwise distance of a subsample

    def __post_init__(self):
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class SpectralParams:
    k: int = 2
    affinity_scale: float | None = None  # None: median pairwise distance of a subsample

    def __post_init__(self):
        if not self.k >= 1:
            raise ValueError(f"need 1 <= k, got k={self.k}")
        if self.affinity_scale is not None and not self.affinity_scale > 0:
            raise ValueError("affinity_scale must be positive")


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
    """An (n, d) float64 copy of the descriptors, and per-row names for error messages.

    ``observations`` is a 2-D array, whose rows are named by index, or a
    sequence of :class:`FaceObservation`, named by index and image.
    """
    if isinstance(observations, np.ndarray):
        X = np.asarray(observations, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("descriptor array must be 2-D")
        return X.copy(), [f"row {i}" for i in range(X.shape[0])]
    if not observations:
        raise ValueError("need at least one observation")
    X = np.stack([o.descriptor for o in observations])
    return X, [f"observation {i} (image {o.image_id!r})" for i, o in enumerate(observations)]


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared euclidean distances via the Gram expansion, clamped at zero."""
    ra = np.einsum("ij,ij->i", A, A)
    rb = np.einsum("ij,ij->i", B, B)
    d2 = ra[:, None] + rb[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


# Rows per block of the tiled passes over an n x n matrix and of _cut_groups'
# Gram products: temporaries stay small, and a tile and its transpose stay in cache.
_TILE = 256

# Rows per block of the elementwise passes over n x n rows, whose temporaries
# are block x n: every entry is computed on its own, so the block size
# changes no bit of the result, only the scratch memory.
_ROWS = 32

# Descriptor entries per gather of near-duplicate row pairs in _distances:
# each gathered (pairs, d) array of rows stays at 512 KiB, whatever d is.
_NEAR_ENTRIES = 65536


def _distances(X: np.ndarray, U: np.ndarray, euclidean: bool) -> np.ndarray:
    """The symmetric distances between rows of X, made in the Gram matrix of U.

    U is X (euclidean) or its unit rows (cosine, correlation). ``U @ U.T`` is
    the only n x n buffer, and one product: products of row blocks against
    the columns above the diagonal round differently. Each block of _ROWS
    rows, over the columns from its first row on, then:

    1. becomes distances in place: ``r_i + r_j - 2g`` clamped at 0 (squared
       euclidean, r the squared row norms), or ``1 - clip(g, -1, 1)``;
    2. has the entries above the diagonal at or below the near threshold,
       where the Gram form cancels, fixed: euclidean ones are recomputed from
       the row difference, the others are 0 where the rows are bit-identical,
       _NEAR_ENTRIES // d pairs of rows at a time;
    3. takes the square root (euclidean);
    4. is copied, transposed, onto the rows below it.

    The diagonal is zeroed last.
    """
    n, d = X.shape
    step = max(1, _NEAR_ENTRIES // max(d, 1))  # near pairs per gather
    D = U @ U.T
    if euclidean:
        r = np.einsum("ij,ij->i", X, X)
    for lo in range(0, n, _ROWS):
        hi = min(lo + _ROWS, n)
        block = D[lo:hi, lo:]
        if euclidean:
            rr = r[lo:hi, None] + r[None, lo:]
            block *= -2.0
            block += rr
            np.maximum(block, 0.0, out=block)
            rr += 1.0
            rr *= 1e-12
            near = block <= rr
        else:
            np.clip(block, -1.0, 1.0, out=block)
            np.subtract(1.0, block, out=block)
            near = block <= 1e-12
        lower = np.tril_indices(hi - lo)
        near[:, : hi - lo][lower] = False
        ii, jj = np.nonzero(near)
        for start in range(0, ii.size, step):
            si = ii[start : start + step]
            sj = jj[start : start + step]
            if euclidean:
                diff = X[si + lo] - X[sj + lo]
                block[si, sj] = np.einsum("ij,ij->i", diff, diff)
            else:
                same = (X[si + lo] == X[sj + lo]).all(axis=1)
                block[si[same], sj[same]] = 0.0
        if euclidean:
            np.sqrt(block, out=block)
        tile = block[:, : hi - lo]
        tile[lower] = tile.T[lower]
        D[hi:, lo:hi] = block[:, hi - lo :].T
    np.fill_diagonal(D, 0.0)
    return D


def _normalize_rows(X: np.ndarray, names: list[str]) -> None:
    """Scale each row of X to unit L2 length in place; a zero row raises."""
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise DegenerateVectorError(
            f"cannot normalize zero-length descriptor: {names[int(bad[0])]}"
        )
    X /= norms[:, None]


def _unit_rows(X: np.ndarray, metric: str, names: list[str]) -> np.ndarray:
    """The unit rows whose Gram matrix is one minus the cosine or correlation distances.

    These are the raw rows or, for correlation, the centred rows, each scaled
    to unit length; a zero (cosine) or constant (correlation) row raises.
    """
    U = X - X.mean(axis=1, keepdims=True) if metric == "correlation" else X
    norms = np.sqrt(np.einsum("ij,ij->i", U, U))
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        undefined = {
            "cosine": "cosine distance undefined for zero descriptor",
            "correlation": "correlation undefined for constant descriptor",
        }[metric]
        raise DegenerateVectorError(f"{undefined}: {names[int(bad[0])]}")
    return U / norms[:, None]


def _checked_rows(observations, metric: str, normalize: bool) -> tuple[np.ndarray, np.ndarray]:
    """The descriptors as the distances use them, and the rows whose products give them.

    The first is an (n, d) float64 copy, normalized if asked; the second is
    that copy (euclidean) or its unit rows (cosine, correlation). A row
    the metric cannot use raises :class:`DegenerateVectorError`, naming the
    row, or the observation and its image.
    """
    X, names = _descriptor_rows(observations)
    if normalize:
        _normalize_rows(X, names)  # X is this call's own copy
    return X, (X if metric == "euclidean" else _unit_rows(X, metric, names))


def compute_distances(
    observations,
    metric: str = "euclidean",
    normalize: bool = True,
) -> DistanceMatrix:
    """Exact pairwise dissimilarities between descriptors.

    ``observations`` is a 2-D descriptor array or a sequence of
    :class:`~egosocial.ingest.FaceObservation`.

    euclidean: L2 distance, after optional per-vector L2 normalization.
    cosine: 1 - cosine similarity.
    correlation: 1 - Pearson correlation (consistent with
        :func:`egosocial.consistency.pairwise_pearson_matrix`).

    Zero vectors under cosine, constant vectors under correlation, and zero
    vectors under normalization raise :class:`DegenerateVectorError` naming
    the row, or the observation and its image.

    Every metric takes one pass, :func:`_distances`: the result is the
    only n x n float64 buffer, made from the Gram matrix in place, 32 rows
    at a time, each block copied onto its mirror as it is done. The
    descriptors are copied once and normalized in that copy; cosine and
    correlation also hold their unit rows. Peak memory is therefore about
    one dense matrix plus O(32 * n) of temporaries and one or two (n, 128)
    descriptor arrays: 1.10x (euclidean) and 1.14x (cosine, correlation)
    n*n*8 bytes measured at n = 2,000, closer to 1x as n grows. Rows that
    are near-duplicates add gathered pairs of rows, 512 KiB of each side at
    a time.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    X, U = _checked_rows(observations, metric, normalize)
    return DistanceMatrix(entries=_distances(X, U, metric == "euclidean"), metric_tag=metric)


def _check_distance_matrix(dist: DistanceMatrix) -> float:
    """Reject non-finite, negative, asymmetric or non-zero-diagonal matrices.

    The range tests are two reductions (min is NaN if any entry is), and
    symmetry compares each 256 x 256 tile above the diagonal with its
    mirror, so no n x n temporary is made. When several faults are present
    the message names the first of the order above. Returns the largest
    entry (0.0 for an empty matrix).
    """
    E = dist.entries
    n = E.shape[0]
    if n == 0:
        return 0.0
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
    return float(highest)


# ---------------------------------------------------------------------------
# average-linkage agglomerative clustering


def _compress(parent: np.ndarray) -> None:
    """Point every node of a union-find forest straight at its root, in place."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return
        parent[:] = grand


def _union(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the sets of a[k] and b[k] for every k in a compressed forest.

    Each round hooks the larger root of every pair still apart under the
    smaller one (any one, where a root is in several pairs), so a root is
    always its set's smallest member, and every round leaves fewer roots.
    """
    while True:
        a, b = parent[a], parent[b]
        apart = a != b
        if not apart.any():
            return
        a, b = a[apart], b[apart]
        parent[np.maximum(a, b)] = np.minimum(a, b)
        _compress(parent)


def _joined(parent: np.ndarray, lo: int) -> bool:
    """Whether every node from lo on has one root in a compressed forest,
    so that no edge among them can join two sets."""
    roots = parent[lo:]
    return bool(roots[0] == roots[-1] and (roots == roots[0]).all())


def _components(parent: np.ndarray) -> list[np.ndarray]:
    """The sets of a compressed union-find forest, ordered by smallest member.

    Every root is its set's smallest member (see :func:`_union`), so a
    stable sort by root gives each set's members ascending, the sets in
    order of their smallest member.
    """
    order = np.argsort(parent, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(parent[order])) + 1)


def _cut_components(E: np.ndarray, threshold: float) -> list[np.ndarray]:
    """Connected components of the graph with an edge wherever E <= threshold.

    E is symmetric (:func:`_check_distance_matrix`), so its upper triangle
    holds every edge. It is read _ROWS rows at a time, and each block's
    edges are folded into the union-find :func:`_cut_groups` uses too.
    Components come out ordered by their smallest member, members ascending.

    The scan stops once every row from a block's first on has one root, so
    a giant component is labelled from its first blocks.
    """
    n = E.shape[0]
    parent = np.arange(n)
    for lo in range(0, n, _ROWS):
        if _joined(parent, lo):
            break
        ii, jj = np.nonzero(E[lo : lo + _ROWS, lo:] <= threshold)
        _union(parent, ii + lo, jj + lo)
    return _components(parent)


def _merge_loop(D: np.ndarray, cut: float) -> list[list[int]]:
    """Greedy average-linkage merges on one matrix, which is overwritten.

    Returns the member lists (indices into D) of the clusters left when the
    smallest average exceeds ``cut``. Dead slots and the diagonal hold +inf,
    so the Lance-Williams row of a merge already holds +inf wherever no live
    partner is, and plain row and column writes keep D symmetric.
    The cached row minima stay exact, so a merge's row ``a``, the first to hold
    the smallest one, is below its partner ``b``, whose row holds it too.
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
        b = int(row_arg[a])  # b > a: D is symmetric, and argmin takes the first minimum

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

    The same rounding care closes a component without the loop. If the
    largest entry M of a component's submatrix is at most the computed
    ``cut * (1 - kappa)``, the component ends as one cluster, and it is
    appended whole. When that holds for the largest entry of the whole
    matrix, which the matrix check finds anyway, every pair is an edge, and
    the one component is closed before any labelling. Every Lance-Williams
    value is a weighted mean of two values, each a weighted mean of entries
    <= M, rounded 3 times per merge: a product or sum that lands below
    2**-1022 is exact, and a quotient that does is at most 2**-1022. So
    after k merges every value is at most ``max(M, 2**-1022) * (1 + u)^(3k)``.
    A component of m <= n rows takes at most m - 1 merges, and the
    threshold rounds twice, so
    every value stays at most ``cut * (1 - kappa) * (1 + u)^(3n - 1)``,
    which is at most ``cut`` because ``(1 + u)^k <= 1 / (1 - k*u)``, and
    ``2**-1022 * (1 + u)^(3n) <= cut`` for ``cut >= 2**-1000``. Every
    product stays at most ``n * cut``, finite for ``cut <= 2**1000 / n``.
    Within that range of cuts the stop test never fires, and
    :func:`clustering_from_clusters` canonicalises the members; outside
    it, no component is closed this way. The margin is needed: distances
    an ulp or two below the cut can split a component by rounding.
    """
    highest = _check_distance_matrix(dist)
    if params.metric != dist.metric_tag:
        raise ValueError(
            f"params.metric {params.metric!r} does not match matrix metric {dist.metric_tag!r}"
        )
    n = dist.n
    if n == 0:
        raise ValueError("cannot cluster an empty distance matrix")

    params_used = {"method": "ahc", **vars(params)}
    cut = params.cut_threshold
    kappa = 4.0 * n * 2.0**-53
    tight = cut * (1.0 - kappa) if 2.0**-1000 <= cut <= 2.0**1000 / n else -1.0
    if highest <= tight:  # every pair is an edge: one component, closed as below
        return clustering_from_clusters([range(n)], n, "ahc", params_used)
    final: list[list[int]] = []
    for comp in _cut_components(dist.entries, cut * (1.0 + kappa)):
        if comp.size == 1:
            final.append([int(comp[0])])
            continue
        sub = dist.entries[np.ix_(comp, comp)]
        if sub.max() <= tight:
            final.append(comp.tolist())
            continue
        for local in _merge_loop(sub, cut):
            final.append(comp[local].tolist())
    final.sort(key=min)
    return clustering_from_clusters(final, n, "ahc", params_used)


# cluster_ahc groups the rows of an input larger than _BIN rows; a smaller
# input is one group, whose distance matrix is at most _BIN x _BIN (8 MiB).
_BIN = 1024

# Rows per group of a grouped input: whole cut-graph components are packed
# into groups of at most _PACK rows (a larger component is a group of its
# own), so most groups are one component and need only its own distances.
_PACK = 256


def _fold_blocks(parent: np.ndarray, block, n: int) -> None:
    """Fold the edges of every _TILE-row block of a cut graph into a union-find.

    ``block(lo)`` finds the edges of rows lo to lo + _TILE against the rows
    from lo on: as index pairs, or, where more than one pair in 16 is an
    edge, as the boolean block itself, so that a finished block never holds
    more than a byte per pair. Such a block is folded _ROWS rows at a time,
    without the pairs whose rows already share a root. Blocks are made on
    one thread per usable CPU, at most two per thread in flight, and only
    the calling thread folds them, in order. A block is made in a copy of
    the caller's context, so ``np.errstate``, a context variable since
    numpy 2, holds there as on the calling thread. No block is made once
    every row from lo on has one root.
    """

    def fold(lo: int, found) -> None:
        if isinstance(found, tuple):
            _union(parent, *found)
            return
        for top in range(lo, lo + found.shape[0], _ROWS):
            rows = found[top - lo : top - lo + _ROWS]
            rows &= parent[lo:] != parent[top : top + len(rows), None]
            ii, jj = np.nonzero(rows)
            _union(parent, ii + top, jj + lo)

    starts = range(0, n, _TILE)
    workers = min(len(os.sched_getaffinity(0)), len(starts))
    # Imported here: concurrent.futures (with logging) adds about 0.6 MB of
    # resident memory to every process that imports this module.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending: deque = deque()
        for lo in starts:
            if _joined(parent, lo):
                break
            pending.append((lo, pool.submit(contextvars.copy_context().run, block, lo)))
            if len(pending) == 2 * workers:
                done, future = pending.popleft()
                fold(done, future.result())
        for done, future in pending:
            fold(done, future.result())


def _cut_groups(A: np.ndarray, euclidean: bool, cut: float) -> list[np.ndarray]:
    """Whole cut-graph components of the rows of A, packed into groups of rows.

    A holds the checked descriptors (euclidean) or their unit rows (cosine,
    correlation). An edge joins two rows wherever the Gram form of their
    distance is within the cut plus a slack ``eps`` (see
    :func:`cluster_ahc`). The Gram matrix is formed in float32, or in
    float64 where the float32 proof does not hold, _TILE rows of the upper
    triangle at a time on the worker threads of :func:`_fold_blocks`, and
    each block's edges are folded into the union-find
    :func:`_cut_components` uses too, and dropped. Components, ordered by
    smallest member, are packed in that order into groups of at most
    ``_PACK`` rows; a larger component is a group of its own. Each group's
    rows are ascending.
    """
    n, d = A.shape
    r = np.einsum("ij,ij->i", A, A)
    u = 2.0**-24
    if d * u <= 2.0**-4 and 2.0**-64 <= r.min() and r.max() <= 2.0**64:
        eps = 2.0 * (d * u / (1.0 - d * u) + 8.0 * u + 4.0 * n * 2.0**-53)
        A = A.astype(np.float32)
    else:
        eps = 8.0 * (n + d + 8) * 2.0**-53
    t = cut * (1.0 + eps)
    half = None
    if euclidean:  # g_ij - h_j >= h_i - t^2 / 2
        half = r * ((1.0 - eps) / 2.0)
        least = half - t * t / 2.0
        half = half.astype(A.dtype, copy=False)
    else:  # g_ij >= 1 - t - eps
        least = np.full(n, 1.0 - t - eps)
    with np.errstate(over="ignore"):  # a least below float32's range is -inf: more edges
        least = least.astype(A.dtype, copy=False)

    def block(lo: int):
        G = A[lo : lo + _TILE] @ A[lo:].T
        if half is not None:
            G -= half[None, lo:]
        if not (-np.inf < G.min() and G.max() < np.inf):
            raise ValueError("distance matrix contains non-finite entries")
        edges = G >= least[lo : lo + _TILE, None]
        del G
        if np.count_nonzero(edges) > edges.size // 16:
            return edges
        ii, jj = np.nonzero(edges)
        ii += lo
        jj += lo
        return ii, jj

    parent = np.arange(n)
    _fold_blocks(parent, block, n)
    groups: list[list[np.ndarray]] = []
    filled = _PACK
    for comp in _components(parent):
        if filled + comp.size > _PACK:
            groups.append([])
            filled = 0
        groups[-1].append(comp)
        filled += comp.size
    return [np.sort(np.concatenate(group)) for group in groups]


def cluster_ahc(observations, params: AhcParams = AhcParams()) -> Clustering:
    """Average-linkage clustering of descriptors, one group of rows at a time.

    The descriptors are checked and normalized once, for every row, so a
    :class:`DegenerateVectorError` names the row or observation as
    :func:`compute_distances` on the whole input would. Then:

    1. Grouping. Rows are joined wherever the Gram form of their distance
       is within the cut plus a slack, and the components of that graph
       are packed, in order of their smallest member, into groups of at
       most ``_PACK`` rows (a larger component is a group of its own), so
       most groups are a single component. With n <= ``_BIN`` the whole
       input is one group and this step is skipped.
    2. Per group, :func:`compute_distances` on the group's rows and
       :func:`ahc_average_linkage`; the clusters are mapped back to global
       indices and ordered by smallest member.

    A group is a union of whole components of the cut graph of every
    pairwise distance, so the argument in :func:`ahc_average_linkage` holds
    unchanged: averages across groups never reach the cut, and the slot
    order inside a group is the global order. The partition is that of one
    loop over the whole matrix, up to how its Gram products round, which
    differs between row subsets and so can only matter for a merge decided
    by rounding.

    The slack can only widen groups. With u = 2**-53, d the descriptor
    length and gamma = d*u / (1 - d*u), any computed dot product of two
    rows is within gamma*|a|*|b| <= gamma*(r_a + r_b)/2 of the exact one,
    whatever the summation order, and so is each computed squared norm r.
    Euclidean: if :func:`compute_distances` gives a pair at most
    ``cut * (1 + kappa)`` (``kappa = 4 * n * u``, the widest bound
    :func:`ahc_average_linkage` uses), the exact squared distance is at most
    ``cut**2 * (1 + kappa)**2 * (1 + (d + 10) * u) + (2 * gamma + 4 * u) * (r_a + r_b)``
    (the Gram path, or the direct recompute of near-duplicates). The edge
    test ``g >= (r_a + r_b) / 2 * (1 - eps) - t**2 / 2`` with
    ``t = cut * (1 + eps)``, computed as ``g - h_b >= h_a - t**2 / 2`` with
    ``h = r * (1 - eps) / 2``, then holds whenever ``eps >= 4 * gamma + 12 * u``
    and ``eps >= kappa + (d + 16) * u``.
    Cosine and correlation: a computed distance at most ``cut * (1 + kappa)``
    puts the computed unit-row product at least
    ``1 - cut * (1 + kappa) * (1 + 3u) - 2 * gamma * (1 + (d + 2) u)``, and the
    edge test ``g >= 1 - t - eps`` holds whenever ``eps >= kappa + 8 * u`` and
    ``eps >= 2.1 * gamma + 3 * u`` (the unit rows are computed row by row, so
    they are the same floats in every call). ``eps = 8 * (n + d + 8) * u``
    meets all four with a factor of two to spare. A non-finite product
    raises the error :func:`ahc_average_linkage` gives a non-finite matrix.

    Float32 blocks. When d <= 2**20 and every computed squared norm r lies
    in [2**-64, 2**64], :func:`_cut_groups` rounds the rows, ``h`` and the
    least value ``h_a - t**2 / 2`` (or ``1 - t - eps``) to float32 and
    forms the products, the subtraction and the test there. Let v = 2**-24
    and gamma' = d*v / (1 - d*v). Rounding each entry moves the exact
    product of two rows by at most (2v + v**2)|a||b|, and the float32 dot
    product of the rounded rows is within gamma'|a'||b'| of that, whatever
    the order or use of fused multiply-adds (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1). Euclidean, with
    P = (r_a + r_b) / 2 >= |a||b| up to float64 terms: rounding ``h_b``,
    the difference ``g - h_b`` (at most 2P in size) and the least value
    adds v*P, 2v*P and v*(P + t**2 / 2), so the test holds whenever
    ``eps >= gamma' + 6v`` plus the float64 terms above, which stay under
    v for d <= 2**20, and ``eps >= kappa + v`` for the cut term. Cosine and
    correlation: |a||b| <= 1 + (d + 2)u, and the least value rounds by
    v * (1 + t + eps), so ``eps >= gamma' + 3v`` plus float64 terms and
    ``eps >= kappa + 2v`` suffice. ``eps = 2 * (gamma' + 8v + kappa)``
    meets them with gamma' + 8v + kappa to spare: at least 2**-85 in
    absolute terms (P >= 2**-64), or 2**-21 for unit rows. The spare covers
    float32 underflow, which the relative bounds leave out: an entry or a
    product below 2**-126 rounds by at most 2**-150 and sums there are
    exact, which adds at most (sqrt(d) * 2**32 + d) * 2**-149 <= 2**-105 to
    a product (|a| is about 2**32 at most) and 2**-150 to a least value.
    The range keeps every float32 value finite, at most about 2**65; a
    least value below float32's range rounds to -inf, which only adds
    edges. Rows outside the range, such as unnormalized descriptors of size
    1e-30 or 1e30, and non-finite rows keep float64 blocks and the eps
    above.

    Threads. The Gram blocks are made on one thread per usable CPU
    (``os.sched_getaffinity``), at most two blocks per thread in flight,
    and only the calling thread folds their edges into the union-find, in
    block order; a root is always its set's smallest member, so the
    components do not depend on that order. A worker runs numpy only: the
    product, the subtraction, the finiteness test, the edge mask and
    ``np.nonzero``. The pool is shut down before the grouping returns or
    raises, so no thread outlives it; with one usable CPU it has one worker.

    Memory is O(CPUs * _TILE * n) for the blocks in flight (a finished
    block holds at most a byte per pair), plus O(_PACK**2 + m**2) for one
    group's distances, where m is the largest component: never the whole
    n x n matrix unless one component spans the input.
    """
    X, A = _checked_rows(observations, params.metric, params.normalize_descriptors)
    n = X.shape[0]
    if n <= _BIN:
        return ahc_average_linkage(compute_distances(X, params.metric, normalize=False), params)
    groups = _cut_groups(A, params.metric == "euclidean", params.cut_threshold)
    del A

    final: list[list[int]] = []
    for group in groups:
        rows = X if group.size == n else X[group]  # one component spans the input
        dist = compute_distances(rows, params.metric, normalize=False)
        del rows
        local = ahc_average_linkage(dist, params)
        del dist  # the next group's matrix is made without this one
        final.extend(group[list(c)].tolist() for c in local.clusters)
    final.sort(key=min)
    return clustering_from_clusters(final, n, "ahc", {"method": "ahc", **vars(params)})


# ---------------------------------------------------------------------------
# baselines


# Observations estimate_bandwidth samples, and Lloyd iterations _kmeans runs at most.
_BANDWIDTH_SAMPLE = 500
_KMEANS_ITER = 300


def estimate_bandwidth(observations, seed: int = 0) -> float:
    """Median pairwise euclidean distance over _BANDWIDTH_SAMPLE observations
    drawn with ``seed``, or over all of them when there are no more."""
    X, _ = _descriptor_rows(observations)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations to estimate a bandwidth")
    if n > _BANDWIDTH_SAMPLE:
        rng = np.random.default_rng(seed)
        X = X[np.sort(rng.choice(n, size=_BANDWIDTH_SAMPLE, replace=False))]
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
    if not bandwidth > 0:
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


def _kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
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
    for _ in range(_KMEANS_ITER):
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
    if not affinity_scale > 0:
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

    ``seed`` draws the subsample on which :func:`estimate_bandwidth` estimates
    a mean-shift bandwidth or spectral affinity scale left as None, and seeds
    the spectral k-means.
    """
    if isinstance(params, AhcParams):
        return cluster_ahc(observations, params)
    if isinstance(params, MeanShiftParams):
        bandwidth = params.bandwidth
        if bandwidth is None:
            bandwidth = estimate_bandwidth(observations, seed=seed)
        return meanshift(observations, bandwidth)
    if isinstance(params, SpectralParams):
        scale = params.affinity_scale
        if scale is None:
            scale = estimate_bandwidth(observations, seed=seed)
        return spectral(observations, params.k, affinity_scale=scale, seed=seed)
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
    records = []
    for wearer in sorted(per_wearer):
        dataset, clustering = per_wearer[wearer]
        headers[wearer] = {"method": clustering.method_tag, "params": clustering.params_used}
        records.extend(
            {
                "wearer_id": obs.wearer_id,
                "image_id": obs.image_id,
                "face_index": obs.face_index,
                "cluster_id": int(clustering.assignment[idx]),
            }
            for idx, obs in enumerate(dataset.observations)
        )
    return CLUSTERING_HEADER + json.dumps(headers, sort_keys=True) + "\n" + _jsonl(records)


def _clustering_header(line: str, line_no: int) -> dict:
    header = _decode(line[len(CLUSTERING_HEADER) :], "clustering header", line_no)
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


def _clustering_record(rec: dict, line_no: int) -> tuple[ObservationKey, int]:
    """The observation a clustering record names, and its cluster id (>= -1)."""
    key, _ = _observation_key(rec, line_no)
    cid = rec["cluster_id"]
    if type(cid) is not int or cid < -1:
        raise IngestError(f"cluster_id must be an integer >= -1, got {cid!r}", line_no)
    return key, cid


def parse_clustering(text: str, dataset: Dataset) -> dict[str, Clustering]:
    """Rebuild per-wearer clusterings from their line-record form.

    Records must cover exactly the observations of each wearer present in
    the file; the dataset's per-wearer index supplies observation order. A
    malformed header or record raises :class:`IngestError` with its line
    number. ``text`` is the whole file, not an open one, because the headers
    are read before the records; its lines are numbered as the other readers
    number theirs. The header lines' maps are merged; a wearer that an
    earlier header names already is rejected on the later header's line.
    """
    lines = text.splitlines()
    headers: dict = {}
    named: dict[str, int] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith(CLUSTERING_HEADER):
            for wearer, meta in _clustering_header(line, line_no).items():
                if wearer in named:
                    raise IngestError(
                        f"duplicate header for wearer {wearer!r}, "
                        f"first seen on line {named[wearer]}",
                        line_no,
                    )
                named[wearer] = line_no
                headers[wearer] = meta

    records: dict[str, dict[tuple[str, int], tuple[int, int]]] = {}
    for line_no, ((wearer, image, face), cid) in _records(
        lines, _CLUSTERING_FIELDS, _clustering_record
    ):
        own = records.setdefault(wearer, {})
        if (image, face) in own:
            raise IngestError(
                f"duplicate record for {(wearer, image, face)}, "
                f"first seen on line {own[image, face][1]}",
                line_no,
            )
        own[image, face] = (cid, line_no)

    out: dict[str, Clustering] = {}
    for wearer in sorted(records):
        own = records[wearer]
        part = dataset._wearer_index.get(wearer)
        obs = part.observations if part else []
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
