"""Cluster robustness scoring and filtering via Pearson correlation.

Identity clusters are scored by the mean pairwise Pearson correlation of
their member descriptors. Clusters with a high mean (>= 0.8 by default)
are robust and kept intact; clusters with a low mean (< 0.4) are rejected
outright; clusters in between are pruned member-by-member: while the
member with the lowest mean correlation to the rest falls below the
member floor (0.70), it is removed and the scores recomputed. Nothing is
silently deleted: every member dropped anywhere ends up in the returned
clustering's ``discarded`` pool.

Singleton clusters have no correlation pairs; they are retained and
flagged so downstream duration rules can deal with them.

Pruning cost. A member's score is its mean correlation to the other live
members, as :func:`_mean_to_rest` computes it; that function is the only
definition of the score. Rescanning every member after every removal
costs O(m^2) per removal, O(m^3) per cluster. Instead the prune keeps,
for each member j, a running row sum ``S[j]`` of its finite correlations
to the live members and their count ``N[j]``, both built once from the
cluster's Pearson matrix. A removal of member w is one O(m) vector
update, ``S -= F[:, w]`` and ``N -= finite[:, w]``, so a cluster that
loses k of m members costs O(m^2) to build the sums and O(m) per round.

``S / N`` is only an estimate of the score: it rounds differently from
``_mean_to_rest``. Let u be the unit roundoff and ``T[j]`` the exact sum
``S[j]`` stands for. Every |r| <= 1, so every partial sum is at most m in
magnitude, and ``S[j]`` went through at most m - 1 additions and k
subtractions, each rounding by at most u * m: ``|S[j] - T[j]| <= (m + k)
* m * u``. Dividing adds u. ``_mean_to_rest`` averages at most m values,
so it is within (m + 1) * u of ``T[j] / N[j]``. Hence every estimate is
within ``delta = ((m + k) * m / N_min + m + 2) * u`` of its score, with
``N_min`` the smallest live count. The code uses machine epsilon (2u) for
u, which also covers the second-order terms.

Each round therefore takes the smallest estimate ``lo`` and scores, with
``_mean_to_rest``, only the candidates whose estimate is at most
``lo + 2 * delta``. The worst member w* (lowest score, ties to the lowest
observation index) is always a candidate: ``S/N[w*] <= score[w*] + delta
<= score[l] + delta <= lo + 2 * delta``, where l holds ``lo``, and so is
every member tied with it. The pick and the stop test (worst score >=
the floor) are then the ones the full rescan makes, so removals, their
order, statuses and final means are identical to it. A member with no
valid pair left (``N == 0``) scores -inf exactly; such members go first,
lowest observation index first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import Clustering, clustering_from_clusters
from .ingest import Dataset

STATUS_ROBUST = "robust"
STATUS_PRUNED = "pruned"
STATUS_REJECTED = "rejected"
STATUS_SINGLETON = "singleton"


class UndefinedCorrelationError(ValueError):
    """Pearson correlation is undefined (constant input, zero variance)."""


@dataclass(frozen=True)
class ConsistencyThresholds:
    """Accept / prune / reject levels on the correlation scale.

    robust_mean: clusters at or above this mean are kept untouched.
    reject_mean: clusters below this mean are discarded wholesale.
    member_min: members whose mean correlation to the rest of their
        cluster falls below this floor are pruned one at a time.
    """

    robust_mean: float = 0.8
    reject_mean: float = 0.4
    member_min: float = 0.70

    def __post_init__(self):
        if not (-1.0 <= self.reject_mean < self.robust_mean <= 1.0):
            raise ValueError("need -1 <= reject_mean < robust_mean <= 1")
        if not (-1.0 <= self.member_min <= 1.0):
            raise ValueError("member_min must lie in [-1, 1]")

    def to_dict(self) -> dict:
        return {
            "robust_mean": self.robust_mean,
            "reject_mean": self.reject_mean,
            "member_min": self.member_min,
        }


@dataclass(frozen=True)
class ClusterVerdict:
    """Per-cluster outcome of the consistency check."""

    cluster_id: int
    size: int
    mean_pairwise_r: float | None
    final_mean_pairwise_r: float | None
    status: str
    removed_members: tuple[int, ...] = ()
    surviving_cluster_id: int | None = None

    def to_dict(self) -> dict:
        return {
            "cluster_id": self.cluster_id,
            "size": self.size,
            "mean_pairwise_r": self.mean_pairwise_r,
            "final_mean_pairwise_r": self.final_mean_pairwise_r,
            "status": self.status,
            "removed_members": list(self.removed_members),
            "surviving_cluster_id": self.surviving_cluster_id,
        }


@dataclass(frozen=True)
class ConsistencyReport:
    """All per-cluster verdicts plus the thresholds that produced them."""

    thresholds: ConsistencyThresholds
    verdicts: tuple[ClusterVerdict, ...]

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for v in self.verdicts:
            tally[v.status] = tally.get(v.status, 0) + 1
        return tally

    def to_dict(self) -> dict:
        return {
            "thresholds": self.thresholds.to_dict(),
            "status_counts": self.counts(),
            "clusters": [v.to_dict() for v in self.verdicts],
        }


def pearson(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length samples.

    Computed in the mean-centered form (algebraically identical to the
    raw-moment form but stable), clamped to [-1, 1] against floating-point
    overshoot. Raises :class:`UndefinedCorrelationError` when either
    sample is constant.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or yv.ndim != 1 or xv.size != yv.size:
        raise ValueError("inputs must be 1-D vectors of equal length")
    n = xv.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("correlation undefined for constant input")
    # sqrt of the product (not the product of sqrts) keeps the identity and
    # anti-identity cases exactly at +/-1.
    den = math.sqrt(sxx * syy)
    if not math.isfinite(den):
        den = math.sqrt(sxx) * math.sqrt(syy)
    r = float(xc @ yc) / den
    return max(-1.0, min(1.0, r))


def pairwise_pearson_matrix(vectors: np.ndarray) -> np.ndarray:
    """All-pairs Pearson matrix; NaN where a pair is undefined (and on the diagonal).

    Consistent with :func:`pearson` to floating-point noise; vectorized for
    whole-cluster scoring.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    m = X.shape[0]
    centered = X - X.mean(axis=1, keepdims=True)
    valid = np.einsum("ij,ij->i", centered, centered) > 0.0
    R = np.full((m, m), np.nan)
    if valid.any():
        C = centered[valid]
        G = C @ C.T
        # Normalizing by the Gram diagonal (not separately computed norms)
        # keeps bit-identical members at exactly 1.
        p = np.diagonal(G)
        sub = np.clip(G / np.sqrt(np.outer(p, p)), -1.0, 1.0)
        idx = np.flatnonzero(valid)
        R[np.ix_(idx, idx)] = sub
    np.fill_diagonal(R, np.nan)
    return R


def cluster_mean_correlation(members: Sequence[np.ndarray] | np.ndarray) -> float | None:
    """Mean Pearson correlation over all unordered member pairs.

    Undefined pairs (constant descriptors) are excluded; returns None for
    singletons or when no valid pair remains.
    """
    X = np.asarray(members, dtype=np.float64)
    if X.ndim != 2:
        X = np.atleast_2d(X)
    m = X.shape[0]
    if m < 2:
        return None
    R = pairwise_pearson_matrix(X)
    vals = R[np.triu_indices(m, k=1)]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return None
    return float(vals.mean())


def _mean_to_rest(R: np.ndarray, current: list[int], pos: int) -> float:
    """Mean correlation of member `pos` to the other current members; -inf if
    every pair is undefined (degenerate members always prune first)."""
    others = [q for q in current if q != pos]
    row = R[pos, others]
    row = row[np.isfinite(row)]
    if row.size == 0:
        return -math.inf
    return float(row.mean())


def _masked_mean(R: np.ndarray, current: list[int]) -> float | None:
    sub = R[np.ix_(current, current)]
    vals = sub[np.triu_indices(len(current), k=1)]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return None
    return float(vals.mean())


def _prune(R: np.ndarray, members: tuple[int, ...], member_min: float) -> tuple[list[int], list[int]]:
    """Remove the worst member while its score is below ``member_min``.

    Returns the surviving positions (ascending) and the removed observation
    indices in removal order. See the module docstring for why scoring only
    the candidates within ``2 * delta`` of the running-sum minimum finds the
    same member as scoring every live member.
    """
    m = len(members)
    finite = np.isfinite(R)
    F = np.where(finite, R, 0.0)
    S = F.sum(axis=1)
    N = finite.sum(axis=1)
    live = np.ones(m, dtype=bool)
    current = list(range(m))
    removed: list[int] = []
    eps = np.finfo(np.float64).eps
    while len(current) >= 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            approx = np.where(N > 0, S / N, -np.inf)
        approx[~live] = np.inf
        lo = approx.min()
        if lo == -np.inf:
            # N is exact, so every such member scores -inf: the lowest
            # observation index among them is the worst.
            candidates = [min(np.flatnonzero(approx == lo), key=members.__getitem__)]
        else:
            delta = ((m + len(removed)) * m / N[live].min() + m + 2) * eps
            candidates = np.flatnonzero(approx <= lo + 2.0 * delta)
        worst_score, worst_pos = min(
            ((_mean_to_rest(R, current, int(p)), int(p)) for p in candidates),
            key=lambda s: (s[0], members[s[1]]),
        )
        if worst_score >= member_min:
            break
        live[worst_pos] = False
        current.remove(worst_pos)
        removed.append(members[worst_pos])
        S -= F[:, worst_pos]
        N -= finite[:, worst_pos]
    return current, removed


def apply_consistency(
    clustering: Clustering,
    dataset: Dataset | np.ndarray,
    thresholds: ConsistencyThresholds = ConsistencyThresholds(),
) -> tuple[Clustering, ConsistencyReport]:
    """Filter a clustering by the correlation consistency rules.

    Returns the filtered clustering (surviving clusters relabeled densely,
    everything dropped collected in its ``discarded`` pool, merged with any
    pool already present on the input) and a report detailing each original
    cluster's verdict. Applying the filter a second time with the same
    thresholds leaves the clustering unchanged.
    """
    if isinstance(dataset, Dataset):
        descriptors = dataset.descriptor_matrix()
    else:
        descriptors = np.asarray(dataset, dtype=np.float64)
    if len(clustering.assignment) != descriptors.shape[0]:
        raise ValueError(
            f"clustering covers {len(clustering.assignment)} observations but "
            f"{descriptors.shape[0]} descriptors were given"
        )

    surviving: list[tuple[int, ...]] = []
    verdicts: list[ClusterVerdict] = []
    discarded: list[int] = list(clustering.discarded)

    for cluster_id, members in enumerate(clustering.clusters):
        members = tuple(members)
        if len(members) == 1:
            surviving.append(members)
            verdicts.append(
                ClusterVerdict(
                    cluster_id=cluster_id,
                    size=1,
                    mean_pairwise_r=None,
                    final_mean_pairwise_r=None,
                    status=STATUS_SINGLETON,
                    surviving_cluster_id=len(surviving) - 1,
                )
            )
            continue

        vectors = descriptors[list(members)]
        R = pairwise_pearson_matrix(vectors)
        mean_r = _masked_mean(R, list(range(len(members))))

        if mean_r is not None and mean_r >= thresholds.robust_mean:
            surviving.append(members)
            verdicts.append(
                ClusterVerdict(
                    cluster_id=cluster_id,
                    size=len(members),
                    mean_pairwise_r=mean_r,
                    final_mean_pairwise_r=mean_r,
                    status=STATUS_ROBUST,
                    surviving_cluster_id=len(surviving) - 1,
                )
            )
            continue

        if mean_r is not None and mean_r < thresholds.reject_mean:
            discarded.extend(members)
            verdicts.append(
                ClusterVerdict(
                    cluster_id=cluster_id,
                    size=len(members),
                    mean_pairwise_r=mean_r,
                    final_mean_pairwise_r=mean_r,
                    status=STATUS_REJECTED,
                    removed_members=members,
                )
            )
            continue

        # Middle band (or no valid pair at all): prune worst-first until every
        # remaining member clears the floor. Ties go to the smallest
        # observation index so the loop is order-free and deterministic.
        current, removed = _prune(R, members, thresholds.member_min)

        final_mean = _masked_mean(R, current) if len(current) >= 2 else None
        if len(current) >= 2 and final_mean is not None and final_mean >= thresholds.reject_mean:
            kept = tuple(members[p] for p in current)
            surviving.append(kept)
            discarded.extend(removed)
            verdicts.append(
                ClusterVerdict(
                    cluster_id=cluster_id,
                    size=len(members),
                    mean_pairwise_r=mean_r,
                    final_mean_pairwise_r=final_mean,
                    status=STATUS_PRUNED,
                    removed_members=tuple(removed),
                    surviving_cluster_id=len(surviving) - 1,
                )
            )
        else:
            discarded.extend(members)
            verdicts.append(
                ClusterVerdict(
                    cluster_id=cluster_id,
                    size=len(members),
                    mean_pairwise_r=mean_r,
                    final_mean_pairwise_r=final_mean,
                    status=STATUS_REJECTED,
                    removed_members=members,
                )
            )

    params = dict(clustering.params_used)
    params["consistency"] = thresholds.to_dict()
    filtered = clustering_from_clusters(
        surviving,
        n_observations=len(clustering.assignment),
        method_tag=clustering.method_tag,
        params_used=params,
        discarded=tuple(sorted(discarded)),
    )
    report = ConsistencyReport(thresholds=thresholds, verdicts=tuple(verdicts))
    return filtered, report
