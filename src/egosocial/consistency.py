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
update, ``S -= F[w]`` and ``N -= finite[w]``, so a cluster that loses k
of m members costs O(m^2) to build the sums and O(m) per round. Row w
is column w because the Pearson matrix is exactly symmetric: numpy forms
``C @ C.T`` as a symmetric rank-k update that mirrors one triangle,
``p_i * p_j == p_j * p_i`` exactly, and every later step is entrywise.

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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, clustering_from_clusters
from .ingest import Dataset

STATUS_ROBUST = "robust"
STATUS_PRUNED = "pruned"
STATUS_REJECTED = "rejected"
STATUS_SINGLETON = "singleton"


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


@dataclass(frozen=True)
class ConsistencyReport:
    """All per-cluster verdicts plus the thresholds that produced them."""

    thresholds: ConsistencyThresholds
    verdicts: tuple[ClusterVerdict, ...]

    def to_dict(self) -> dict:
        """The JSON form: the records themselves, plus the status tally."""
        return {
            "thresholds": self.thresholds,
            "status_counts": Counter(v.status for v in self.verdicts),
            "clusters": self.verdicts,
        }


def pairwise_pearson_matrix(vectors: np.ndarray) -> np.ndarray:
    """All-pairs Pearson matrix; NaN where a pair is undefined (and on the diagonal).

    Each entry is the mean-centered Pearson correlation of two rows, clamped
    to [-1, 1]; vectorized for whole-cluster scoring. Exactly symmetric:
    ``R[i, j]`` equals ``R[j, i]`` to the bit, so a row stands for a column.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    m = X.shape[0]
    centered = X - X.mean(axis=1, keepdims=True)
    valid = np.einsum("ij,ij->i", centered, centered) > 0.0
    R = np.full((m, m), np.nan)
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


def _mean_to_rest(R: np.ndarray, live: np.ndarray, pos: int) -> float:
    """Mean correlation of member `pos` to the other live members; -inf if
    every pair is undefined (degenerate members always prune first).

    ``live`` masks the current members; the correlations are taken in
    position order. ``R``'s diagonal must be NaN: that is what drops ``pos``."""
    row = R[pos][live]
    row = row[np.isfinite(row)]
    if row.size == 0:
        return -math.inf
    return float(row.mean())


def _masked_mean(R: np.ndarray, current: list[int]) -> float | None:
    at = np.asarray(current)
    vals = np.concatenate([R[i, at[k + 1:]] for k, i in enumerate(at)])
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
    removed: list[int] = []
    eps = np.finfo(np.float64).eps
    approx = np.empty(m)
    while m - len(removed) >= 2:
        approx.fill(-np.inf)
        np.divide(S, N, out=approx, where=N > 0)
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
            ((_mean_to_rest(R, live, int(p)), int(p)) for p in candidates),
            key=lambda s: (s[0], members[s[1]]),
        )
        if worst_score >= member_min:
            break
        live[worst_pos] = False
        removed.append(members[worst_pos])
        S -= F[worst_pos]
        N -= finite[worst_pos]
    return np.flatnonzero(live).tolist(), removed


def apply_consistency(
    clustering: Clustering,
    dataset: Dataset,
    thresholds: ConsistencyThresholds = ConsistencyThresholds(),
) -> tuple[Clustering, ConsistencyReport]:
    """Filter a clustering by the correlation consistency rules.

    Returns the filtered clustering (surviving clusters relabeled densely,
    everything dropped collected in its ``discarded`` pool, merged with any
    pool already present on the input) and a report detailing each original
    cluster's verdict. ``dataset`` supplies the descriptors of the
    observations the clustering indexes. Applying the filter a second time
    with the same thresholds leaves the clustering unchanged.
    """
    descriptors = dataset.descriptor_matrix()
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
        removed: tuple[int, ...] = ()  # pruned: in removal order; rejected: all
        if len(members) == 1:
            status, mean_r, final_mean = STATUS_SINGLETON, None, None
        else:
            R = pairwise_pearson_matrix(descriptors[list(members)])
            mean_r = final_mean = _masked_mean(R, list(range(len(members))))
            if mean_r is not None and mean_r >= thresholds.robust_mean:
                status = STATUS_ROBUST
            elif mean_r is not None and mean_r < thresholds.reject_mean:
                status = STATUS_REJECTED
            else:
                # Middle band (or no valid pair at all): prune worst-first until
                # every remaining member clears the floor. Ties go to the smallest
                # observation index so the loop is order-free and deterministic.
                current, pruned = _prune(R, members, thresholds.member_min)
                final_mean = _masked_mean(R, current) if len(current) >= 2 else None
                if final_mean is not None and final_mean >= thresholds.reject_mean:
                    status, removed = STATUS_PRUNED, tuple(pruned)
                else:
                    status = STATUS_REJECTED
        surviving_id = None
        if status == STATUS_REJECTED:
            removed = members
        else:
            gone = set(removed)
            surviving.append(tuple(m for m in members if m not in gone))
            surviving_id = len(surviving) - 1
        discarded.extend(removed)
        verdicts.append(
            ClusterVerdict(
                cluster_id, len(members), mean_r, final_mean, status, removed, surviving_id
            )
        )

    params = dict(clustering.params_used)
    params["consistency"] = dict(vars(thresholds))
    filtered = clustering_from_clusters(
        surviving,
        n_observations=len(clustering.assignment),
        method_tag=clustering.method_tag,
        params_used=params,
        discarded=tuple(discarded),
    )
    report = ConsistencyReport(thresholds=thresholds, verdicts=tuple(verdicts))
    return filtered, report
