"""Scoring clusterings against ground-truth identity labels.

The primary metric is pairwise precision / recall / F-measure: over all
unordered pairs of scored observations, a true positive is a pair placed
in one predicted cluster that also shares its true label. BCubed
precision / recall is reported alongside as a robustness check, clearly
labeled. Observations labeled "unknown" are excluded from scoring;
observations discarded by the consistency filter are scored as singletons
(they still exist, they just never become interactions).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .clustering import Clustering, MethodParams, cluster
from .consistency import ConsistencyThresholds, apply_consistency
from .ingest import (
    Dataset,
    LineSource,
    ObservationKey,
    _jsonl,
    _observation_key,
    _records,
    _see_once,
    _strings,
)
from .render import format_text_table

UNKNOWN_LABEL = "unknown"


@dataclass(frozen=True)
class GroundTruth:
    """Identity labels keyed by (wearer_id, image_id, face_index)."""

    labels: Mapping[ObservationKey, str]


@dataclass(frozen=True)
class EvalReport:
    """Pairwise counting scores over the scored-observation pair universe."""

    precision: float
    recall: float
    f_measure: float
    tp: int
    fp: int
    fn: int
    n_scored: int


@dataclass(frozen=True)
class BCubedReport:
    precision: float
    recall: float
    f_measure: float


@dataclass(frozen=True)
class MethodEvaluation:
    method: str
    pairwise: EvalReport
    bcubed: BCubedReport
    n_clusters: int
    n_discarded: int


def _contingency(
    clustering: Clustering, dataset: Dataset, truth: GroundTruth
) -> tuple[Counter, Counter, Counter]:
    """(predicted cluster, true label) counts over the scored observations, and both marginals.

    Discarded observations count as singleton clusters of their own.
    """
    if len(clustering.assignment) != len(dataset.observations):
        raise ValueError(
            "clustering does not cover the dataset "
            f"({len(clustering.assignment)} vs {len(dataset.observations)} observations)"
        )
    pairs: list[tuple[int, str]] = []
    next_singleton = clustering.n_clusters
    for idx, obs in enumerate(dataset.observations):
        label = truth.labels.get(obs.key)
        if label is None:
            raise ValueError(f"ground truth lacks a label for observation {obs.key}")
        if label == UNKNOWN_LABEL:
            continue
        cid = clustering.assignment[idx]
        if cid < 0:
            cid = next_singleton
            next_singleton += 1
        pairs.append((cid, label))
    return Counter(pairs), Counter(p for p, _ in pairs), Counter(t for _, t in pairs)


def _pair_count(sizes: Iterable[int]) -> int:
    return sum(s * (s - 1) // 2 for s in sizes)


def pairwise_prf(clustering: Clustering, dataset: Dataset, truth: GroundTruth) -> EvalReport:
    """Pair-counting precision / recall / F over the scored observations.

    Uses the contingency-table identities (TP+FP is the number of
    same-cluster pairs, TP+FN the number of same-label pairs), so the
    counts are exact at any scale. Vacuous denominators score 1 by
    convention.
    """
    joint, pred_sizes, true_sizes = _contingency(clustering, dataset, truth)
    tp = _pair_count(joint.values())
    same_pred = _pair_count(pred_sizes.values())
    same_true = _pair_count(true_sizes.values())
    fp = same_pred - tp
    fn = same_true - tp

    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 1.0
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    n = sum(joint.values())
    return EvalReport(
        precision=precision, recall=recall, f_measure=f, tp=tp, fp=fp, fn=fn, n_scored=n
    )


def bcubed_prf(clustering: Clustering, dataset: Dataset, truth: GroundTruth) -> BCubedReport:
    """Per-element BCubed precision / recall, averaged over scored observations."""
    joint, pred_sizes, true_sizes = _contingency(clustering, dataset, truth)
    if not joint:
        return BCubedReport(precision=1.0, recall=1.0, f_measure=1.0)

    precision = 0.0
    recall = 0.0
    for (p, t), overlap in joint.items():
        precision += overlap * (overlap / pred_sizes[p])
        recall += overlap * (overlap / true_sizes[t])
    n = sum(joint.values())
    precision /= n
    recall /= n
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return BCubedReport(precision=precision, recall=recall, f_measure=f)


def evaluate_methods(
    dataset: Dataset,
    truth: GroundTruth,
    methods: Mapping[str, MethodParams],
    thresholds: ConsistencyThresholds = ConsistencyThresholds(),
    seed: int = 0,
) -> dict[str, MethodEvaluation]:
    """Cluster one observation pool with each named method and score each.

    The whole dataset is clustered as a single pile (the evaluation-set
    regime); the consistency filter is applied to every method before
    scoring. ``seed`` is passed to :func:`~egosocial.clustering.cluster`.
    """
    results: dict[str, MethodEvaluation] = {}
    for name, params in methods.items():
        clustering = cluster(dataset.observations, params, seed)
        filtered, _ = apply_consistency(clustering, dataset, thresholds)
        results[name] = MethodEvaluation(
            method=name,
            pairwise=pairwise_prf(filtered, dataset, truth),
            bcubed=bcubed_prf(filtered, dataset, truth),
            n_clusters=filtered.n_clusters,
            n_discarded=len(filtered.discarded),
        )
    return results


def render_eval_table(results: Mapping[str, MethodEvaluation]) -> str:
    """Method-comparison text table: pairwise P/R/F plus BCubed P/R/F."""
    headers = [
        "Method",
        "Precision",
        "Recall",
        "F-Measure",
        "B3 Precision",
        "B3 Recall",
        "B3 F-Measure",
        "Clusters",
    ]
    rows = []
    for name in sorted(results):
        ev = results[name]
        scores = (ev.pairwise.precision, ev.pairwise.recall, ev.pairwise.f_measure)
        scores += (ev.bcubed.precision, ev.bcubed.recall, ev.bcubed.f_measure)
        rows.append([name, *(f"{100 * v:.2f}" for v in scores), str(ev.n_clusters)])
    return format_text_table(headers, rows)


_TRUTH_FIELDS = ("wearer_id", "image_id", "face_index", "label")


def parse_ground_truth(source: LineSource) -> GroundTruth:
    """Read label records: one JSON object per line with wearer, image, face, label.

    ``source`` is the whole text or an open text file, read one line at a time.
    """
    labels: dict[ObservationKey, str] = {}
    seen: dict[ObservationKey, int] = {}
    for line_no, (key, rec) in _records(source, _TRUTH_FIELDS, _observation_key):
        _see_once(seen, key, line_no)
        _strings(rec, ("label",), line_no)
        labels[key] = rec["label"]
    return GroundTruth(labels=labels)


def serialize_ground_truth(truth: GroundTruth) -> str:
    return _jsonl(
        {"wearer_id": wearer, "image_id": image, "face_index": face, "label": label}
        for (wearer, image, face), label in sorted(truth.labels.items())
    )
