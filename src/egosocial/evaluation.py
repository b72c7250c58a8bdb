"""Scoring clusterings against ground-truth identity labels.

The primary metric is pairwise precision / recall / F-measure: over all
unordered pairs of scored observations, a true positive is a pair placed
in one predicted cluster that also shares its true label. BCubed
precision / recall is reported alongside as a robustness check, clearly
labeled. Observations labeled "unknown" are excluded from scoring;
observations discarded by the consistency filter are scored as singletons
by default (they still exist, they just never become interactions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .clustering import AhcParams, Clustering, MeanShiftParams, SpectralParams, cluster
from .consistency import ConsistencyThresholds, apply_consistency
from .ingest import Dataset, IngestError, ObservationKey, _iter_lines, _record
from .render import format_text_table

UNKNOWN_LABEL = "unknown"


@dataclass(frozen=True)
class GroundTruth:
    """Identity labels keyed by (wearer_id, image_id, face_index)."""

    labels: Mapping[ObservationKey, str]

    def scored_keys(self) -> set[ObservationKey]:
        return {k for k, v in self.labels.items() if v != UNKNOWN_LABEL}


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

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f_measure": self.f_measure,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "n_scored": self.n_scored,
        }


@dataclass(frozen=True)
class BCubedReport:
    precision: float
    recall: float
    f_measure: float

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f_measure": self.f_measure,
        }


@dataclass(frozen=True)
class MethodEvaluation:
    method: str
    pairwise: EvalReport
    bcubed: BCubedReport
    n_clusters: int
    n_discarded: int

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "pairwise": self.pairwise.to_dict(),
            "bcubed": self.bcubed.to_dict(),
            "n_clusters": self.n_clusters,
            "n_discarded": self.n_discarded,
        }


def _pred_true_labels(
    clustering: Clustering,
    dataset: Dataset,
    truth: GroundTruth,
    discarded_as_singletons: bool,
) -> tuple[list[int], list[str]]:
    """Aligned predicted/true label lists for the scored observations."""
    if len(clustering.assignment) != len(dataset.observations):
        raise ValueError(
            "clustering does not cover the dataset "
            f"({len(clustering.assignment)} vs {len(dataset.observations)} observations)"
        )
    pred: list[int] = []
    true: list[str] = []
    next_singleton = clustering.n_clusters
    for idx, obs in enumerate(dataset.observations):
        label = truth.labels.get(obs.key)
        if label is None:
            raise ValueError(f"ground truth lacks a label for observation {obs.key}")
        if label == UNKNOWN_LABEL:
            continue
        cid = clustering.assignment[idx]
        if cid < 0:
            if not discarded_as_singletons:
                continue
            cid = next_singleton
            next_singleton += 1
        pred.append(cid)
        true.append(label)
    return pred, true


def _pair_count(sizes: Iterable[int]) -> int:
    return sum(s * (s - 1) // 2 for s in sizes)


def pairwise_prf(
    clustering: Clustering,
    dataset: Dataset,
    truth: GroundTruth,
    discarded_as_singletons: bool = True,
) -> EvalReport:
    """Pair-counting precision / recall / F over the scored observations.

    Uses the contingency-table identities (TP+FP is the number of
    same-cluster pairs, TP+FN the number of same-label pairs), so the
    counts are exact at any scale. Vacuous denominators score 1 by
    convention.
    """
    pred, true = _pred_true_labels(clustering, dataset, truth, discarded_as_singletons)
    n = len(pred)

    joint: dict[tuple[int, str], int] = {}
    pred_sizes: dict[int, int] = {}
    true_sizes: dict[str, int] = {}
    for p, t in zip(pred, true):
        joint[(p, t)] = joint.get((p, t), 0) + 1
        pred_sizes[p] = pred_sizes.get(p, 0) + 1
        true_sizes[t] = true_sizes.get(t, 0) + 1

    tp = _pair_count(joint.values())
    same_pred = _pair_count(pred_sizes.values())
    same_true = _pair_count(true_sizes.values())
    fp = same_pred - tp
    fn = same_true - tp

    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 1.0
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalReport(
        precision=precision, recall=recall, f_measure=f, tp=tp, fp=fp, fn=fn, n_scored=n
    )


def bcubed_prf(
    clustering: Clustering,
    dataset: Dataset,
    truth: GroundTruth,
    discarded_as_singletons: bool = True,
) -> BCubedReport:
    """Per-element BCubed precision / recall, averaged over scored observations."""
    pred, true = _pred_true_labels(clustering, dataset, truth, discarded_as_singletons)
    if not pred:
        return BCubedReport(precision=1.0, recall=1.0, f_measure=1.0)

    joint: dict[tuple[int, str], int] = {}
    pred_sizes: dict[int, int] = {}
    true_sizes: dict[str, int] = {}
    for p, t in zip(pred, true):
        joint[(p, t)] = joint.get((p, t), 0) + 1
        pred_sizes[p] = pred_sizes.get(p, 0) + 1
        true_sizes[t] = true_sizes.get(t, 0) + 1

    precision = 0.0
    recall = 0.0
    for (p, t), overlap in joint.items():
        precision += overlap * (overlap / pred_sizes[p])
        recall += overlap * (overlap / true_sizes[t])
    precision /= len(pred)
    recall /= len(pred)
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return BCubedReport(precision=precision, recall=recall, f_measure=f)


def evaluate_methods(
    dataset: Dataset,
    truth: GroundTruth,
    ahc: AhcParams | None = AhcParams(),
    meanshift_params: MeanShiftParams | None = MeanShiftParams(),
    spectral_params: SpectralParams | None = None,
    thresholds: ConsistencyThresholds = ConsistencyThresholds(),
    discarded_as_singletons: bool = True,
    seed: int = 0,
) -> dict[str, MethodEvaluation]:
    """Run the configured methods over one observation pool and score each.

    The whole dataset is clustered as a single pile (the evaluation-set
    regime); the consistency filter is applied to every method before
    scoring. Pass None to skip a method; spectral needs an explicit k so
    it is off by default. ``seed`` draws the subsample that estimates a
    bandwidth or affinity scale left as None.
    """
    results: dict[str, MethodEvaluation] = {}
    runs = (("ahc", ahc), ("meanshift", meanshift_params), ("spectral", spectral_params))
    for name, params in runs:
        if params is None:
            continue
        clustering = cluster(dataset.observations, params, seed)
        filtered, _ = apply_consistency(clustering, dataset, thresholds)
        results[name] = MethodEvaluation(
            method=name,
            pairwise=pairwise_prf(filtered, dataset, truth, discarded_as_singletons),
            bcubed=bcubed_prf(filtered, dataset, truth, discarded_as_singletons),
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


def parse_ground_truth(text: str) -> GroundTruth:
    """Read label records: one JSON object per line with wearer, image, face, label."""
    labels: dict[ObservationKey, str] = {}
    for line_no, line in _iter_lines(text):
        rec = _record(line, line_no)
        try:
            wearer, image = rec["wearer_id"], rec["image_id"]
            face, label = rec["face_index"], rec["label"]
        except KeyError:
            missing = [f for f in _TRUTH_FIELDS if f not in rec]
            raise IngestError(f"missing fields {missing}", line_no) from None
        if not (isinstance(wearer, str) and isinstance(image, str)):
            raise IngestError("wearer_id and image_id must be strings", line_no)
        try:
            face = int(face)
        except (TypeError, ValueError):
            raise IngestError(f"face_index must be an integer, got {face!r}", line_no) from None
        labels[(wearer, image, face)] = str(label)
    return GroundTruth(labels=labels)


def serialize_ground_truth(truth: GroundTruth) -> str:
    lines = []
    for key in sorted(truth.labels):
        wearer, image, face = key
        lines.append(
            json.dumps(
                {
                    "wearer_id": wearer,
                    "image_id": image,
                    "face_index": face,
                    "label": truth.labels[key],
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
