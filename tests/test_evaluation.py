from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import content_line_count, dataset_from_matrix, edit_lines, line_edits
from egosocial.clustering import (
    AhcParams,
    MeanShiftParams,
    SpectralParams,
    clustering_from_clusters,
    clustering_from_labels,
)
from egosocial.evaluation import (
    GroundTruth,
    bcubed_prf,
    evaluate_methods,
    pairwise_prf,
    parse_ground_truth,
    render_eval_table,
    serialize_ground_truth,
)
from egosocial.ingest import IngestError
from oracles import naive_truth_fault, prf_pair_loop


def _setup(rng, true_labels, pred_clusters, discarded=()):
    """Dataset + clustering + truth from parallel label/cluster specs."""
    n = len(true_labels)
    dataset = dataset_from_matrix(rng.standard_normal((n, 128)))
    clustering = clustering_from_clusters(pred_clusters, n, "ahc", {}, discarded=discarded)
    labels = {obs.key: lab for obs, lab in zip(dataset.observations, true_labels)}
    return dataset, clustering, GroundTruth(labels=labels)


def test_perfect_clustering_scores_one(rng):
    dataset, clustering, truth = _setup(
        rng, ["a", "a", "b", "b", "c"], [[0, 1], [2, 3], [4]]
    )
    report = pairwise_prf(clustering, dataset, truth)
    assert (report.precision, report.recall, report.f_measure) == (1.0, 1.0, 1.0)


def test_merged_clusters_worked_example(rng):
    # truth {a,b},{c}; predicted {a,b,c}
    dataset, clustering, truth = _setup(rng, ["x", "x", "y"], [[0, 1, 2]])
    report = pairwise_prf(clustering, dataset, truth)
    assert (report.tp, report.fp, report.fn) == (1, 2, 0)
    assert report.precision == pytest.approx(1 / 3)
    assert report.recall == 1.0
    assert report.f_measure == pytest.approx(0.5)


def test_all_singletons_vacuous_precision(rng):
    dataset, clustering, truth = _setup(
        rng, ["a", "a", "b"], [[0], [1], [2]]
    )
    report = pairwise_prf(clustering, dataset, truth)
    assert (report.tp, report.fp) == (0, 0)
    assert report.precision == 1.0
    assert report.recall == 0.0
    assert report.f_measure == 0.0


def test_matches_pair_loop_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(3, 25))
        true = [f"t{v}" for v in rng.integers(0, 5, size=n)]
        pred_labels = rng.integers(0, 5, size=n)
        dataset = dataset_from_matrix(rng.standard_normal((n, 128)))
        clustering = clustering_from_labels(pred_labels, "ahc", {})
        truth = GroundTruth(
            labels={o.key: t for o, t in zip(dataset.observations, true)}
        )
        report = pairwise_prf(clustering, dataset, truth)
        oracle = prf_pair_loop(pred_labels.tolist(), true)
        assert (report.tp, report.fp, report.fn) == (
            oracle["tp"],
            oracle["fp"],
            oracle["fn"],
        )
        assert report.precision == pytest.approx(oracle["precision"])
        assert report.recall == pytest.approx(oracle["recall"])
        assert report.f_measure == pytest.approx(oracle["f"])


def test_pair_count_identities(rng):
    from math import comb

    for _ in range(20):
        n = int(rng.integers(3, 30))
        true = [f"t{v}" for v in rng.integers(0, 6, size=n)]
        pred_labels = rng.integers(0, 6, size=n)
        dataset = dataset_from_matrix(rng.standard_normal((n, 128)))
        clustering = clustering_from_labels(pred_labels, "ahc", {})
        truth = GroundTruth(labels={o.key: t for o, t in zip(dataset.observations, true)})
        report = pairwise_prf(clustering, dataset, truth)
        cluster_pairs = sum(comb(len(m), 2) for m in clustering.clusters)
        class_sizes = {}
        for t in true:
            class_sizes[t] = class_sizes.get(t, 0) + 1
        class_pairs = sum(comb(s, 2) for s in class_sizes.values())
        assert report.tp + report.fp == cluster_pairs
        assert report.tp + report.fn == class_pairs


def test_relabeling_invariance(rng):
    n = 20
    true = [f"t{v}" for v in rng.integers(0, 4, size=n)]
    pred_labels = rng.integers(0, 4, size=n)
    dataset = dataset_from_matrix(rng.standard_normal((n, 128)))
    truth = GroundTruth(labels={o.key: t for o, t in zip(dataset.observations, true)})
    base = pairwise_prf(clustering_from_labels(pred_labels, "ahc", {}), dataset, truth)

    remapped_pred = [{0: 7, 1: 5, 2: 9, 3: 2}[int(v)] for v in pred_labels]
    renamed_truth = GroundTruth(
        labels={o.key: "name-" + t for o, t in zip(dataset.observations, true)}
    )
    again = pairwise_prf(
        clustering_from_labels(remapped_pred, "ahc", {}), dataset, renamed_truth
    )
    assert again == base


def test_merging_never_decreases_recall_and_pure_splits_never_decrease_precision(rng):
    # Arbitrary merges can only add same-cluster pairs, so recall is
    # monotone. For precision the unqualified converse is false (dropping a
    # cluster's last TP while keeping an FP lowers it); the true form is
    # that splits along true-label boundaries only remove FP pairs.
    for _ in range(10):
        n = int(rng.integers(6, 16))
        true = [f"t{v}" for v in rng.integers(0, 3, size=n)]
        dataset = dataset_from_matrix(rng.standard_normal((n, 128)))
        truth = GroundTruth(labels={o.key: t for o, t in zip(dataset.observations, true)})
        pred = rng.integers(0, 3, size=n)
        base = pairwise_prf(clustering_from_labels(pred, "ahc", {}), dataset, truth)

        merged = np.where(pred == 1, 0, pred)  # merge clusters 0 and 1
        merged_report = pairwise_prf(
            clustering_from_labels(merged, "ahc", {}), dataset, truth
        )
        assert merged_report.recall >= base.recall - 1e-12

        # split each predicted cluster by true label: removes only FP pairs
        class_ids = {t: i for i, t in enumerate(sorted(set(true)))}
        pure_split = [int(p) * len(class_ids) + class_ids[t] for p, t in zip(pred, true)]
        split_report = pairwise_prf(
            clustering_from_labels(pure_split, "ahc", {}), dataset, truth
        )
        assert split_report.precision >= base.precision - 1e-12

        # full shatter: vacuous precision convention dominates everything
        shattered = pairwise_prf(
            clustering_from_labels(np.arange(n), "ahc", {}), dataset, truth
        )
        assert shattered.precision == 1.0


def test_unknown_labels_excluded(rng):
    dataset, clustering, truth = _setup(
        rng, ["a", "unknown", "a"], [[0, 1, 2]]
    )
    report = pairwise_prf(clustering, dataset, truth)
    assert report.n_scored == 2
    assert (report.tp, report.fp, report.fn) == (1, 0, 0)


def test_missing_label_rejected(rng):
    dataset, clustering, _ = _setup(rng, ["a", "a"], [[0, 1]])
    with pytest.raises(ValueError, match="lacks a label"):
        pairwise_prf(clustering, dataset, GroundTruth(labels={}))


def test_discarded_scored_as_singletons(rng):
    dataset, clustering, truth = _setup(
        rng, ["a", "a", "a", "a"], [[0, 1]], discarded=(2, 3)
    )
    report = pairwise_prf(clustering, dataset, truth)
    # pairs: (0,1) TP; (0,2),(0,3),(1,2),(1,3),(2,3) all FN
    assert (report.tp, report.fp, report.fn) == (1, 0, 5)


def test_bcubed_perfect_is_one(rng):
    dataset, clustering, truth = _setup(rng, ["a", "a", "b"], [[0, 1], [2]])
    report = bcubed_prf(clustering, dataset, truth)
    assert (report.precision, report.recall, report.f_measure) == (1.0, 1.0, 1.0)


def test_bcubed_hand_computed_case(rng):
    # truth {a,a,b}; predicted one cluster of 3
    dataset, clustering, truth = _setup(rng, ["a", "a", "b"], [[0, 1, 2]])
    report = bcubed_prf(clustering, dataset, truth)
    # precision per element: a: 2/3, a: 2/3, b: 1/3 -> mean 5/9
    # recall per element: a: 2/2, a: 2/2, b: 1/1 -> 1
    assert report.precision == pytest.approx(5 / 9)
    assert report.recall == 1.0


def test_evaluate_methods_three_rows(rng):
    centers = rng.standard_normal((4, 128))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.repeat(np.arange(4), 6)
    X = centers[labels] + 0.01 * rng.standard_normal((24, 128))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    dataset = dataset_from_matrix(X)
    truth = GroundTruth(
        labels={o.key: f"p{l}" for o, l in zip(dataset.observations, labels)}
    )
    methods = {
        "ahc": AhcParams(),
        "meanshift": MeanShiftParams(bandwidth=0.5),
        "spectral": SpectralParams(k=4, affinity_scale=0.7),
    }
    results = evaluate_methods(dataset, truth, methods)
    assert set(results) == {"ahc", "meanshift", "spectral"}
    assert results["ahc"].pairwise.f_measure == 1.0
    table = render_eval_table(results)
    assert table.count("\n") == 5  # header, separator, three method rows
    assert "ahc" in table and "meanshift" in table and "spectral" in table


def test_degenerate_single_identity_dataset(rng):
    X = np.tile(rng.standard_normal(128), (6, 1)) + 0.001 * rng.standard_normal((6, 128))
    dataset = dataset_from_matrix(X)
    truth = GroundTruth(labels={o.key: "only" for o in dataset.observations})
    methods = {
        "ahc": AhcParams(cut_threshold=10.0),
        "meanshift": MeanShiftParams(bandwidth=10.0),
        "spectral": SpectralParams(k=1, affinity_scale=1.0),
    }
    results = evaluate_methods(dataset, truth, methods)
    for ev in results.values():
        assert ev.pairwise.recall == 1.0


def test_ground_truth_serialization_round_trip():
    truth = GroundTruth(
        labels={
            ("u1", "img-1", 0): "alice",
            ("u1", "img-2", 1): "unknown",
            ("u2", "img-1", 0): "bob",
        }
    )
    assert parse_ground_truth(serialize_ground_truth(truth)) == truth


_TRUTH_LINES = [
    json.dumps({"wearer_id": "u1", "image_id": f"img-{i}", "face_index": 0, "label": f"p{i % 2}"})
    for i in range(6)
]


@settings(max_examples=300, deadline=None)
@given(edits=line_edits(("wearer_id", "image_id", "face_index", "label")))
def test_truth_reader_rejects_as_the_line_by_line_oracle(edits):
    lines = edit_lines(_TRUTH_LINES, edits)
    expected = naive_truth_fault(lines)
    if expected is None:
        assert len(parse_ground_truth("\n".join(lines)).labels) == content_line_count(lines)
        return
    with pytest.raises(IngestError) as info:
        parse_ground_truth("\n".join(lines))
    line_no, message = expected
    assert (str(info.value), info.value.line_no) == (f"line {line_no}: {message}", line_no)
