"""Checks on the benchmark itself. Run from the repository root (under a minute)::

    python3 -m pytest perfbench -q

The traced checks guard the workloads against a later resize that quietly
turns one of them into a measurement of some other layer.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans

sys.path.insert(0, str(run.SRC))
from workloads import WORKLOADS, namespaced_truth, wearer_configs  # noqa: E402

from egosocial import synth  # noqa: E402

# Spans whose self time must exceed half of the traced pipeline time.
INTENDED_LAYERS = {
    "dense-wearer": ("clustering.distances", "clustering.linkage"),
    "noisy-crowd": ("consistency.filter",),
    "cohort": ("ingest.parse", "ingest.slice", "clustering.serialize", "segmentation.serialize"),
}
SETUP_LAYERS = ("synth.generate", "ingest.serialize", "evaluation.serialize_truth")


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced_twice(request, tmp_path_factory):
    """One traced set-up, then two traced pipeline runs of the same inputs."""
    workload = WORKLOADS[request.param]
    work = tmp_path_factory.mktemp(workload.name)
    tracer = spans.Tracer()
    with tracer.installed(spans.SETUP_POINTS):
        inputs = workload.build_inputs(1, work / "inputs")
    runs = []
    for i in range(2):
        spans_path = work / f"spans{i}.json"
        launcher = [sys.executable, str(run.HERE / "spans.py"), str(spans_path)]
        sample = run.pipeline_run(inputs, work / f"out{i}", launcher)
        assert sample["problem"] is None, sample["problem"]
        pipeline_spans = json.loads(spans_path.read_text())["spans"]
        runs.append((sample, pipeline_spans, run.span_metrics(pipeline_spans, tracer.spans, inputs)))
    return workload, runs


def test_intended_layer_takes_most_of_the_traced_time(traced_twice):
    workload, runs = traced_twice
    _, pipeline_spans, metrics = runs[0]
    own = spans.self_times(pipeline_spans)
    share = sum(own.get(name, 0.0) for name in INTENDED_LAYERS[workload.name])
    assert share > 0.5 * metrics["trace.pipeline_s"]["value"]


def test_counts_repeat_exactly(traced_twice):
    _, runs = traced_twice
    first, second = (
        {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"} for _, _, metrics in runs
    )
    assert first and first == second
    assert runs[0][0]["tree"] == runs[1][0]["tree"]


def test_self_times_add_up_to_the_traced_pipeline(traced_twice):
    _, runs = traced_twice
    _, _, metrics = runs[0]
    pipeline_self = sum(
        v["value"]
        for k, v in metrics.items()
        if k.endswith(".self_s") and k.rsplit(".", 1)[0] not in SETUP_LAYERS
    )
    assert pipeline_self == pytest.approx(metrics["trace.pipeline_s"]["value"], rel=1e-9)


def test_truth_labels_are_namespaced_per_wearer():
    configs = wearer_configs(WORKLOADS["cohort"], seed=3)[:2]
    label_sets = [set(namespaced_truth(synth.generate(c).truth).labels.values()) for c in configs]
    assert label_sets[0] and label_sets[1]
    assert not label_sets[0] & label_sets[1]
    assert all(label.startswith("wearer-000/person-") for label in label_sets[0])


def _good_sample(**changes) -> dict:
    sample = {"problem": None, "pairwise_f": 0.9, "bcubed_f": 0.8, "tree": "a"}
    sample.update(changes)
    return sample


@pytest.mark.parametrize(
    "bad",
    [
        {"problem": "exit code 2"},
        {"tree": "b"},
        {"pairwise_f": 0.91},
        {"bcubed_f": 0.81},
        {"pairwise_f": 0.1},
    ],
)
def test_gate_fails_a_run_that_differs_or_breaks(bad):
    gate = run.Gate(min_pairwise_f=0.5)
    gate.check(_good_sample())
    gate.check(_good_sample(**bad))
    gate.check(_good_sample())
    assert gate.attempted == 3
    assert len(gate.problems) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cohort", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
