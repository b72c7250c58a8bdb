"""The benchmark's span points must all fire on a traced ``pipeline --truth`` run.

``perfbench/spans.py`` wraps library functions at the module attributes the CLI
looks them up by. If a refactor moves a call elsewhere, its span silently stops
firing and the per-layer metrics read zero; this test catches that in the unit
suite.
"""

from __future__ import annotations

import importlib.util
import json
import threading
from datetime import time
from pathlib import Path

from conftest import config_to_dict
from egosocial import clustering
from egosocial.cli import main
from egosocial.synth import ScheduledInteraction, SynthConfig

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pipeline_span_fires(tmp_path):
    config = SynthConfig(
        seed=3,
        n_identities=2,
        schedule=(
            ScheduledInteraction(0, 0, time(9, 0), time(9, 20)),
            ScheduledInteraction(1, 0, time(14, 0), time(14, 15)),
        ),
    )
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(config_to_dict(config)))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0

    spans = _load_spans()
    tracer = spans.Tracer()
    with tracer.installed(spans.PIPELINE_POINTS):
        rc = main(
            [
                "pipeline",
                "--obs", str(data / "observations.jsonl"),
                "--coverage", str(data / "coverage.jsonl"),
                "--truth", str(data / "truth.jsonl"),
                "--out", str(tmp_path / "out"),
            ]
        )
    assert rc == 0
    fired = {span["name"] for span in tracer.spans}
    assert fired == {name for _, _, name, _ in spans.PIPELINE_POINTS}
    calls, counts, _ = spans.totals(tracer.spans, "consistency.filter")
    assert calls == 1 and counts["clusters"] >= 2
    assert spans.totals(tracer.spans, "render.radar")[1]["charts"] == 2  # wearer-0 and overlay


def test_grouping_opens_every_span_on_the_calling_thread(rng, monkeypatch):
    # perfbench's tracer assumes calls are nested and sequential in one thread:
    # the grouping's workers must never call a function it wraps, and none of
    # them may outlive cluster_ahc.
    spans = _load_spans()
    opened = []

    class Recorder(spans.Tracer):
        def wrap(self, name, fn, counter=None):
            traced = super().wrap(name, fn, counter)

            def recorded(*args, **kwargs):
                opened.append(threading.current_thread())
                return traced(*args, **kwargs)

            return recorded

    X = rng.standard_normal((20, 16))[rng.integers(0, 20, size=1100)]
    X += 0.01 * rng.standard_normal(X.shape)
    assert len(X) > clustering._BIN
    monkeypatch.setattr(clustering.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    before = threading.active_count()
    tracer = Recorder()
    with tracer.installed(spans.PIPELINE_POINTS):
        params = clustering.AhcParams(cut_threshold=1.0, normalize_descriptors=False)
        result = clustering.cluster_ahc(X, params)
    assert result.n_clusters == 20
    assert threading.active_count() == before
    names = {span["name"] for span in tracer.spans}
    assert names == {"clustering.distances", "clustering.linkage"}
    assert len(opened) == len(tracer.spans) > 2
    assert all(thread is threading.main_thread() for thread in opened)
    assert all(t >= 0.0 for t in spans.self_times(tracer.spans).values())
