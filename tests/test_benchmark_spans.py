"""The benchmark's span points must all fire on a traced ``pipeline --truth`` run.

``perfbench/spans.py`` wraps library functions at the module attributes the CLI
looks them up by. If a refactor moves a call elsewhere, its span silently stops
firing and the per-layer metrics read zero; this test catches that in the unit
suite.
"""

from __future__ import annotations

import importlib.util
import json
from datetime import time
from pathlib import Path

from conftest import config_to_dict
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
