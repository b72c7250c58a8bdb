"""Spans around the library's public functions, recorded from outside the library.

A span is one call of a wrapped function: its name, start, end, parent span,
the process's peak RSS before and after, and counts taken from its arguments
or result. Functions are wrapped at the module attribute the caller looks them
up by (``egosocial.cli.load_dataset`` for the CLI, ``egosocial.clustering.
compute_distances`` inside ``cluster_ahc``), so nothing under ``src/`` changes.

Run as a script, this executes ``egosocial.cli.main`` in this process with
every pipeline boundary wrapped and writes the spans as JSON::

    python3 perfbench/spans.py SPANS_JSON pipeline --obs ... --out ...
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import resource
import sys
import time
from typing import Callable, Iterator

Counter = Callable[[tuple, dict, object], dict]


def _consistency_counts(args, kwargs, result) -> dict:
    """Verdict tallies, members pruned, and member scores the prune loop computed.

    A cluster that ends ``pruned`` with r of its m members removed ran r + 1
    prune iterations over m, m - 1, ..., m - r members. A middle-band cluster
    that ends ``rejected`` after pruning does not say how many iterations ran,
    so it adds nothing to either count.
    """
    report = result[1]
    counts = {"clusters": len(report.verdicts)}
    for status in ("robust", "pruned", "rejected", "singleton"):
        counts[f"verdict.{status}"] = 0
    pruned = scores = 0
    for verdict in report.verdicts:
        counts[f"verdict.{verdict.status}"] += 1
        if verdict.status == "pruned":
            m, r = verdict.size, len(verdict.removed_members)
            pruned += r
            scores += (r + 1) * m - r * (r + 1) // 2
    counts["members_pruned"] = pruned
    counts["member_scores_computed"] = scores
    return counts


def _distance_counts(args, kwargs, result) -> dict:
    n = result.n
    return {"pairs": n * (n - 1) // 2, "dense_bytes": n * n * 8}


# (module, attribute, span name, counter). The attribute is the name the
# caller resolves at call time; two functions may feed one span name.
PIPELINE_POINTS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("egosocial.cli", "load_dataset", "ingest.parse", None),
    ("egosocial.cli", "slice_dataset", "ingest.slice", None),
    ("egosocial.clustering", "compute_distances", "clustering.distances", _distance_counts),
    (
        "egosocial.clustering",
        "ahc_average_linkage",
        "clustering.linkage",
        lambda a, k, res: {"merges": a[0].n - res.n_clusters},
    ),
    ("egosocial.cli", "serialize_clustering", "clustering.serialize", None),
    ("egosocial.cli", "apply_consistency", "consistency.filter", _consistency_counts),
    (
        "egosocial.cli",
        "segment",
        "segmentation.segment",
        lambda a, k, res: {"interactions": len(res.interactions), "sub_event_runs": res.sub_event_runs},
    ),
    ("egosocial.cli", "serialize_interactions", "segmentation.serialize", None),
    ("egosocial.cli", "compute_traits", "profile.traits", None),
    ("egosocial.cli", "build_profiles", "profile.profiles", None),
    ("egosocial.cli", "radar_spec_from_profiles", "render.radar", None),
    ("egosocial.cli", "render_radar", "render.radar", lambda a, k, res: {"charts": 1}),
    ("egosocial.cli", "render_table", "render.table", None),
    ("egosocial.cli", "parse_ground_truth", "evaluation.parse_truth", None),
    ("egosocial.cli", "pairwise_prf", "evaluation.score", None),
    ("egosocial.cli", "bcubed_prf", "evaluation.score", None),
)

SETUP_POINTS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("egosocial.synth", "generate", "synth.generate", None),
    (
        "egosocial.ingest",
        "serialize_observations",
        "ingest.serialize",
        lambda a, k, res: {"lines": res.count("\n")},
    ),
    (
        "egosocial.ingest",
        "serialize_coverage",
        "ingest.serialize",
        lambda a, k, res: {"lines": res.count("\n")},
    ),
    ("egosocial.evaluation", "serialize_ground_truth", "evaluation.serialize_truth", None),
)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Keeps spans in memory; ``spans[i]["parent"]`` is an index into ``spans``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["rss_before_kb"] = _peak_rss_kb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_after_kb"] = _peak_rss_kb()
                self._open.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, points) -> Iterator["Tracer"]:
        """Wrap every point for the duration of the block, then restore it."""
        originals = []
        try:
            for module_name, attr, name, counter in points:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the durations of child spans.

    Calls are nested and sequential in one thread, so the children of a span
    never overlap and their durations can simply be summed.
    """
    child_total = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] += span["end"] - span["start"]
    out: dict[str, float] = {}
    for span, children in zip(spans, child_total):
        out[span["name"]] = out.get(span["name"], 0.0) + (span["end"] - span["start"]) - children
    return out


def totals(spans: list[dict], name: str) -> tuple[int, dict[str, int], float]:
    """Calls, summed counts and summed peak-RSS rise (MB) of the spans named ``name``."""
    calls = 0
    counts: dict[str, int] = {}
    rise_kb = 0
    for span in spans:
        if span["name"] != name:
            continue
        calls += 1
        for key, value in span.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        rise_kb += span["rss_after_kb"] - span["rss_before_kb"]
    return calls, counts, rise_kb * 1024 / 1e6


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    from egosocial import cli

    tracer = Tracer()
    with tracer.installed(PIPELINE_POINTS):
        status = tracer.wrap("cli.main", cli.main)(cli_argv)
    with open(spans_path, "w") as fh:
        json.dump({"status": status, "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
