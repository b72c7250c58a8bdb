"""Command-line pipeline: validate, synth, cluster, segment, profile, eval, render.

Each stage (cluster and consistency-filter each wearer, segment
interactions, compute traits) has one helper and each artifact group one
writer. ``pipeline`` chains them; ``cluster``, ``segment`` and ``profile``
run one stage each and write the same bytes. The helpers call the library
through this module's names, which ``perfbench/spans.py`` wraps to time
each layer. Every clustering method dispatches through
:func:`egosocial.clustering.cluster`: ``cluster`` and ``pipeline`` cluster
each wearer on its own, while ``eval`` clusters the whole dataset as one
pile through :func:`egosocial.evaluation.evaluate_methods`.

Every subcommand is scriptable and reproducible: all analytic parameters
are printed at startup, serialized into each artifact's provenance block,
and hashed into a fingerprint, so rerunning a command with identical
inputs and configuration produces a byte-identical artifact tree. A
structured JSON config file (--config) overrides individual flags.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import IO

from . import __version__
from .clustering import (
    METRICS,
    AhcParams,
    Clustering,
    MeanShiftParams,
    MethodParams,
    SpectralParams,
    cluster,
    clustering_from_clusters,
    parse_clustering,
    serialize_clustering,
)
from .consistency import ConsistencyThresholds, apply_consistency
from .evaluation import (
    MethodEvaluation,
    bcubed_prf,
    evaluate_methods,
    pairwise_prf,
    parse_ground_truth,
    render_eval_table,
    serialize_ground_truth,
)
from .ingest import (
    Dataset,
    _chart_name_fault,
    _decode,
    _iter_lines,
    _json_document,
    _read_fields,
    load_dataset,
    serialize_coverage,
    serialize_observations,
    slice_dataset,
)
from .profile import SocialProfile, SocialTraits, build_profiles, compute_traits
from .render import radar_spec_from_profiles, render_radar, render_table
from .segmentation import SegmentationParams, parse_interactions, segment, serialize_interactions
from .synth import config_from_dict, dump_config, generate, serialize_schedule_truth

METHODS = ("ahc", "meanshift", "spectral")

# {wearer: (that wearer's slice of the dataset, its clustering)}
PerWearer = dict[str, tuple[Dataset, Clustering]]


@dataclass
class RunConfig:
    """Analytic parameters of a run; paths never enter the fingerprint."""

    method: str = "ahc"
    metric: str = AhcParams.metric
    cut_threshold: float = AhcParams.cut_threshold
    normalize: bool = AhcParams.normalize_descriptors
    bandwidth: float | None = None
    k: int | None = None
    affinity_scale: float | None = None
    seed: int = 0
    robust_mean: float = ConsistencyThresholds.robust_mean
    reject_mean: float = ConsistencyThresholds.reject_mean
    member_min: float = ConsistencyThresholds.member_min
    min_event_min: float = SegmentationParams.min_event_minutes
    max_gap_min: float = SegmentationParams.max_gap_minutes

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        self.ahc_params()  # raises on bad metric/cut
        self.thresholds()
        self.segmentation_params()
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        self.cluster_params()  # raises on a bad setting of the configured method

    def ahc_params(self) -> AhcParams:
        return AhcParams(self.metric, self.cut_threshold, normalize_descriptors=self.normalize)

    def cluster_params(self, method: str | None = None) -> MethodParams:
        """Parameters of ``method`` (the configured one by default) for ``cluster``."""
        method = method or self.method
        if method == "ahc":
            return self.ahc_params()
        if method == "meanshift":
            return MeanShiftParams(bandwidth=self.bandwidth)
        if self.k is None:
            raise ValueError("spectral clustering requires --k")
        return SpectralParams(k=self.k, affinity_scale=self.affinity_scale)

    def thresholds(self) -> ConsistencyThresholds:
        return ConsistencyThresholds(self.robust_mean, self.reject_mean, self.member_min)

    def segmentation_params(self) -> SegmentationParams:
        return SegmentationParams(self.min_event_min, self.max_gap_min)


def _read_document(path: Path, what: str) -> object:
    """The JSON value of a one-document input, named ``what`` in a reject message; an
    undecodable byte is named by line and column."""
    text = path.read_text(errors="surrogateescape")
    for _ in _iter_lines(text):  # rejects the first escaped byte, naming its line
        pass
    return _decode(text, what)


def _settings(args: argparse.Namespace) -> tuple[RunConfig, set[str]]:
    """The run's parameters, its flags overridden by its --config file, and the names
    of those that either sets."""
    names = [f.name for f in fields(RunConfig)]
    flags = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
    overrides = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        overrides = _read_document(path, f"config {path}")
        if not isinstance(overrides, dict):
            raise ValueError(f"config {path} must hold a JSON object")
    return _read_fields(RunConfig, overrides, given=flags), {*flags, *overrides}


def _announce(config: RunConfig, **settled) -> None:
    """Print the run's parameters; ``settled`` as in :func:`_provenance`."""
    params = _provenance(config, **settled)["params"]
    summary = " ".join(f"{k}={v}" for k, v in params.items() if v is not None)
    print(f"egosocial {__version__} | {summary}", file=sys.stderr)


def _open_lines(path: str) -> IO[str]:
    """Open a line-record input with ``Path.read_text()``'s encoding and newlines.

    The readers take the file one line at a time. A byte the encoding rejects
    is kept as an escape, so the reader names its line instead of the decoder
    failing somewhere in a block of the file.
    """
    return open(path, errors="surrogateescape")


def _load(args: argparse.Namespace) -> Dataset:
    coverage = getattr(args, "coverage", None)
    with _open_lines(args.obs) as obs_file, (
        _open_lines(coverage) if coverage else contextlib.nullcontext()
    ) as coverage_file:
        return load_dataset(obs_file, coverage_file)


def _begin(args: argparse.Namespace) -> tuple[RunConfig, Dataset]:
    """Settle and announce the run's parameters, then load its observations."""
    config, _ = _settings(args)
    _announce(config)
    return config, _load(args)


def _cluster_stage(dataset: Dataset, config: RunConfig) -> tuple[PerWearer, dict]:
    """Per-wearer clustering plus consistency filtering, and each wearer's report."""
    per_wearer: PerWearer = {}
    reports = {}
    for wearer in dataset.wearers():
        part = slice_dataset(dataset, wearer)
        if not part.observations:
            continue
        raw = cluster(part.observations, config.cluster_params(), config.seed)
        filtered, reports[wearer] = apply_consistency(raw, part, config.thresholds())
        per_wearer[wearer] = (part, filtered)
    return per_wearer, reports


def _segment_stage(per_wearer: PerWearer, params: SegmentationParams) -> tuple[list, dict]:
    """Every wearer's interactions, plus per-wearer counts of kept and dropped runs."""
    interactions = []
    stats = {}
    for wearer in sorted(per_wearer):
        part, clustering = per_wearer[wearer]
        result = segment(clustering, part, params)
        interactions.extend(result.interactions)
        stats[wearer] = {
            "interactions": len(result.interactions),
            "sub_event_runs": result.sub_event_runs,
        }
    return interactions, stats


def _traits_stage(dataset: Dataset, interactions: list) -> list[SocialTraits]:
    return [
        compute_traits(interactions, dataset.coverage.values(), wearer)
        for wearer in dataset.wearers()
    ]


def _pooled_clustering(dataset: Dataset, per_wearer: PerWearer) -> Clustering:
    """Combine per-wearer clusterings into one partition of the full dataset."""
    key_to_global = {obs.key: i for i, obs in enumerate(dataset.observations)}
    clusters = []
    discarded = []
    for wearer in sorted(per_wearer):
        part, clustering = per_wearer[wearer]
        for members in clustering.clusters:
            clusters.append([key_to_global[part.observations[m].key] for m in members])
        discarded.extend(key_to_global[part.observations[m].key] for m in clustering.discarded)
    n = len(dataset.observations)
    return clustering_from_clusters(clusters, n, "per-wearer", {}, discarded=tuple(discarded))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, doc: dict) -> None:
    _write(path, _json_document(doc))


def _provenance(config: RunConfig, **settled) -> dict:
    """The parameters an artifact was made with, and their fingerprint.

    ``settled`` replaces fields the command decided itself, such as the
    methods ``eval`` scored.
    """
    params = {**asdict(config), **settled}
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return {"fingerprint": hashlib.sha256(canon.encode()).hexdigest()[:16], "params": params}


def _write_clustering(out: Path, per_wearer: PerWearer, reports: dict, prov: dict) -> None:
    _write(out / "clustering.jsonl", serialize_clustering(per_wearer))
    wearers = {w: reports[w].to_dict() for w in sorted(reports)}
    _write_json(out / "consistency.json", {"provenance": prov, "wearers": wearers})


def _write_segmentation(out: Path, interactions: list, stats: dict, prov: dict) -> None:
    _write(out / "interactions.jsonl", serialize_interactions(interactions))
    _write_json(out / "segmentation.json", {"provenance": prov, "wearers": stats})


def _write_charts(out: Path, profiles: tuple[SocialProfile, ...], provenance: str) -> None:
    """One radar chart per wearer, named after it, plus overlay.svg with all of them."""
    for profile in profiles:
        chart = render_radar(
            radar_spec_from_profiles([profile], overlay=False), provenance=provenance
        )
        _write(out / f"{profile.traits.wearer_id}.svg", chart)
    overlay = render_radar(radar_spec_from_profiles(profiles, overlay=True), provenance=provenance)
    _write(out / "overlay.svg", overlay)


def _write_profiles(out: Path, traits: list[SocialTraits], prov: dict) -> None:
    profiles = build_profiles(traits, provenance=prov["fingerprint"])
    _write_json(out / "traits.json", {"provenance": prov, "wearers": traits})
    _write(out / "traits_table.txt", render_table(traits))
    _write_json(
        out / "profiles.json", {"provenance": prov, "profiles": [p.to_dict() for p in profiles]}
    )
    _write_charts(out / "radar", profiles, prov["fingerprint"])


def _write_eval(out: Path, results: dict[str, MethodEvaluation], prov: dict) -> None:
    _write_json(out / "eval.json", {"provenance": prov, "methods": results})
    _write(out / "eval_table.txt", render_eval_table(results))


def _read_traits(path: Path) -> tuple[list[SocialTraits], str]:
    """The records and provenance fingerprint of a traits report; each record is read
    by :func:`ingest._read_fields`, then its wearer id must name its chart and no
    earlier record's. A report without a provenance, or a provenance without a
    fingerprint, is "unspecified"."""
    doc = _read_document(path, f"traits file {path}")
    records = doc.get("wearers") if isinstance(doc, dict) else None
    if not isinstance(records, list):
        raise ValueError(f"traits file {path} lacks key 'wearers' (a list of records)")
    traits = []
    first: dict[str, int] = {}  # the record index of each wearer id
    for i, record in enumerate(records):
        where = f"traits file {path}: wearers[{i}]"
        try:
            entry = _read_fields(SocialTraits, record, f"wearers[{i}]", key="key")
        except ValueError as exc:
            raise ValueError(f"traits file {path}: {exc}") from None
        wearer_id = entry.wearer_id
        fault = _chart_name_fault(wearer_id)
        if fault:
            raise ValueError(f"{where}: {fault}")
        if wearer_id in first:
            raise ValueError(
                f"{where}: wearer_id {wearer_id!r} repeats wearers[{first[wearer_id]}]"
            )
        first[wearer_id] = i
        traits.append(entry)
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValueError(
            f"traits file {path}: key 'provenance' must be a JSON object, got {provenance!r}"
        )
    fingerprint = provenance.get("fingerprint", "unspecified")
    if not isinstance(fingerprint, str):
        raise ValueError(
            f"traits file {path}: key 'provenance.fingerprint' must be a string, "
            f"got {fingerprint!r}"
        )
    return traits, fingerprint


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    dataset = _load(args)
    for wearer in dataset.wearers():
        part = slice_dataset(dataset, wearer)
        days = sorted({key[1] for key in part.coverage})
        print(f"wearer {wearer}: {len(days)} day(s), {len(part)} observation(s)")
        for day in days:
            cov = part.coverage[(wearer, day)]
            count = sum(1 for o in part.observations if o.day == day)
            tag = " [synthesized coverage]" if cov.synthesized else ""
            print(
                f"  {day}: {count} observation(s), coverage "
                f"{cov.start.strftime('%H:%M')}-{cov.end.strftime('%H:%M')} "
                f"({cov.duration_minutes:.1f} min){tag}"
            )
    print("ok")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = config_from_dict(_read_document(Path(args.config), "synth config"))
    result = generate(config)
    out = Path(args.out)
    _write(out / "observations.jsonl", serialize_observations(result.dataset))
    _write(out / "coverage.jsonl", serialize_coverage(result.dataset, include_synthesized=True))
    _write(out / "truth.jsonl", serialize_ground_truth(result.truth))
    _write(out / "schedule_truth.jsonl", serialize_schedule_truth(result.schedule_truth))
    _write(out / "synth_config.json", dump_config(config))
    print(
        f"generated {len(result.dataset)} observations over {config.n_days} day(s) "
        f"for wearer {config.wearer_id} -> {out}"
    )
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    config, dataset = _begin(args)
    per_wearer, reports = _cluster_stage(dataset, config)
    _write_clustering(Path(args.out), per_wearer, reports, _provenance(config))
    for wearer in sorted(per_wearer):
        _, clustering = per_wearer[wearer]
        print(
            f"wearer {wearer}: {clustering.n_clusters} cluster(s), "
            f"{len(clustering.discarded)} discarded observation(s)"
        )
    return 0


def cmd_segment(args: argparse.Namespace) -> int:
    config, dataset = _begin(args)
    clusterings = parse_clustering(
        Path(args.clustering).read_text(errors="surrogateescape"), dataset
    )
    per_wearer = {w: (slice_dataset(dataset, w), clusterings[w]) for w in sorted(clusterings)}
    interactions, stats = _segment_stage(per_wearer, config.segmentation_params())
    _write_segmentation(Path(args.out), interactions, stats, _provenance(config))
    for wearer, entry in stats.items():
        print(
            f"wearer {wearer}: {entry['interactions']} interaction(s), "
            f"{entry['sub_event_runs']} sub-event run(s) dropped"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    config, dataset = _begin(args)
    with _open_lines(args.interactions) as fh:
        interactions = parse_interactions(fh)
    traits = _traits_stage(dataset, interactions)
    _write_profiles(Path(args.out), traits, _provenance(config))
    print(render_table(traits), end="")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    traits, provenance = _read_traits(Path(args.traits))
    profiles = build_profiles(traits, provenance=provenance)
    out = Path(args.out)
    _write_charts(out, profiles, provenance)
    _write(out / "traits_table.txt", render_table(traits))
    print(f"rendered {len(profiles)} profile chart(s) -> {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config, named = _settings(args)
    # A method named by flag or by config is the only one scored.
    if "method" in named:
        methods = [config.method]
    else:
        methods = [m for m in METHODS if m != "spectral" or config.k is not None]
    scored = "+".join(methods)
    _announce(config, method=scored)
    dataset = _load(args)
    with _open_lines(args.truth) as fh:
        truth = parse_ground_truth(fh)

    params = {m: config.cluster_params(m) for m in methods}
    results = evaluate_methods(dataset, truth, params, config.thresholds(), config.seed)
    print(render_eval_table(results), end="")
    if args.out:
        _write_eval(Path(args.out), results, _provenance(config, method=scored))
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config, dataset = _begin(args)
    if args.truth:  # read before anything is written, so a bad file leaves no output
        with _open_lines(args.truth) as fh:
            truth = parse_ground_truth(fh)
    if not dataset.wearers():  # build_profiles' reject, before anything is written
        raise ValueError("need at least one wearer")
    per_wearer, reports = _cluster_stage(dataset, config)  # may reject; nothing written yet
    out = Path(args.out)
    prov = _provenance(config)
    _write_json(out / "params.json", prov)
    _write_clustering(out, per_wearer, reports, prov)
    interactions, stats = _segment_stage(per_wearer, config.segmentation_params())
    _write_segmentation(out, interactions, stats, prov)
    traits = _traits_stage(dataset, interactions)
    _write_profiles(out, traits, prov)

    if args.truth:
        pooled = _pooled_clustering(dataset, per_wearer)
        evaluation = MethodEvaluation(
            method=config.method,
            pairwise=pairwise_prf(pooled, dataset, truth),
            bcubed=bcubed_prf(pooled, dataset, truth),
            n_clusters=pooled.n_clusters,
            n_discarded=len(pooled.discarded),
        )
        _write_eval(out, {config.method: evaluation}, prov)

    print(f"pipeline complete -> {out}")
    print(render_table(traits), end="")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egosocial",
        description="Person re-identification and social pattern analytics "
        "for egocentric photostreams.",
    )
    parser.add_argument("--version", action="version", version=f"egosocial {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    io_p = argparse.ArgumentParser(add_help=False)
    io_p.add_argument("--obs", required=True, help="observation line file")
    io_p.add_argument("--coverage", help="coverage manifest file")

    out_p = argparse.ArgumentParser(add_help=False)
    out_p.add_argument("--out", required=True, help="output directory")

    cfg_p = argparse.ArgumentParser(add_help=False)
    cfg_p.add_argument("--config", help="JSON config file overriding flags")

    cluster_p = argparse.ArgumentParser(add_help=False)
    cluster_p.add_argument("--method", choices=METHODS, help="clustering method (default ahc)")
    cluster_p.add_argument("--metric", choices=METRICS)
    cluster_p.add_argument("--cut-threshold", dest="cut_threshold", type=float)
    cluster_p.add_argument(
        "--normalize",
        dest="normalize",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="L2-normalize descriptors before clustering (default on)",
    )
    cluster_p.add_argument("--bandwidth", type=float, help="mean-shift bandwidth")
    cluster_p.add_argument("--k", type=int, help="spectral cluster count")
    cluster_p.add_argument("--affinity-scale", dest="affinity_scale", type=float)
    cluster_p.add_argument("--seed", type=int)

    cons_p = argparse.ArgumentParser(add_help=False)
    cons_p.add_argument("--robust-mean", dest="robust_mean", type=float)
    cons_p.add_argument("--reject-mean", dest="reject_mean", type=float)
    cons_p.add_argument("--member-min", dest="member_min", type=float)

    seg_p = argparse.ArgumentParser(add_help=False)
    seg_p.add_argument("--min-event-min", dest="min_event_min", type=float)
    seg_p.add_argument("--max-gap-min", dest="max_gap_min", type=float)

    p = sub.add_parser("validate", parents=[io_p], help="check input formats and print counts")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", parents=[out_p], help="generate a synthetic photostream")
    p.add_argument("--config", required=True, help="synthetic schedule config JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "cluster",
        parents=[io_p, out_p, cfg_p, cluster_p, cons_p],
        help="re-identify people: cluster descriptors and filter by consistency",
    )
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser(
        "segment",
        parents=[io_p, out_p, cfg_p, seg_p],
        help="cut identity appearances into social interactions",
    )
    p.add_argument("--clustering", required=True, help="clustering line file")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser(
        "profile",
        parents=[io_p, out_p, cfg_p],
        help="compute the five social traits and profiles",
    )
    p.add_argument("--interactions", required=True, help="interactions line file")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("render", parents=[out_p], help="render radar charts from a traits report")
    p.add_argument("--traits", required=True, help="traits.json from profile/pipeline")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser(
        "eval",
        parents=[io_p, cfg_p, cluster_p, cons_p],
        help="score clustering methods against ground-truth labels",
    )
    p.add_argument("--truth", required=True, help="ground-truth label file")
    p.add_argument("--out", help="optional output directory for the report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "pipeline",
        parents=[io_p, out_p, cfg_p, cluster_p, cons_p, seg_p],
        help="run the full pipeline and write every artifact",
    )
    p.add_argument("--truth", help="optional ground-truth label file")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # IngestError, SynthConfigError, unreadable paths
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
