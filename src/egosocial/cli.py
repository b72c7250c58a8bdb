"""Command-line pipeline: validate, synth, cluster, segment, profile, eval, render.

Every subcommand is scriptable and reproducible: all analytic parameters
are printed at startup, serialized into each artifact's provenance block,
and hashed into a fingerprint, so rerunning a command with identical
inputs and configuration produces a byte-identical artifact tree. A
structured JSON config file (--config) overrides individual flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .clustering import (
    AhcParams,
    Clustering,
    MeanShiftParams,
    SpectralParams,
    cluster_ahc,
    clustering_from_clusters,
    estimate_bandwidth,
    meanshift,
    parse_clustering,
    serialize_clustering,
    spectral,
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
    IngestError,
    load_dataset,
    serialize_coverage,
    serialize_observations,
    slice_dataset,
)
from .profile import SocialTraits, build_profiles, compute_traits
from .render import radar_spec_from_profiles, render_radar, render_table
from .segmentation import (
    SegmentationParams,
    parse_interactions,
    segment,
    serialize_interactions,
)
from .synth import SynthConfigError, dump_config, generate, load_config, serialize_schedule_truth

METHODS = ("ahc", "meanshift", "spectral")


@dataclass
class RunConfig:
    """Analytic parameters of a run; paths never enter the fingerprint."""

    method: str = "ahc"
    metric: str = "euclidean"
    cut_threshold: float = 0.9
    normalize: bool = True
    bandwidth: float | None = None
    k: int | None = None
    affinity_scale: float | None = None
    seed: int = 0
    robust_mean: float = 0.8
    reject_mean: float = 0.4
    member_min: float = 0.70
    min_event_min: float = 3.0
    max_gap_min: float = 15.0

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        config = cls()
        for f in fields(cls):
            if hasattr(args, f.name) and getattr(args, f.name) is not None:
                setattr(config, f.name, getattr(args, f.name))
        # Booleans come through with explicit defaults, take them as-is.
        if hasattr(args, "normalize") and args.normalize is not None:
            config.normalize = args.normalize
        if getattr(args, "config", None):
            for key, value in _read_config_overrides(Path(args.config)).items():
                setattr(config, key, value)
        config.validate()
        return config

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        self.ahc_params()  # raises on bad metric/cut
        self.thresholds()
        self.segmentation_params()

    def ahc_params(self) -> AhcParams:
        return AhcParams(
            metric=self.metric,
            cut_threshold=self.cut_threshold,
            normalize_descriptors=self.normalize,
        )

    def thresholds(self) -> ConsistencyThresholds:
        return ConsistencyThresholds(
            robust_mean=self.robust_mean,
            reject_mean=self.reject_mean,
            member_min=self.member_min,
        )

    def segmentation_params(self) -> SegmentationParams:
        return SegmentationParams(
            min_event_minutes=self.min_event_min,
            max_gap_minutes=self.max_gap_min,
        )

    def analytic_params(self) -> dict:
        return {
            "method": self.method,
            "metric": self.metric,
            "cut_threshold": self.cut_threshold,
            "normalize": self.normalize,
            "bandwidth": self.bandwidth,
            "k": self.k,
            "affinity_scale": self.affinity_scale,
            "seed": self.seed,
            "robust_mean": self.robust_mean,
            "reject_mean": self.reject_mean,
            "member_min": self.member_min,
            "min_event_min": self.min_event_min,
            "max_gap_min": self.max_gap_min,
        }

    def fingerprint(self) -> str:
        canon = json.dumps(self.analytic_params(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _allowed_types(hint: object) -> tuple[type, ...]:
    return typing.get_args(hint) or (hint,)


def _accepts(hint: object, value: object) -> bool:
    """Whether a JSON value fits a RunConfig field annotation."""
    allowed = set(_allowed_types(hint))
    if float in allowed:
        allowed.add(int)  # JSON writes whole numbers without a fraction
    if isinstance(value, bool):  # bool is an int subclass; only bool fields take it
        return bool in allowed
    return type(value) in allowed


def _read_config_overrides(path: Path) -> dict:
    """Parse a --config file into RunConfig overrides, checking keys and value types."""
    try:
        overrides = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise IngestError(f"malformed config {path}: {exc.msg}", exc.lineno) from None
    if not isinstance(overrides, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    hints = typing.get_type_hints(RunConfig)
    for key, value in overrides.items():
        if key not in hints:
            raise ValueError(f"unknown config key {key!r}")
        if not _accepts(hints[key], value):
            expected = " or ".join(
                "null" if t is type(None) else t.__name__ for t in _allowed_types(hints[key])
            )
            raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
    return overrides


def _announce(config: RunConfig) -> None:
    params = config.analytic_params()
    summary = " ".join(f"{k}={v}" for k, v in params.items() if v is not None)
    print(f"egosocial {__version__} | {summary}", file=sys.stderr)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _load(args: argparse.Namespace) -> Dataset:
    obs_text = Path(args.obs).read_text()
    coverage_text = Path(args.coverage).read_text() if getattr(args, "coverage", None) else None
    return load_dataset(obs_text, coverage_text)


def _cluster_one(dataset_slice: Dataset, config: RunConfig) -> Clustering:
    observations = dataset_slice.observations
    if config.method == "ahc":
        return cluster_ahc(observations, config.ahc_params())
    if config.method == "meanshift":
        bw = config.bandwidth
        if bw is None:
            bw = estimate_bandwidth(observations, seed=config.seed)
        return meanshift(observations, bandwidth=bw)
    if config.k is None:
        raise ValueError("spectral clustering requires --k")
    scale = config.affinity_scale
    if scale is None:
        scale = estimate_bandwidth(observations, seed=config.seed)
    return spectral(observations, k=config.k, affinity_scale=scale, seed=config.seed)


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
    config = load_config(Path(args.config).read_text())
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


def _cluster_and_filter(dataset: Dataset, config: RunConfig):
    """Per-wearer clustering plus consistency filtering."""
    per_wearer = {}
    reports = {}
    for wearer in dataset.wearers():
        part = slice_dataset(dataset, wearer)
        if not part.observations:
            continue
        raw = _cluster_one(part, config)
        filtered, report = apply_consistency(raw, part, config.thresholds())
        per_wearer[wearer] = (part, filtered)
        reports[wearer] = report
    return per_wearer, reports


def cmd_cluster(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    _announce(config)
    dataset = _load(args)
    per_wearer, reports = _cluster_and_filter(dataset, config)
    out = Path(args.out)
    _write(out / "clustering.jsonl", serialize_clustering(per_wearer))
    consistency_doc = {
        "provenance": {"fingerprint": config.fingerprint(), "params": config.analytic_params()},
        "wearers": {w: reports[w].to_dict() for w in sorted(reports)},
    }
    _write(out / "consistency.json", json.dumps(consistency_doc, indent=2, sort_keys=True) + "\n")
    for wearer in sorted(per_wearer):
        _, clustering = per_wearer[wearer]
        print(
            f"wearer {wearer}: {clustering.n_clusters} cluster(s), "
            f"{len(clustering.discarded)} discarded observation(s)"
        )
    return 0


def cmd_segment(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    _announce(config)
    dataset = _load(args)
    clusterings = parse_clustering(Path(args.clustering).read_text(), dataset)
    params = config.segmentation_params()
    all_interactions = []
    stats = {}
    for wearer in sorted(clusterings):
        part = slice_dataset(dataset, wearer)
        result = segment(clusterings[wearer], part, params)
        all_interactions.extend(result.interactions)
        stats[wearer] = {
            "interactions": len(result.interactions),
            "sub_event_runs": result.sub_event_runs,
        }
    out = Path(args.out)
    _write(out / "interactions.jsonl", serialize_interactions(all_interactions))
    doc = {
        "provenance": {"fingerprint": config.fingerprint(), "params": config.analytic_params()},
        "wearers": stats,
    }
    _write(out / "segmentation.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for wearer, entry in stats.items():
        print(
            f"wearer {wearer}: {entry['interactions']} interaction(s), "
            f"{entry['sub_event_runs']} sub-event run(s) dropped"
        )
    return 0


def _write_profiles(out: Path, traits: list[SocialTraits], config: RunConfig) -> None:
    provenance = config.fingerprint()
    profiles = build_profiles(traits, provenance=provenance)
    prov_doc = {"fingerprint": provenance, "params": config.analytic_params()}
    _write(
        out / "traits.json",
        json.dumps(
            {"provenance": prov_doc, "wearers": [t.to_dict() for t in traits]},
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    _write(out / "traits_table.txt", render_table(traits))
    _write(
        out / "profiles.json",
        json.dumps(
            {"provenance": prov_doc, "profiles": [p.to_dict() for p in profiles]},
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    for profile in profiles:
        chart = render_radar(
            radar_spec_from_profiles([profile], overlay=False), provenance=provenance
        )
        _write(out / "radar" / f"{profile.traits.wearer_id}.svg", chart)
    overlay = render_radar(radar_spec_from_profiles(profiles, overlay=True), provenance=provenance)
    _write(out / "radar" / "overlay.svg", overlay)


def cmd_profile(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    _announce(config)
    dataset = _load(args)
    interactions = parse_interactions(Path(args.interactions).read_text())
    traits = [
        compute_traits(interactions, dataset.coverage.values(), wearer)
        for wearer in dataset.wearers()
    ]
    out = Path(args.out)
    _write_profiles(out, traits, config)
    print(render_table(traits), end="")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.traits).read_text())
    traits = [SocialTraits.from_dict(rec) for rec in doc["wearers"]]
    provenance = doc.get("provenance", {}).get("fingerprint", "unspecified")
    profiles = build_profiles(traits, provenance=provenance)
    out = Path(args.out)
    for profile in profiles:
        chart = render_radar(
            radar_spec_from_profiles([profile], overlay=False), provenance=provenance
        )
        _write(out / f"{profile.traits.wearer_id}.svg", chart)
    overlay = render_radar(radar_spec_from_profiles(profiles, overlay=True), provenance=provenance)
    _write(out / "overlay.svg", overlay)
    _write(out / "traits_table.txt", render_table(traits))
    print(f"rendered {len(profiles)} profile chart(s) -> {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    _announce(config)
    dataset = _load(args)
    truth = parse_ground_truth(Path(args.truth).read_text())

    methods = [config.method] if args.method else list(METHODS)
    ahc_params = config.ahc_params() if "ahc" in methods else None
    ms_params = (
        MeanShiftParams(bandwidth=config.bandwidth) if "meanshift" in methods else None
    )
    sp_params = None
    if "spectral" in methods and config.k is not None:
        sp_params = SpectralParams(k=config.k, affinity_scale=config.affinity_scale, seed=config.seed)
    elif "spectral" in methods and args.method:
        raise ValueError("spectral evaluation requires --k")

    results = evaluate_methods(
        dataset,
        truth,
        ahc=ahc_params,
        meanshift_params=ms_params,
        spectral_params=sp_params,
        thresholds=config.thresholds(),
    )
    table = render_eval_table(results)
    print(table, end="")
    if getattr(args, "out", None):
        out = Path(args.out)
        doc = {
            "provenance": {"fingerprint": config.fingerprint(), "params": config.analytic_params()},
            "methods": {name: ev.to_dict() for name, ev in results.items()},
        }
        _write(out / "eval.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
        _write(out / "eval_table.txt", table)
    return 0


def _pooled_clustering(dataset: Dataset, per_wearer) -> Clustering:
    """Combine per-wearer clusterings into one partition of the full dataset."""
    key_to_global = {obs.key: i for i, obs in enumerate(dataset.observations)}
    clusters = []
    discarded = []
    for wearer in sorted(per_wearer):
        part, clustering = per_wearer[wearer]
        for members in clustering.clusters:
            clusters.append([key_to_global[part.observations[m].key] for m in members])
        discarded.extend(key_to_global[part.observations[m].key] for m in clustering.discarded)
    return clustering_from_clusters(
        clusters,
        n_observations=len(dataset.observations),
        method_tag="per-wearer",
        params_used={},
        discarded=tuple(discarded),
    )


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    _announce(config)
    dataset = _load(args)
    out = Path(args.out)

    prov_doc = {"fingerprint": config.fingerprint(), "params": config.analytic_params()}
    _write(out / "params.json", json.dumps(prov_doc, indent=2, sort_keys=True) + "\n")

    per_wearer, reports = _cluster_and_filter(dataset, config)
    _write(out / "clustering.jsonl", serialize_clustering(per_wearer))
    consistency_doc = {
        "provenance": prov_doc,
        "wearers": {w: reports[w].to_dict() for w in sorted(reports)},
    }
    _write(out / "consistency.json", json.dumps(consistency_doc, indent=2, sort_keys=True) + "\n")

    params = config.segmentation_params()
    all_interactions = []
    stats = {}
    for wearer in sorted(per_wearer):
        part, clustering = per_wearer[wearer]
        result = segment(clustering, part, params)
        all_interactions.extend(result.interactions)
        stats[wearer] = {
            "interactions": len(result.interactions),
            "sub_event_runs": result.sub_event_runs,
        }
    _write(out / "interactions.jsonl", serialize_interactions(all_interactions))
    _write(
        out / "segmentation.json",
        json.dumps({"provenance": prov_doc, "wearers": stats}, indent=2, sort_keys=True) + "\n",
    )

    traits = [
        compute_traits(all_interactions, dataset.coverage.values(), wearer)
        for wearer in dataset.wearers()
    ]
    _write_profiles(out, traits, config)

    if getattr(args, "truth", None):
        truth = parse_ground_truth(Path(args.truth).read_text())
        pooled = _pooled_clustering(dataset, per_wearer)
        evaluation = MethodEvaluation(
            method=config.method,
            pairwise=pairwise_prf(pooled, dataset, truth),
            bcubed=bcubed_prf(pooled, dataset, truth),
            n_clusters=pooled.n_clusters,
            n_discarded=len(pooled.discarded),
        )
        table = render_eval_table({config.method: evaluation})
        doc = {"provenance": prov_doc, "methods": {config.method: evaluation.to_dict()}}
        _write(out / "eval.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
        _write(out / "eval_table.txt", table)

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
    cluster_p.add_argument("--metric", choices=("euclidean", "cosine", "correlation"))
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
    except (IngestError, SynthConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
