"""Command-line pipeline: validate, synth, cluster, segment, profile, eval, render.

Each stage (cluster and consistency-filter each wearer, segment
interactions, compute traits) has one helper and each artifact group one
writer. ``pipeline`` chains them; ``cluster``, ``segment`` and ``profile``
run one stage each and write the same bytes. The helpers call the library
through this module's names, which ``perfbench/spans.py`` wraps to time
each layer. Every clustering method dispatches through
:func:`egosocial.clustering.cluster`, so ``eval`` clusters as ``cluster`` does.

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
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import IO

from . import __version__
from .clustering import (
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
    IngestError,
    _iter_lines,
    load_dataset,
    serialize_coverage,
    serialize_observations,
    slice_dataset,
)
from .profile import SocialProfile, SocialTraits, build_profiles, compute_traits
from .render import radar_spec_from_profiles, render_radar, render_table
from .segmentation import SegmentationParams, parse_interactions, segment, serialize_interactions
from .synth import dump_config, generate, load_config, serialize_schedule_truth

METHODS = ("ahc", "meanshift", "spectral")

# {wearer: (that wearer's slice of the dataset, its clustering)}
PerWearer = dict[str, tuple[Dataset, Clustering]]


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

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        self.ahc_params()  # raises on bad metric/cut
        self.thresholds()
        self.segmentation_params()

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

    def analytic_params(self) -> dict:
        return asdict(self)


def _allowed_types(hint: object) -> tuple[type, ...]:
    return typing.get_args(hint) or (hint,)


def _accepts(hint: object, value: object) -> bool:
    """Whether a JSON value fits a record field's annotation."""
    allowed = set(_allowed_types(hint))
    if float in allowed:
        allowed.add(int)  # JSON writes whole numbers without a fraction
    if isinstance(value, bool):  # bool is an int subclass; only bool fields take it
        return bool in allowed
    return type(value) in allowed


def _check_value(name: str, hint: object, value: object) -> None:
    """Reject a JSON value that does not fit the annotation ``hint``; ``name`` says where it is."""
    if not _accepts(hint, value):
        names = ("null" if t is type(None) else t.__name__ for t in _allowed_types(hint))
        expected = " or ".join(names)
        raise ValueError(f"{name} must be {expected}, got {value!r}")


def _read_document(path: Path) -> str:
    """The text of a one-document input; an undecodable byte is named by line and column."""
    text = path.read_text(errors="surrogateescape")
    for _ in _iter_lines(text):  # rejects the first escaped byte, naming its line
        pass
    return text


def _read_config_overrides(path: Path) -> dict:
    """Parse a --config file into RunConfig overrides, checking keys and value types."""
    try:
        overrides = json.loads(_read_document(path))
    except json.JSONDecodeError as exc:
        raise IngestError(f"malformed config {path}: {exc.msg}", exc.lineno) from None
    if not isinstance(overrides, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    hints = typing.get_type_hints(RunConfig)
    for key, value in overrides.items():
        if key not in hints:
            raise ValueError(f"unknown config key {key!r}")
        _check_value(f"config key {key!r}", hints[key], value)
    return overrides


def _settings(args: argparse.Namespace) -> dict:
    """The RunConfig fields a command line sets: its flags, then its --config file."""
    names = [f.name for f in fields(RunConfig)]
    settings = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
    if getattr(args, "config", None):
        settings.update(_read_config_overrides(Path(args.config)))
    return settings


def _announce(config: RunConfig, **settled) -> None:
    """Print the run's parameters; ``settled`` as in :func:`_provenance`."""
    params = {**config.analytic_params(), **settled}
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
    config = RunConfig(**_settings(args))
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
    """Write ``doc`` as sorted, indented JSON; a dataclass record in it is written as its fields."""
    _write(path, json.dumps(doc, indent=2, sort_keys=True, default=vars) + "\n")


def _provenance(config: RunConfig, **settled) -> dict:
    """The parameters an artifact was made with, and their fingerprint.

    ``settled`` replaces fields the command decided itself, such as the
    methods ``eval`` scored.
    """
    params = {**config.analytic_params(), **settled}
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
    """The records and provenance fingerprint of a traits report; names a missing key
    or a value whose JSON type does not fit its field. A report without a
    provenance, or a provenance without a fingerprint, is "unspecified"."""
    doc = json.loads(_read_document(path))
    records = doc.get("wearers") if isinstance(doc, dict) else None
    if not isinstance(records, list):
        raise ValueError(f"traits file {path} lacks key 'wearers' (a list of records)")
    hints = typing.get_type_hints(SocialTraits)
    traits = []
    for i, record in enumerate(records):
        where = f"traits file {path}: wearers[{i}]"
        if not isinstance(record, dict):
            raise ValueError(f"{where} must be a JSON object")
        for field in fields(SocialTraits):
            if field.name in record:
                _check_value(f"{where}: key {field.name!r}", hints[field.name], record[field.name])
            elif field.default is MISSING:
                raise ValueError(f"{where} lacks key {field.name!r}")
        traits.append(SocialTraits(**{name: record[name] for name in hints if name in record}))
    provenance = doc.get("provenance", {})
    _check_value(f"traits file {path}: key 'provenance'", dict, provenance)
    fingerprint = provenance.get("fingerprint", "unspecified")
    _check_value(f"traits file {path}: key 'provenance.fingerprint'", str, fingerprint)
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
    config = load_config(_read_document(Path(args.config)))
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
    settings = _settings(args)
    config = RunConfig(**settings)
    # A method named by flag or by config is the only one scored.
    if "method" in settings:
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
    out = Path(args.out)
    prov = _provenance(config)
    _write_json(out / "params.json", prov)

    per_wearer, reports = _cluster_stage(dataset, config)
    _write_clustering(out, per_wearer, reports, prov)
    interactions, stats = _segment_stage(per_wearer, config.segmentation_params())
    _write_segmentation(out, interactions, stats, prov)
    traits = _traits_stage(dataset, interactions)
    _write_profiles(out, traits, prov)

    if args.truth:
        with _open_lines(args.truth) as fh:
            truth = parse_ground_truth(fh)
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
    except (ValueError, OSError) as exc:  # IngestError, SynthConfigError, unreadable paths
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
