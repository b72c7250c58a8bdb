"""Person re-identification and social pattern analytics for egocentric photostreams.

Pipeline stages, each usable on its own:

- :mod:`egosocial.ingest`: parse and validate descriptor streams.
- :mod:`egosocial.clustering`: group descriptors into identity clusters
  (average-linkage AHC, mean-shift and spectral baselines).
- :mod:`egosocial.consistency`: Pearson-correlation robustness filtering.
- :mod:`egosocial.segmentation`: identity timelines to interaction events.
- :mod:`egosocial.profile`: the five social behavioural traits.
- :mod:`egosocial.evaluation`: pairwise and BCubed P/R/F scoring.
- :mod:`egosocial.synth`: seeded synthetic photostreams with ground truth.
- :mod:`egosocial.render`: deterministic radar charts and trait tables.
"""

__version__ = "0.1.0"

from .clustering import (
    AhcParams,
    Clustering,
    DistanceMatrix,
    MeanShiftParams,
    SpectralParams,
    ahc_average_linkage,
    cluster,
    cluster_ahc,
    compute_distances,
    estimate_bandwidth,
    meanshift,
    spectral,
)
from .consistency import (
    ConsistencyReport,
    ConsistencyThresholds,
    apply_consistency,
)
from .evaluation import (
    EvalReport,
    GroundTruth,
    bcubed_prf,
    evaluate_methods,
    pairwise_prf,
)
from .ingest import (
    Dataset,
    DayCoverage,
    FaceObservation,
    load_dataset,
    parse_coverage,
    parse_observations,
    serialize_coverage,
    serialize_observations,
    slice_dataset,
)
from .profile import SocialProfile, SocialTraits, build_profiles, compute_traits
from .render import RadarSpec, render_radar, render_table
from .segmentation import (
    Interaction,
    SegmentationParams,
    daily_interaction_timeline,
    segment,
)
from .synth import ScheduledInteraction, SynthConfig, SynthDataset, generate

__all__ = [
    "AhcParams",
    "Clustering",
    "ConsistencyReport",
    "ConsistencyThresholds",
    "Dataset",
    "DayCoverage",
    "DistanceMatrix",
    "EvalReport",
    "FaceObservation",
    "GroundTruth",
    "Interaction",
    "MeanShiftParams",
    "RadarSpec",
    "ScheduledInteraction",
    "SegmentationParams",
    "SocialProfile",
    "SocialTraits",
    "SpectralParams",
    "SynthConfig",
    "SynthDataset",
    "ahc_average_linkage",
    "apply_consistency",
    "bcubed_prf",
    "build_profiles",
    "cluster",
    "cluster_ahc",
    "compute_distances",
    "compute_traits",
    "daily_interaction_timeline",
    "estimate_bandwidth",
    "evaluate_methods",
    "generate",
    "load_dataset",
    "meanshift",
    "pairwise_prf",
    "parse_coverage",
    "parse_observations",
    "render_radar",
    "render_table",
    "segment",
    "serialize_coverage",
    "serialize_observations",
    "slice_dataset",
    "spectral",
]
