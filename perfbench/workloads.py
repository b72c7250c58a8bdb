"""Seeded synthetic workloads and the set-up step that writes their input files.

Each workload expands into one ``SynthConfig`` per wearer. The workload fixes
the schedule (event count, length and timing); the seed drives only what the
generator draws (identity centres, noise, frame cadence and dropout). Sizes
therefore barely move from seed to seed, while the data do.

Set-up is what the benchmark times as ``setup_s``: per wearer it runs
``synth.generate`` and the library's serializers, then concatenates the
per-wearer texts into one observation, coverage and truth file.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import time
from pathlib import Path

from egosocial import evaluation, ingest, synth


@dataclass(frozen=True)
class Workload:
    name: str
    wearers: int
    days: int
    identities: int
    noise: float
    events_per_day: int
    event_minutes: int
    min_pairwise_f: float  # quality floor of the correctness gate

    def build_inputs(self, seed: int, out: Path) -> "Inputs":
        """Generate and serialize every wearer, then write the concatenated files."""
        obs_parts, cov_parts, truth_parts = [], [], []
        n_observations = n_coverage = 0
        configs = wearer_configs(self, seed)
        for config in configs:
            result = synth.generate(config)
            n_observations += len(result.dataset)
            n_coverage += len(result.dataset.coverage)
            obs_parts.append(ingest.serialize_observations(result.dataset))
            cov_parts.append(ingest.serialize_coverage(result.dataset, include_synthesized=True))
            truth_parts.append(evaluation.serialize_ground_truth(namespaced_truth(result.truth)))
        out.mkdir(parents=True, exist_ok=True)
        inputs = Inputs(
            out / "observations.jsonl", out / "coverage.jsonl", out / "truth.jsonl",
            tuple(c.wearer_id for c in configs), n_observations, n_coverage,
        )
        for path, parts in (
            (inputs.observations, obs_parts),
            (inputs.coverage, cov_parts),
            (inputs.truth, truth_parts),
        ):
            with open(path, "w", newline="\n") as fh:
                fh.write("".join(parts))
        return inputs


WORKLOADS = {
    w.name: w
    for w in (
        # One big n x n problem (~4.5k observations): distances and linkage take
        # most of the time and the dense matrix sets peak RSS. Every consistency
        # verdict is robust, so a prune-loop change must not move this workload.
        Workload(
            name="dense-wearer",
            wearers=1,
            days=2,
            identities=30,
            noise=0.02,
            events_per_day=28,
            event_minutes=35,
            min_pairwise_f=0.99,
        ),
        # Nine ~275-member middle-band clusters: the consistency prune loop
        # dominates while distances and linkage stay small. Nine identities, not
        # three, because how many members get pruned depends on each identity's
        # draw; with three, F and prune time spread by 11% and 21% across seeds.
        Workload(
            name="noisy-crowd",
            wearers=1,
            days=1,
            identities=9,
            noise=0.06,
            events_per_day=36,
            event_minutes=30,
            min_pairwise_f=0.2,
        ),
        # 200 wearers x 3 days (~17k observations, 49 MB): parsing, the O(N)
        # per-wearer slice and record writes dominate, and AHC runs as 200 small
        # calls, so per-call overhead shows where n^2 does not.
        Workload(
            name="cohort",
            wearers=200,
            days=3,
            identities=12,
            noise=0.03,
            events_per_day=1,
            event_minutes=12,
            min_pairwise_f=0.99,
        ),
    )
}

DROPOUT = 0.05
COVERAGE_START_MIN = 9 * 60
COVERAGE_MINUTES = 12 * 60


def _clock(minutes: int) -> time:
    return time(minutes // 60, minutes % 60)


def _schedule(workload: Workload, wearer: int) -> tuple[synth.ScheduledInteraction, ...]:
    """Events spread evenly over the 09:00-21:00 coverage, identities in rotation.

    Single-wearer workloads overlap their events when there are more of them
    than fit end to end; the cohort staggers its one event a day per wearer.
    """
    free = COVERAGE_MINUTES - workload.event_minutes
    events = []
    for day in range(workload.days):
        for slot in range(workload.events_per_day):
            if workload.events_per_day > 1:
                offset = free * slot // (workload.events_per_day - 1)
            else:
                offset = 10 * ((wearer * 7 + day * 3) % (free // 10 + 1))
            start = COVERAGE_START_MIN + offset
            identity = (wearer * 5 + day * workload.events_per_day + slot) % workload.identities
            events.append(
                synth.ScheduledInteraction(
                    identity=identity,
                    day=day,
                    start=_clock(start),
                    end=_clock(start + workload.event_minutes),
                )
            )
    return tuple(events)


def wearer_configs(workload: Workload, seed: int) -> list[synth.SynthConfig]:
    return [
        synth.SynthConfig(
            seed=seed * 1000 + w,
            n_days=workload.days,
            n_identities=workload.identities,
            within_person_noise=workload.noise,
            schedule=_schedule(workload, w),
            dropout_rate=DROPOUT,
            wearer_id=f"wearer-{w:03d}",
        )
        for w in range(workload.wearers)
    ]


def namespaced_truth(truth: evaluation.GroundTruth) -> evaluation.GroundTruth:
    """Prefix each label with its wearer.

    ``synth.identity_label`` names identities per wearer only, so without the
    prefix a merged truth file claims that ``person-003`` of one wearer is the
    same person as ``person-003`` of every other wearer.
    """
    return evaluation.GroundTruth(
        labels={key: f"{key[0]}/{label}" for key, label in truth.labels.items()}
    )


@dataclass(frozen=True)
class Inputs:
    observations: Path
    coverage: Path
    truth: Path
    wearers: tuple[str, ...]
    n_observations: int
    n_coverage: int

