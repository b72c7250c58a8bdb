"""Benchmark of the ``egosocial pipeline`` command on seeded synthetic workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 35

With ``--trace 0`` it runs rounds until ``--seconds`` is spent: each round
builds the workload's input files (timed as set-up) and then runs the real
CLI as a child process, one at a time. It reports end-to-end metrics. With
``--trace 1`` it builds the inputs once, runs the untraced rounds, then runs
the pipeline once more in a child that wraps the library's functions in spans
(``spans.py``), and reports per-layer metrics. ``--all`` runs every workload in
both modes. Every pipeline run must pass the correctness gate in ``Gate``;
the last line of standard output is one JSON object with the result, and the
exit code is non-zero when any run failed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Pinned so that BLAS calls in the child neither fight over the cores nor
# vary their thread count between runs.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_SAMPLES = 3
SETUP_SHARE = 0.25
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

# Written by every `pipeline --truth` run; radar/<wearer>.svg is checked per wearer.
ARTIFACTS = (
    "params.json",
    "clustering.jsonl",
    "consistency.json",
    "interactions.jsonl",
    "segmentation.json",
    "traits.json",
    "traits_table.txt",
    "profiles.json",
    "radar/overlay.svg",
    "eval.json",
    "eval_table.txt",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], stderr_path: Path) -> tuple[int, float, os.struct_rusage]:
    """Run one child to completion; returns exit code, wall seconds and its rusage."""
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# pipeline runs and the correctness gate


def pipeline_run(inputs, out: Path, launcher: list[str]) -> dict:
    """One pipeline child; the sample holds its timings and what the gate needs."""
    shutil.rmtree(out, ignore_errors=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [
        *launcher,
        "pipeline",
        "--obs", str(inputs.observations),
        "--coverage", str(inputs.coverage),
        "--truth", str(inputs.truth),
        "--out", str(out),
    ]
    code, wall, usage = run_child(cmd, out.with_name(out.name + ".stderr"))
    sample = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "problem": None,
    }
    if code != 0:
        sample["problem"] = f"exit code {code}"
        return sample
    expected = [*ARTIFACTS, *(f"radar/{wearer}.svg" for wearer in inputs.wearers)]
    missing = [name for name in expected if not (out / name).is_file()]
    if missing:
        sample["problem"] = f"missing artifacts {missing[:3]}"
        return sample
    scores = json.loads((out / "eval.json").read_text())["methods"]["ahc"]
    sample["pairwise_f"] = scores["pairwise"]["f_measure"]
    sample["bcubed_f"] = scores["bcubed"]["f_measure"]
    records = (out / "clustering.jsonl").read_text().count("\n") - 1
    if records != inputs.n_observations:
        sample["problem"] = f"{records} clustering records for {inputs.n_observations} observations"
    sample["tree"] = tree_hash(out)
    return sample


class Gate:
    """Fails a run that exits non-zero, lacks an artifact, scores below the
    workload's floor, or whose scores or artifact tree differ from the first
    good repeat of the workload (the pipeline is deterministic)."""

    def __init__(self, min_pairwise_f: float) -> None:
        self.min_pairwise_f = min_pairwise_f
        self.reference: dict | None = None
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, sample: dict) -> None:
        self.attempted += 1
        problem = sample["problem"]
        if problem is None and sample["pairwise_f"] < self.min_pairwise_f:
            problem = f"pairwise F {sample['pairwise_f']:.4f} below {self.min_pairwise_f}"
        if problem is None and self.reference is None:
            self.reference = sample
        elif problem is None:
            ref = self.reference
            if (sample["pairwise_f"], sample["bcubed_f"]) != (ref["pairwise_f"], ref["bcubed_f"]):
                problem = "pairwise or B-cubed F differs from the first repeat"
            elif sample["tree"] != ref["tree"]:
                problem = "artifact tree differs from the first repeat"
        sample["problem"] = problem
        if problem is not None:
            self.problems.append(problem)

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.problems.append(problem)


def build(workload, seed: int, out: Path):
    """Build the input files once; returns the inputs and the seconds it took.

    The files are flushed to disk after the clock stops, so that their
    write-back does not land inside a later pipeline run.
    """
    gc.collect()
    start = time.perf_counter()
    inputs = workload.build_inputs(seed, out)
    elapsed = time.perf_counter() - start
    for path in (inputs.observations, inputs.coverage, inputs.truth):
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())
    return inputs, elapsed


def closed_loop(workload, seed: int, work: Path, seconds: float, gate: Gate, inputs=None):
    """Run rounds back to back until the next one would end after ``seconds``.

    A round may rebuild the inputs, timed as set-up, and then runs one
    pipeline child. Builds alternate with pipeline runs so that both sample
    the same stretch of time on a shared machine. The first MIN_SAMPLES
    rounds always rebuild; later rounds rebuild only while set-up has taken
    less than SETUP_SHARE of the time, so that a workload whose build is as
    slow as its pipeline still gets enough pipeline runs. Nothing is rebuilt
    when ``inputs`` is given. Returns the inputs, the set-up times and the
    pipeline samples.
    """
    setup_times: list[float] = []
    samples: list[dict] = []
    digests = set()
    measure_setup = inputs is None
    start = time.perf_counter()

    def wants_build() -> bool:
        elapsed = time.perf_counter() - start
        return measure_setup and (
            len(setup_times) < MIN_SAMPLES or sum(setup_times) < SETUP_SHARE * elapsed
        )

    while True:
        if wants_build():
            inputs, build_s = build(workload, seed, work / "inputs")
            setup_times.append(build_s)
            digests.add(tree_hash(work / "inputs"))
        launcher = [sys.executable, "-m", "egosocial.cli"]
        sample = pipeline_run(inputs, work / "out", launcher)
        gate.check(sample)
        samples.append(sample)
        round_s = statistics.median(s["wall_s"] for s in samples)
        if wants_build():
            round_s += statistics.median(setup_times)
        if len(samples) >= MIN_SAMPLES and time.perf_counter() - start + round_s > seconds:
            break
    if len(digests) > 1:
        gate.fail("set-up wrote different inputs for the same seed")
    return inputs, setup_times, samples


def import_seconds(work: Path, repeats: int) -> list[float]:
    """Wall times of fresh processes that only import the CLI.

    One untimed import runs first, so bytecode is compiled before anything is timed.
    """
    cmd = [sys.executable, "-c", "import egosocial.cli"]
    times = []
    for i in range(repeats + 1):
        code, wall, _ = run_child(cmd, work / "import.stderr")
        if code != 0:
            raise RuntimeError(f"importing egosocial.cli failed, see {work / 'import.stderr'}")
        if i:
            times.append(wall)
    return times


# ---------------------------------------------------------------------------
# metrics


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples: list[dict], setup_times: list[float], n_observations: int) -> dict:
    good = [s for s in samples if s["problem"] is None] or samples
    pipeline_s = statistics.median(s["wall_s"] for s in good)
    return {
        "pipeline_s": metric(pipeline_s, "s"),
        "obs_per_s": metric(n_observations / pipeline_s, "obs/s"),
        "peak_rss_mb": metric(statistics.median(s["peak_rss_mb"] for s in good), "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "pairwise_f": metric(good[0].get("pairwise_f", 0.0), "ratio"),
        "bcubed_f": metric(good[0].get("bcubed_f", 0.0), "ratio"),
    }


def span_metrics(pipeline_spans: list[dict], setup_spans: list[dict], inputs) -> dict:
    """Per-layer self times and counts from the traced pipeline and the traced set-up."""
    own = spans.self_times(pipeline_spans)
    setup_own = spans.self_times(setup_spans)
    out: dict[str, dict] = {}

    def self_s(name: str, table=own) -> float:
        value = table.get(name, 0.0)
        out[f"{name}.self_s"] = metric(value, "s")
        return value

    parse_lines = inputs.n_observations + inputs.n_coverage
    parse_s = self_s("ingest.parse")
    out["ingest.parse.lines"] = metric(parse_lines, "count")
    input_bytes = inputs.observations.stat().st_size + inputs.coverage.stat().st_size
    out["ingest.parse.input_mb"] = metric(input_bytes / 1e6, "MB")
    out["ingest.parse.us_per_line"] = metric(parse_s / parse_lines * 1e6, "us/line")
    self_s("ingest.slice")
    out["ingest.slice.calls"] = metric(spans.totals(pipeline_spans, "ingest.slice")[0], "count")

    self_s("synth.generate", setup_own)
    serialize_s = self_s("ingest.serialize", setup_own)
    serialized = spans.totals(setup_spans, "ingest.serialize")[1]["lines"]
    out["ingest.serialize.us_per_line"] = metric(serialize_s / serialized * 1e6, "us/line")
    self_s("evaluation.serialize_truth", setup_own)

    self_s("clustering.distances")
    _, counts, rise = spans.totals(pipeline_spans, "clustering.distances")
    out["clustering.distances.pairs"] = metric(counts["pairs"], "count")
    out["clustering.distances.dense_mb_computed"] = metric(counts["dense_bytes"] / 1e6, "MB")
    out["clustering.distances.rss_rise_mb"] = metric(rise, "MB")
    self_s("clustering.linkage")
    calls, counts, rise = spans.totals(pipeline_spans, "clustering.linkage")
    out["clustering.linkage.calls"] = metric(calls, "count")
    out["clustering.linkage.merges"] = metric(counts["merges"], "count")
    out["clustering.linkage.rss_rise_mb"] = metric(rise, "MB")
    self_s("clustering.serialize")

    self_s("consistency.filter")
    counts = spans.totals(pipeline_spans, "consistency.filter")[1]
    for key in (
        "clusters",
        "members_pruned",
        "member_scores_computed",
        "verdict.robust",
        "verdict.pruned",
        "verdict.rejected",
        "verdict.singleton",
    ):
        out[f"consistency.{key}"] = metric(counts[key], "count")

    self_s("segmentation.segment")
    counts = spans.totals(pipeline_spans, "segmentation.segment")[1]
    out["segmentation.interactions"] = metric(counts["interactions"], "count")
    out["segmentation.sub_event_runs"] = metric(counts["sub_event_runs"], "count")
    self_s("segmentation.serialize")

    self_s("profile.traits")
    self_s("profile.profiles")
    self_s("render.radar")
    out["render.radar.charts"] = metric(spans.totals(pipeline_spans, "render.radar")[1]["charts"], "count")
    self_s("render.table")
    self_s("evaluation.parse_truth")
    self_s("evaluation.score")

    root = next(s for s in pipeline_spans if s["name"] == "cli.main")
    out["cli.glue.self_s"] = metric(own["cli.main"], "s")
    out["trace.pipeline_s"] = metric(root["end"] - root["start"], "s")
    return out


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas_version,
        "commit": _git_commit(),
        "threads": PINNED_THREADS,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# entry point


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    gate = Gate(workload.min_pairwise_f)
    import_times = import_seconds(work, IMPORT_REPEATS if trace else 0)
    inputs = None
    if trace:
        tracer = spans.Tracer()
        with tracer.installed(spans.SETUP_POINTS):
            inputs, _ = build(workload, seed, work / "inputs")
    inputs, setup_times, samples = closed_loop(workload, seed, work, seconds, gate, inputs)
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "n_observations": inputs.n_observations,
        "setup_s": setup_times,
        "samples": [{k: v for k, v in s.items() if k != "tree"} for s in samples],
    }
    if trace:
        spans_path = work / "spans.json"
        launcher = [sys.executable, str(HERE / "spans.py"), str(spans_path)]
        traced = pipeline_run(inputs, work / "traced", launcher)
        gate.check(traced)  # tracing must not change a single output byte
        if traced["problem"] is None:
            pipeline_spans = json.loads(spans_path.read_text())["spans"]
            layers = span_metrics(pipeline_spans, tracer.spans, inputs)
            untraced_s = statistics.median(s["wall_s"] for s in samples)
            layers["cli.import_s"] = metric(statistics.median(import_times), "s")
            layers["process.cpu_s"] = metric(statistics.median(s["cpu_s"] for s in samples), "s")
            layers["trace.overhead_s"] = metric(traced["wall_s"] - untraced_s, "s")
            result["metrics"] = layers
        else:
            result["metrics"] = {}
    else:
        result["metrics"] = end_to_end(samples, setup_times, inputs.n_observations)
    result["attempted"] = gate.attempted
    result["failed"] = len(gate.problems)
    result["problems"] = gate.problems
    return result


def tail_note(walls: list[float]) -> str:
    """Sample count, plus the highest percentile that has at least ten runs beyond it."""
    n = len(walls)
    if n < 20:
        return f"(median of {n} runs; too few runs for a tail percentile)"
    p = math.floor(100 * (1 - 10 / n))
    return f"(median of {n} runs; p{p} {statistics.quantiles(walls, n=100)[p - 1]:.6g} s)"


def report(result: dict) -> None:
    print(f"## {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['n_observations']} observations")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    for name, entry in result["metrics"].items():
        line = f"{name} {entry['value']:.6g} {entry['unit']}"
        if name == "pipeline_s":
            line += " " + tail_note([s["wall_s"] for s in result["samples"]])
        print(line)
    rate = result["failed"] / result["attempted"]
    print(f"error_rate {rate:.6g} ratio ({result['failed']} of {result['attempted']} runs failed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true", help="every workload, traced and untraced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="closed-loop time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "egosocial" / "cli.py").is_file():
        print(f"error: no egosocial sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.all:
        runs = [(w, t) for w in WORKLOADS.values() for t in (False, True)]
    elif args.workload in WORKLOADS:
        runs = [(WORKLOADS[args.workload], bool(args.trace))]
    else:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment()
    print("# " + json.dumps(env, sort_keys=True))
    results = []
    for workload, trace in runs:
        result = run_workload(workload, args.seed, args.seconds, trace)
        report(result)
        results.append(result)

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = "all" if args.all else f"{args.workload}-trace{args.trace}"
    (results_dir / f"{tag}-seed{args.seed}.json").write_text(
        json.dumps({"environment": env, "results": results}, indent=2) + "\n"
    )
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.all:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    else:
        metrics = results[0]["metrics"]
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
