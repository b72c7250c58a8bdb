from __future__ import annotations

import argparse
import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from datetime import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import egosocial
from conftest import config_to_dict, dataset_from_matrix, odd_values
from egosocial import cli, clustering
from egosocial.cli import main
from egosocial.consistency import ConsistencyThresholds
from egosocial.ingest import serialize_observations
from egosocial.segmentation import SegmentationParams
from oracles import (
    RUN_CONFIG_KINDS,
    SCHEDULE_ENTRY_KINDS,
    SYNTH_CONFIG_KINDS,
    TRAITS_KINDS,
    naive_chart_fault,
    naive_config_fault,
    naive_document_fault,
    naive_synth_config_fault,
    naive_traits_fault,
)
from egosocial.synth import (
    ScheduledInteraction,
    SynthConfig,
    SynthConfigError,
    config_from_dict,
    dump_config,
)


def _synth(config: SynthConfig, cfg_path: Path, out: Path) -> Path:
    cfg_path.write_text(json.dumps(config_to_dict(config)))
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


@pytest.fixture
def synth_dir(tmp_path):
    config = SynthConfig(
        seed=21,
        n_days=2,
        n_identities=4,
        within_person_noise=0.02,
        dropout_rate=0.05,
        schedule=(
            ScheduledInteraction(0, 0, time(9, 30), time(9, 45)),
            ScheduledInteraction(1, 0, time(11, 0), time(11, 20)),
            ScheduledInteraction(2, 1, time(10, 0), time(10, 12)),
            ScheduledInteraction(3, 1, time(10, 5), time(10, 25)),
            ScheduledInteraction(0, 1, time(16, 0), time(16, 30)),
        ),
    )
    return _synth(config, tmp_path / "synth.json", tmp_path / "data")


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_validate_ok(synth_dir, capsys):
    rc = main(
        [
            "validate",
            "--obs",
            str(synth_dir / "observations.jsonl"),
            "--coverage",
            str(synth_dir / "coverage.jsonl"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "wearer wearer-0: 2 day(s)" in out
    assert "ok" in out


def test_validate_counts_match_generator_bookkeeping(synth_dir, capsys):
    main(
        [
            "validate",
            "--obs",
            str(synth_dir / "observations.jsonl"),
            "--coverage",
            str(synth_dir / "coverage.jsonl"),
        ]
    )
    out = capsys.readouterr().out
    truth_lines = (synth_dir / "schedule_truth.jsonl").read_text().splitlines()
    per_day = {}
    for line in truth_lines:
        rec = json.loads(line)
        per_day[rec["day"]] = per_day.get(rec["day"], 0) + rec["frame_count"]
    for day, count in per_day.items():
        assert f"{day}: {count} observation(s)" in out


def test_validate_rejects_truncated_descriptor(tmp_path, synth_dir, capsys):
    lines = (synth_dir / "observations.jsonl").read_text().splitlines()
    record = json.loads(lines[3])
    record["descriptor"] = record["descriptor"][:100]
    lines[3] = json.dumps(record)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["validate", "--obs", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 4" in err
    assert "128" in err


@pytest.mark.parametrize("digits", [401, 5001])
def test_validate_rejects_oversized_integer_entry_with_line(tmp_path, synth_dir, capsys, digits):
    # 401 digits overflow a float64; 5,001 pass the interpreter's limit on
    # integer text (4,300 digits from Python 3.11), so json.loads itself fails.
    lines = (synth_dir / "observations.jsonl").read_text().splitlines()
    record = json.loads(lines[3])
    record["descriptor"][7] = "BIG"
    lines[3] = json.dumps(record).replace('"BIG"', "1" + "0" * (digits - 1))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["validate", "--obs", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: line 4: ")


def test_pipeline_artifacts_and_determinism(tmp_path, synth_dir):
    args = [
        "pipeline",
        "--obs",
        str(synth_dir / "observations.jsonl"),
        "--coverage",
        str(synth_dir / "coverage.jsonl"),
        "--truth",
        str(synth_dir / "truth.jsonl"),
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0

    expected = {
        "params.json",
        "clustering.jsonl",
        "consistency.json",
        "interactions.jsonl",
        "segmentation.json",
        "traits.json",
        "traits_table.txt",
        "profiles.json",
        "eval.json",
        "eval_table.txt",
        "radar/overlay.svg",
        "radar/wearer-0.svg",
    }
    assert set(_tree_digest(out1)) == expected
    assert _tree_digest(out1) == _tree_digest(out2)


def test_pipeline_empty_observations_zero_traits(tmp_path, synth_dir, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "run"
    rc = main(
        [
            "pipeline",
            "--obs",
            str(empty),
            "--coverage",
            str(synth_dir / "coverage.jsonl"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads((out / "traits.json").read_text())
    (record,) = doc["wearers"]
    assert record["no_interactions"] is True
    assert record["interactions_per_day"] == 0.0
    assert record["minutes_alone_per_day"] == 720.0  # full 09:00-21:00 coverage


def test_stage_chaining_matches_pipeline(tmp_path, synth_dir):
    obs = str(synth_dir / "observations.jsonl")
    cov = str(synth_dir / "coverage.jsonl")
    pipe_out = tmp_path / "pipe"
    assert main(["pipeline", "--obs", obs, "--coverage", cov, "--out", str(pipe_out)]) == 0

    c_out, s_out, p_out = tmp_path / "c", tmp_path / "s", tmp_path / "p"
    assert main(["cluster", "--obs", obs, "--coverage", cov, "--out", str(c_out)]) == 0
    assert (
        main(
            [
                "segment",
                "--obs",
                obs,
                "--coverage",
                cov,
                "--clustering",
                str(c_out / "clustering.jsonl"),
                "--out",
                str(s_out),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "profile",
                "--obs",
                obs,
                "--coverage",
                cov,
                "--interactions",
                str(s_out / "interactions.jsonl"),
                "--out",
                str(p_out),
            ]
        )
        == 0
    )
    radar = sorted(f"radar/{p.name}" for p in (pipe_out / "radar").glob("*.svg"))
    assert radar == ["radar/overlay.svg", "radar/wearer-0.svg"]
    stage_outputs = {
        c_out: ["clustering.jsonl", "consistency.json"],
        s_out: ["interactions.jsonl", "segmentation.json"],
        p_out: ["traits.json", "traits_table.txt", "profiles.json", *radar],
    }
    for stage_out, names in stage_outputs.items():
        for name in names:
            assert (stage_out / name).read_bytes() == (pipe_out / name).read_bytes(), name


def test_render_command(tmp_path, synth_dir):
    obs = str(synth_dir / "observations.jsonl")
    cov = str(synth_dir / "coverage.jsonl")
    pipe_out = tmp_path / "pipe"
    main(["pipeline", "--obs", obs, "--coverage", cov, "--out", str(pipe_out)])
    charts = tmp_path / "charts"
    rc = main(["render", "--traits", str(pipe_out / "traits.json"), "--out", str(charts)])
    assert rc == 0
    assert (charts / "overlay.svg").exists()
    assert (charts / "wearer-0.svg").exists()
    assert (charts / "overlay.svg").read_text().startswith("<svg")


def test_eval_command_table(tmp_path, synth_dir, capsys):
    rc = main(
        [
            "eval",
            "--obs",
            str(synth_dir / "observations.jsonl"),
            "--coverage",
            str(synth_dir / "coverage.jsonl"),
            "--truth",
            str(synth_dir / "truth.jsonl"),
            "--k",
            "4",
            "--out",
            str(tmp_path / "eval"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("ahc", "meanshift", "spectral"):
        assert name in out
    doc = json.loads((tmp_path / "eval" / "eval.json").read_text())
    assert doc["methods"]["ahc"]["pairwise"]["f_measure"] >= 0.9


def test_eval_single_method(synth_dir, capsys):
    rc = main(
        [
            "eval",
            "--obs",
            str(synth_dir / "observations.jsonl"),
            "--truth",
            str(synth_dir / "truth.jsonl"),
            "--method",
            "ahc",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "ahc" in out
    assert "meanshift" not in out


def test_eval_scores_only_the_method_a_config_names(tmp_path, synth_dir):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"method": "meanshift"}))
    out = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--obs",
            str(synth_dir / "observations.jsonl"),
            "--truth",
            str(synth_dir / "truth.jsonl"),
            "--config",
            str(cfg),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads((out / "eval.json").read_text())
    assert doc["provenance"]["params"]["method"] == "meanshift"
    assert set(doc["methods"]) == {"meanshift"}
    assert (out / "eval_table.txt").read_text().count("\n") == 3  # header, rule, one row


def test_eval_provenance_names_the_methods_scored(tmp_path, synth_dir):
    args = [
        "eval",
        "--obs",
        str(synth_dir / "observations.jsonl"),
        "--truth",
        str(synth_dir / "truth.jsonl"),
    ]
    assert main(args + ["--out", str(tmp_path / "every")]) == 0
    assert main(args + ["--method", "ahc", "--out", str(tmp_path / "ahc")]) == 0
    every = json.loads((tmp_path / "every" / "eval.json").read_text())
    ahc = json.loads((tmp_path / "ahc" / "eval.json").read_text())
    assert set(every["methods"]) == {"ahc", "meanshift"}  # spectral needs --k
    assert every["provenance"]["params"]["method"] == "ahc+meanshift"
    assert ahc["provenance"]["params"]["method"] == "ahc"
    assert every["provenance"]["fingerprint"] != ahc["provenance"]["fingerprint"]


@pytest.fixture
def wide_synth_dir(tmp_path):
    """One wearer with more observations than the bandwidth estimate's 500-point subsample."""
    config = SynthConfig(
        seed=5,
        n_days=1,
        n_identities=6,
        within_person_noise=0.04,
        schedule=tuple(
            ScheduledInteraction(i % 6, 0, time(9 + i, 0), time(9 + i, 40)) for i in range(7)
        ),
    )
    out = _synth(config, tmp_path / "wide.json", tmp_path / "wide")
    assert len((out / "observations.jsonl").read_text().splitlines()) > 500
    return out


def test_eval_and_cluster_draw_the_bandwidth_sample_with_the_run_seed(
    wide_synth_dir, tmp_path, monkeypatch
):
    seeds = []
    real = clustering.estimate_bandwidth

    def spy(observations, seed=0):
        seeds.append(seed)
        return real(observations, seed)

    monkeypatch.setattr(clustering, "estimate_bandwidth", spy)
    obs = str(wide_synth_dir / "observations.jsonl")
    truth = str(wide_synth_dir / "truth.jsonl")
    common = ["--obs", obs, "--method", "meanshift", "--seed", "3"]
    assert main(["eval", *common, "--truth", truth]) == 0
    assert main(["cluster", *common, "--out", str(tmp_path / "c")]) == 0
    assert seeds == [3, 3]


def test_render_rejects_traits_file_without_wearers(tmp_path, capsys):
    traits = tmp_path / "traits.json"
    traits.write_text(json.dumps({"provenance": {"fingerprint": "f"}}))
    rc = main(["render", "--traits", str(traits), "--out", str(tmp_path / "charts")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith("error: ")
    assert "'wearers'" in err


def _drop_key(record: dict, key: str) -> dict:
    del record[key]
    return record


def _first_record(corrupt):
    """A corruption of a traits report that applies ``corrupt`` to its first record."""

    def apply(doc: dict) -> dict:
        doc["wearers"][0] = corrupt(doc["wearers"][0])
        return doc

    return apply


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            _first_record(lambda r: _drop_key(r, "minutes_per_person")),
            "wearers[0] lacks key 'minutes_per_person'",
        ),
        (
            _first_record(lambda r: dict(r, days_analyzed="x")),
            "key 'wearers[0].days_analyzed' must be an integer, got 'x'",
        ),
        (
            _first_record(lambda r: dict(r, days_analyzed=2.7)),
            "key 'wearers[0].days_analyzed' must be an integer, got 2.7",
        ),
        (
            _first_record(lambda r: dict(r, persons_per_day="3")),
            "key 'wearers[0].persons_per_day' must be a finite number, got '3'",
        ),
        (
            _first_record(lambda r: dict(r, persons_per_day=True)),
            "key 'wearers[0].persons_per_day' must be a finite number, got True",
        ),
        (
            _first_record(lambda r: dict(r, no_interactions="false")),
            "key 'wearers[0].no_interactions' must be true or false, got 'false'",
        ),
        (
            _first_record(lambda r: dict(r, wearer_id=0)),
            "key 'wearers[0].wearer_id' must be a string, got 0",
        ),
        (_first_record(lambda r: list(r.values())), "wearers[0] must be a JSON object"),
        (lambda d: dict(d, provenance=3), "key 'provenance' must be a JSON object, got 3"),
        (
            lambda d: dict(d, provenance={"fingerprint": 5}),
            "key 'provenance.fingerprint' must be a string, got 5",
        ),
        (
            _first_record(lambda r: dict(r, minutes_per_person=float("nan"))),
            "key 'wearers[0].minutes_per_person' must be a finite number, got nan",
        ),
        (
            _first_record(lambda r: dict(r, days=2)),
            "unknown key 'wearers[0].days'",
        ),
    ],
    ids=[
        "missing-trait",
        "bad-value",
        "float-days",
        "string-trait",
        "bool-trait",
        "string-flag",
        "int-wearer",
        "not-an-object",
        "int-provenance",
        "int-fingerprint",
        "nan-trait",
        "unknown-key",
    ],
)
def test_render_rejects_bad_traits_record(tmp_path, synth_dir, capsys, corrupt, message):
    obs = str(synth_dir / "observations.jsonl")
    assert main(["pipeline", "--obs", obs, "--out", str(tmp_path / "pipe")]) == 0
    doc = corrupt(json.loads((tmp_path / "pipe" / "traits.json").read_text()))
    traits = tmp_path / "traits.json"
    traits.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["render", "--traits", str(traits), "--out", str(tmp_path / "charts")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err == f"error: traits file {traits}: {message}\n"


@pytest.mark.parametrize("provenance", [None, {}], ids=["no-provenance", "no-fingerprint"])
def test_render_reads_a_report_without_a_fingerprint_as_unspecified(
    tmp_path, synth_dir, capsys, provenance
):
    obs = str(synth_dir / "observations.jsonl")
    assert main(["pipeline", "--obs", obs, "--out", str(tmp_path / "pipe")]) == 0
    doc = json.loads((tmp_path / "pipe" / "traits.json").read_text())
    if provenance is None:
        del doc["provenance"]
    else:
        doc["provenance"] = provenance
    traits = tmp_path / "traits.json"
    traits.write_text(json.dumps(doc))
    assert main(["render", "--traits", str(traits), "--out", str(tmp_path / "charts")]) == 0
    assert "unspecified" in (tmp_path / "charts" / "overlay.svg").read_text()


def _files_outside(root: Path, out: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if out not in p.parents and p != out)


# Wearer ids whose radar chart would not be a file of its own in the chart
# directory: "{pwned}" stands for an absolute path beside the run's directory.
_UNCHARTABLE_IDS = pytest.mark.parametrize(
    "wearer",
    ["{pwned}", "../../x", "a/b", "nul\0", "overlay", "w\ud800x", "w" * 300, "\u00e9" * 126],
    ids=["absolute", "climbing", "nested", "nul", "overlay", "surrogate", "long", "long-utf8"],
)


@_UNCHARTABLE_IDS
@pytest.mark.parametrize("source", ["observations", "coverage"])
def test_a_wearer_id_that_cannot_name_its_chart_is_rejected_on_its_line(
    tmp_path, synth_dir, capsys, source, wearer
):
    wearer = wearer.format(pwned=tmp_path / "pwned")
    path = synth_dir / f"{source}.jsonl"
    lines = path.read_text().splitlines()
    lines[1:] = [json.dumps(dict(json.loads(line), wearer_id=wearer)) for line in lines[1:]]
    path.write_text("\n".join(lines) + "\n")
    io = ["--obs", str(synth_dir / "observations.jsonl")]
    if source == "coverage":
        io += ["--coverage", str(path)]
    out = tmp_path / "run"
    before = _files_outside(tmp_path, out)
    capsys.readouterr()
    assert main(["pipeline", *io, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: line 2: {naive_chart_fault(wearer)}"
    assert _files_outside(tmp_path, out) == before
    assert not out.exists()
    assert main(["validate", *io]) == 2
    assert capsys.readouterr().err == f"error: line 2: {naive_chart_fault(wearer)}\n"


@_UNCHARTABLE_IDS
def test_render_rejects_a_wearer_id_that_cannot_name_its_chart(tmp_path, synth_dir, capsys, wearer):
    wearer = wearer.format(pwned=tmp_path / "pwned")
    obs = str(synth_dir / "observations.jsonl")
    assert main(["pipeline", "--obs", obs, "--out", str(tmp_path / "pipe")]) == 0
    doc = json.loads((tmp_path / "pipe" / "traits.json").read_text())
    doc["wearers"][0]["wearer_id"] = wearer
    traits = tmp_path / "traits.json"
    traits.write_text(json.dumps(doc))
    out = tmp_path / "charts"
    before = _files_outside(tmp_path, out)
    capsys.readouterr()
    assert main(["render", "--traits", str(traits), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: traits file {traits}: wearers[0]: {naive_chart_fault(wearer)}\n"
    )
    assert _files_outside(tmp_path, out) == before


def test_render_rejects_a_wearer_id_named_twice(tmp_path, synth_dir, capsys):
    obs = str(synth_dir / "observations.jsonl")
    assert main(["pipeline", "--obs", obs, "--out", str(tmp_path / "pipe")]) == 0
    doc = json.loads((tmp_path / "pipe" / "traits.json").read_text())
    doc["wearers"] += [dict(doc["wearers"][0], persons_per_day=9.0)]
    traits = tmp_path / "traits.json"
    traits.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["render", "--traits", str(traits), "--out", str(tmp_path / "charts")]) == 2
    assert capsys.readouterr().err == (
        f"error: traits file {traits}: wearers[1]: wearer_id 'wearer-0' repeats wearers[0]\n"
    )
    assert not (tmp_path / "charts").exists()


def test_config_file_overrides_flags(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"cut_threshold": 0.05}))
    out = tmp_path / "out"
    rc = main(
        [
            "cluster",
            "--obs",
            str(synth_dir / "observations.jsonl"),
            "--cut-threshold",
            "0.9",
            "--config",
            str(cfg),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    params = json.loads((out / "consistency.json").read_text())["provenance"]["params"]
    assert params["cut_threshold"] == 0.05


def test_a_float_given_as_a_config_integer_runs_as_its_flag(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"cut_threshold": 1}')
    obs = ["--obs", str(synth_dir / "observations.jsonl")]
    assert main(["pipeline", *obs, "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    by_config = capsys.readouterr().err
    assert main(["pipeline", *obs, "--cut-threshold", "1", "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == by_config
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")


def test_unknown_config_key_rejected(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    rc = main(
        [
            "cluster",
            "--obs",
            str(synth_dir / "observations.jsonl"),
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    assert "nonsense" in capsys.readouterr().err


def _drop_field(src: Path, dst: Path, index: int, field: str) -> Path:
    lines = src.read_text().splitlines()
    record = json.loads(lines[index])
    del record[field]
    lines[index] = json.dumps(record)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def test_truth_missing_field_rejected_with_line(tmp_path, synth_dir, capsys):
    bad = _drop_field(synth_dir / "truth.jsonl", tmp_path / "truth.jsonl", 2, "face_index")
    rc = main(
        [
            "pipeline",
            "--obs",
            str(synth_dir / "observations.jsonl"),
            "--truth",
            str(bad),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.endswith("error: line 3: missing fields ['face_index']\n")


def test_interactions_missing_field_rejected_with_line(tmp_path, synth_dir, capsys):
    obs = str(synth_dir / "observations.jsonl")
    assert main(["pipeline", "--obs", obs, "--out", str(tmp_path / "pipe")]) == 0
    bad = _drop_field(
        tmp_path / "pipe" / "interactions.jsonl", tmp_path / "inter.jsonl", 0, "person_cluster_id"
    )
    capsys.readouterr()
    rc = main(["profile", "--obs", obs, "--interactions", str(bad), "--out", str(tmp_path / "p")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.endswith("error: line 1: missing fields ['person_cluster_id']\n")


def _edit_record(line: str, field: str, value=None) -> str:
    """The JSON record on ``line`` with ``field`` set to ``value``, or dropped if None."""
    record = json.loads(line)
    if value is None:
        del record[field]
    else:
        record[field] = value
    return json.dumps(record)


@pytest.mark.parametrize(
    "file_line, corrupt, message",
    [
        (3, lambda ls: _edit_record(ls[2], "face_index"), "missing fields ['face_index']"),
        (
            2,
            lambda ls: _edit_record(ls[1], "cluster_id", "1"),
            "cluster_id must be an integer >= -1, got '1'",
        ),
        (
            4,
            lambda ls: _edit_record(ls[3], "cluster_id", 1.5),
            "cluster_id must be an integer >= -1, got 1.5",
        ),
        (2, lambda ls: ls[1][:-5], "malformed record"),
        (1, lambda ls: ls[0][:-1], "malformed clustering header"),
        (3, lambda ls: _edit_record(ls[2], "image_id", "no-such-image"), "record names no"),
        (3, lambda ls: ls[1], "duplicate record"),
    ],
    ids=[
        "missing-key",
        "string-cluster-id",
        "float-cluster-id",
        "malformed-record",
        "bad-header",
        "stray-record",
        "duplicate-record",
    ],
)
def test_bad_clustering_file_rejected_with_line(
    tmp_path, synth_dir, capsys, file_line, corrupt, message
):
    obs = str(synth_dir / "observations.jsonl")
    assert main(["cluster", "--obs", obs, "--out", str(tmp_path / "c")]) == 0
    lines = (tmp_path / "c" / "clustering.jsonl").read_text().splitlines()
    lines[file_line - 1] = corrupt(lines)
    bad = tmp_path / "clustering.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["segment", "--obs", obs, "--clustering", str(bad), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"error: line {file_line}: {message}")


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"cut_threshold": "0.9"}', "config key 'cut_threshold' must be a finite number, got '0.9'"),
        ('{"normalize": 1}', "config key 'normalize' must be true or false, got 1"),
        ('{"k": 2.5}', "config key 'k' must be an integer or null, got 2.5"),
        ('{"bandwidth": NaN}', "config key 'bandwidth' must be a finite number or null, got nan"),
        ('{"cut_threshold": Infinity}', "config key 'cut_threshold' must be a finite number, got inf"),
        ('{"cut_threshold": 0.9,\n "k": }', "line 2: malformed config"),
        ("[0.9]", "must hold a JSON object"),
        ('{"min_event_min": 1e300}', "min_event_minutes exceeds the longest duration, got 1e+300"),
    ],
)
def test_bad_config_values_rejected(tmp_path, synth_dir, capsys, text, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    rc = main(
        [
            "pipeline",
            "--obs",
            str(synth_dir / "observations.jsonl"),
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert message in err[0]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-gap-min", "inf"], "max_gap_minutes exceeds the longest duration, got inf"),
        (["--min-event-min", "1e300"], "min_event_minutes exceeds the longest duration, got 1e+300"),
        (["--method", "meanshift", "--bandwidth", "nan"], "bandwidth must be a finite number, got nan"),
        (
            ["--method", "spectral", "--k", "3", "--affinity-scale", "nan"],
            "affinity_scale must be a finite number, got nan",
        ),
        (["--bandwidth", "nan"], "bandwidth must be a finite number, got nan"),
        (["--affinity-scale=-inf"], "affinity_scale must be a finite number, got -inf"),
        (["--cut-threshold", "inf"], "cut_threshold must be a finite number, got inf"),
    ],
    ids=[
        "max-gap-inf",
        "min-event-huge",
        "bandwidth-nan",
        "affinity-scale-nan",
        "bandwidth-nan-unused",
        "affinity-scale-inf-unused",
        "cut-inf",
    ],
)
def test_out_of_range_run_flag_rejected(tmp_path, synth_dir, capsys, flags, message):
    obs = str(synth_dir / "observations.jsonl")
    capsys.readouterr()
    rc = main(["pipeline", "--obs", obs, "--out", str(tmp_path / "o"), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"error: {message}"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--method", "spectral"], "spectral clustering requires --k"),
        (["--method", "spectral", "--k", "0"], "need 1 <= k, got k=0"),
        (
            ["--method", "spectral", "--k", "2", "--affinity-scale", "0"],
            "affinity_scale must be positive",
        ),
        (["--method", "meanshift", "--bandwidth", "0"], "bandwidth must be positive"),
        (["--method", "meanshift", "--bandwidth", "-1.5"], "bandwidth must be positive"),
    ],
    ids=[
        "spectral-without-k",
        "spectral-k-0",
        "affinity-scale-0",
        "bandwidth-0",
        "bandwidth-negative",
    ],
)
def test_bad_method_setting_rejected_before_anything_is_written(
    tmp_path, synth_dir, capsys, flags, message
):
    out = tmp_path / "o"
    capsys.readouterr()
    obs = str(synth_dir / "observations.jsonl")
    rc = main(["pipeline", "--obs", obs, "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "lines, flags",
    [(None, []), (1, ["--method", "meanshift"])],
    ids=["clusterable", "clustering-would-reject"],
)
def test_bad_truth_file_rejected_before_anything_is_written(
    tmp_path, synth_dir, capsys, lines, flags
):
    obs = tmp_path / "obs.jsonl"
    head = (synth_dir / "observations.jsonl").read_text().splitlines(keepends=True)[:lines]
    obs.write_text("".join(head))
    truth = tmp_path / "truth.jsonl"
    truth.write_text("not json\n")
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main(["pipeline", "--obs", str(obs), "--truth", str(truth), "--out", str(out), *flags])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: line 1: malformed record: Expecting value")
    assert not out.exists()


@pytest.mark.parametrize(
    "lines, flags, message",
    [
        (1, ["--method", "meanshift"], "need at least 2 observations to estimate a bandwidth"),
        (2, ["--method", "spectral", "--k", "3"], "need 1 <= k <= 2, got k=3"),
    ],
    ids=["meanshift-one-observation", "spectral-k-above-observations"],
)
@pytest.mark.parametrize("command", ["cluster", "pipeline"])
def test_failed_clustering_writes_nothing(
    tmp_path, synth_dir, capsys, command, lines, flags, message
):
    obs = tmp_path / "obs.jsonl"
    head = (synth_dir / "observations.jsonl").read_text().splitlines(keepends=True)[:lines]
    obs.write_text("".join(head))
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main([command, "--obs", str(obs), "--out", str(out), *flags])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not out.exists()


def test_run_config_defaults_are_the_library_defaults():
    config = cli.RunConfig()
    assert config.ahc_params() == clustering.AhcParams()
    assert config.thresholds() == ConsistencyThresholds()
    assert config.segmentation_params() == SegmentationParams()


@pytest.fixture
def empty_synth_dir(tmp_path):
    """synth's output for an empty schedule: no observation, one coverage entry a day."""
    config = SynthConfig(seed=3, n_days=2, schedule=())
    out = _synth(config, tmp_path / "empty.json", tmp_path / "empty")
    assert (out / "observations.jsonl").read_text() == ""
    assert (out / "coverage.jsonl").read_text().count("\n") == 2
    return out


def test_pipeline_without_a_wearer_is_rejected_before_anything_is_written(
    tmp_path, empty_synth_dir, capsys
):
    out = tmp_path / "o"
    capsys.readouterr()
    obs = str(empty_synth_dir / "observations.jsonl")
    rc = main(["pipeline", "--obs", obs, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert err[-1] == "error: need at least one wearer"
    assert not out.exists()
    interactions = tmp_path / "interactions.jsonl"
    interactions.write_text("")
    rc = main(["profile", "--obs", obs, "--interactions", str(interactions), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: need at least one wearer"
    assert not out.exists()


def test_pipeline_with_only_coverage_wearers_still_succeeds(tmp_path, empty_synth_dir, capsys):
    data = empty_synth_dir
    out = tmp_path / "o"
    io = ["--obs", str(data / "observations.jsonl"), "--coverage", str(data / "coverage.jsonl")]
    assert main(["pipeline", *io, "--out", str(out)]) == 0
    assert "wearer-0 | 0 " in capsys.readouterr().out
    assert (out / "radar" / "wearer-0.svg").is_file()


_DEEP_DOCUMENT_COMMANDS = pytest.mark.parametrize(
    "command, message",
    [
        (["pipeline", "--obs", "{obs}", "--config", "{doc}"], "malformed config {doc}: nested too deeply"),
        (["render", "--traits", "{doc}"], "malformed traits file {doc}: nested too deeply"),
        (["synth", "--config", "{doc}"], "malformed synth config: nested too deeply"),
    ],
    ids=["pipeline-config", "render-traits", "synth-config"],
)


def _reject_deep(tmp_path, synth_dir, capsys, command, text) -> str:
    doc = tmp_path / "deep.json"
    doc.write_text(text)
    where = {"obs": synth_dir / "observations.jsonl", "doc": doc}
    argv = [arg.format(**where) for arg in command] + ["--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(argv) == 2
    return capsys.readouterr().err.replace(str(doc), "{doc}")


@_DEEP_DOCUMENT_COMMANDS
def test_deeply_nested_document_rejected(tmp_path, synth_dir, capsys, command, message):
    err = _reject_deep(tmp_path, synth_dir, capsys, command, "[" * 100_000)
    assert err == f"error: line 1: {message}\n"


@_DEEP_DOCUMENT_COMMANDS
def test_deeply_nested_document_named_by_the_line_the_decoder_stops_on(
    tmp_path, synth_dir, capsys, command, message
):
    # Line 1 holds a string of brackets and a shallow run, line 2 the deep one,
    # where the decoder gives up, and line 3 closes some of it and opens a
    # shallower run.
    text = '{"a": "[[[[", "b": ' + "[" * 100 + "]" * 100 + ',\n "c": ' + "[" * 100_000
    text += "\n" + "]" * 10 + "[" * 5
    err = _reject_deep(tmp_path, synth_dir, capsys, command, text)
    assert err == f"error: line 2: {message}\n"


@pytest.mark.parametrize(
    "command, what",
    [
        (["pipeline", "--obs", "{obs}", "--config", "{doc}"], "config {doc}"),
        (["render", "--traits", "{doc}"], "traits file {doc}"),
        (["synth", "--config", "{doc}"], "synth config"),
    ],
    ids=["pipeline-config", "render-traits", "synth-config"],
)
def test_too_long_integer_in_document_rejected_with_its_line(
    tmp_path, synth_dir, capsys, command, what
):
    # The decoder itself rejects an integer past the interpreter's digit
    # limit (4,300 digits from Python 3.11); a float's digits pass.
    doc = tmp_path / "long.json"
    doc.write_text('{"seed": 1.' + "5" * 5000 + ',\n "n_days":\n  ' + "1" * 5001 + "\n}\n")
    where = {"obs": synth_dir / "observations.jsonl", "doc": doc}
    argv = [arg.format(**where) for arg in command] + ["--out", str(tmp_path / "o")]
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith(f"error: line 3: malformed {what.format(**where)}: Exceeds the limit")


def test_deeply_nested_clustering_header_rejected(tmp_path, synth_dir, capsys):
    deep = tmp_path / "deep.jsonl"
    deep.write_text(clustering.CLUSTERING_HEADER + "[" * 100_000 + "\n")
    obs = str(synth_dir / "observations.jsonl")
    capsys.readouterr()
    rc = main(["segment", "--obs", obs, "--clustering", str(deep), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "error: line 1: malformed clustering header: nested too deeply"


@pytest.mark.parametrize(
    "command, message",
    [
        (["pipeline", "--obs", "{obs}", "--config", "{doc}"], "malformed config {doc}"),
        (["render", "--traits", "{doc}"], "malformed traits file {doc}"),
        (["synth", "--config", "{doc}"], "malformed synth config"),
        (["segment", "--obs", "{obs}", "--clustering", "{header}"], "malformed clustering header"),
    ],
    ids=["pipeline-config", "render-traits", "synth-config", "clustering-header"],
)
def test_malformed_document_rejected_with_its_line(tmp_path, synth_dir, capsys, command, message):
    doc = tmp_path / "bad.json"
    doc.write_text('{"seed":\n}\n')
    header = tmp_path / "bad-header.jsonl"
    header.write_text("\n" + clustering.CLUSTERING_HEADER + '{"u1": }\n')
    where = {"obs": synth_dir / "observations.jsonl", "doc": doc, "header": header}
    argv = [arg.format(**where) for arg in command] + ["--out", str(tmp_path / "o")]
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"error: line 2: {message.format(**where)}: Expecting value"


_RUN_CONFIG = {"method": "ahc", "cut_threshold": 0.5, "k": None, "normalize": True, "seed": 3}

# Stands for an integer with more digits than the interpreter converts, which
# json.dumps cannot write; _dumped writes it.
_TOO_LONG = "\x00too long"


def _dumped(doc) -> str:
    """``doc`` as JSON, one key to a line, with each _TOO_LONG made such an integer."""
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    return json.dumps(doc, indent=1).replace(json.dumps(_TOO_LONG), digits)


def _corrupt_values():
    return st.one_of(odd_values(), st.just(_TOO_LONG))


def _read_run_config(path: Path) -> cli.RunConfig:
    config, _ = cli._settings(argparse.Namespace(config=str(path)))
    return config


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(key=st.sampled_from([*RUN_CONFIG_KINDS, "nonsense"]), value=_corrupt_values())
def test_config_reader_rejects_as_the_oracle(tmp_path, key, value):
    path = tmp_path / "run.json"
    text = _dumped(dict(_RUN_CONFIG, **{key: value}))
    path.write_text(text)
    expected = naive_document_fault(text, f"config {path}")
    if expected is None:
        doc = json.loads(text)
        expected = naive_config_fault(doc)
        if expected is None or expected.startswith("unknown "):
            # RunConfig's own checks run after the kinds and before the unknown keys,
            # on each setting as read: a float setting given as an integer is a float.
            settings = {
                k: float(v) if "float" in RUN_CONFIG_KINDS[k] and type(v) is int else v
                for k, v in doc.items()
                if k in RUN_CONFIG_KINDS
            }
            try:
                want = cli.RunConfig(**settings)
            except ValueError as exc:
                expected = str(exc)
    if expected is None:
        config = _read_run_config(path)
        assert config == want
        for key, kinds in RUN_CONFIG_KINDS.items():
            if "float" in kinds and getattr(config, key) is not None:
                assert type(getattr(config, key)) is float
        return
    with pytest.raises(ValueError) as info:
        _read_run_config(path)
    assert str(info.value) == expected


_TRAITS_RECORD = {
    "wearer_id": "u1",
    "persons_per_day": 2.0,
    "interactions_per_day": 3.0,
    "minutes_per_interaction": 12.5,
    "minutes_per_person": 18.75,
    "minutes_alone_per_day": 480.0,
    "days_analyzed": 2,
    "no_interactions": False,
}
_TRAITS_DOC = {
    "provenance": {"fingerprint": "f"},
    "wearers": [
        _TRAITS_RECORD,
        {**{k: v for k, v in _TRAITS_RECORD.items() if k != "no_interactions"}, "wearer_id": "u2"},
    ],
}
# Where a corrupted traits report may hold an odd value: a key of either record or
# one that names no trait, the provenance, its fingerprint, or the record list itself.
_TRAITS_KEYS = [
    *(("wearers", i, key) for i in range(2) for key in [*TRAITS_KINDS, "nonsense"]),
    ("provenance",),
    ("provenance", "fingerprint"),
    ("wearers",),
]


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(at=st.sampled_from(_TRAITS_KEYS), value=_corrupt_values())
def test_traits_reader_rejects_as_the_oracle(tmp_path, at, value):
    doc = json.loads(json.dumps(_TRAITS_DOC))
    *parents, key = at
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = value
    path = tmp_path / "traits.json"
    text = _dumped(doc)
    path.write_text(text)
    expected = naive_document_fault(text, f"traits file {path}")
    if expected is None:
        doc = json.loads(text)
        expected = naive_traits_fault(doc, path)
    if expected is None:
        traits, _ = cli._read_traits(path)
        assert len(traits) == len(doc["wearers"])
        return
    with pytest.raises(ValueError) as info:
        cli._read_traits(path)
    assert str(info.value) == expected


_SYNTH_DOC = {
    "seed": 3,
    "n_days": 2,
    "n_identities": 2,
    "frame_interval_seconds": [20, 30.5],
    "schedule": [
        {"identity": 0, "day": 0, "start": "09:00", "end": "09:20"},
        {"identity": 1, "day": 1, "start": "10:00", "end": "10:15"},
    ],
}
# Where a corrupted synth config may hold an odd value or lack a key: a key of the
# config, an entry of the frame interval, a key of either schedule entry, or a key
# that names no field at either level.
_SYNTH_KEYS = [
    *((key,) for key in [*SYNTH_CONFIG_KINDS, "nonsense"]),
    *(("frame_interval_seconds", i) for i in range(2)),
    *(("schedule", i, key) for i in range(2) for key in [*SCHEDULE_ENTRY_KINDS, "nonsense"]),
]
# Stands for a key taken out of its object.
_ABSENT = "\x00absent"


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(at=st.sampled_from(_SYNTH_KEYS), value=st.one_of(_corrupt_values(), st.just(_ABSENT)))
def test_synth_config_reader_rejects_as_the_oracle(tmp_path, at, value):
    doc = json.loads(json.dumps(_SYNTH_DOC))
    *parents, key = at
    target = doc
    for parent in parents:
        target = target[parent]
    if value != _ABSENT:
        target[key] = value
    elif isinstance(target, dict):
        target.pop(key, None)
    else:
        del target[key]
    path = tmp_path / "synth.json"
    text = _dumped(doc)
    path.write_text(text)
    expected = naive_document_fault(text, "synth config")
    if expected is None:
        expected = naive_synth_config_fault(json.loads(text))
    if expected is None:
        try:
            config = config_from_dict(cli._read_document(path, "synth config"))
        except SynthConfigError:
            return  # the config's or an entry's own checks, which the oracle leaves out
        assert all(type(v) is float for v in config.frame_interval_seconds)
        assert config_from_dict(json.loads(dump_config(config))) == config
        return
    with pytest.raises(ValueError) as info:
        config_from_dict(cli._read_document(path, "synth config"))
    assert str(info.value) == expected


def test_defaults_announced_on_stderr(synth_dir, tmp_path, capsys):
    main(
        [
            "cluster",
            "--obs",
            str(synth_dir / "observations.jsonl"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    err = capsys.readouterr().err
    for token in (
        "robust_mean=0.8",
        "reject_mean=0.4",
        "member_min=0.7",
        "min_event_min=3.0",
        "max_gap_min=15.0",
    ):
        assert token in err


def test_eval_announces_the_methods_it_scores(synth_dir, capsys):
    args = ["eval", "--obs", str(synth_dir / "observations.jsonl")]
    args += ["--truth", str(synth_dir / "truth.jsonl")]
    assert main(args) == 0
    assert " method=ahc+meanshift " in capsys.readouterr().err
    assert main(args + ["--k", "4"]) == 0
    assert " method=ahc+meanshift+spectral " in capsys.readouterr().err
    assert main(args + ["--method", "ahc"]) == 0
    assert " method=ahc " in capsys.readouterr().err


def _with_bad_byte(src: Path, dst: Path, line_no: int, column: int) -> Path:
    lines = src.read_bytes().split(b"\n")
    line = lines[line_no - 1]
    lines[line_no - 1] = line[: column - 1] + b"\xff" + line[column - 1 :]
    dst.write_bytes(b"\n".join(lines))
    return dst


@pytest.mark.parametrize(
    "kind",
    ["obs", "coverage", "truth", "interactions", "clustering", "config", "traits", "synth-config"],
)
def test_undecodable_byte_rejected_with_line(tmp_path, synth_dir, capsys, kind):
    obs, cov = str(synth_dir / "observations.jsonl"), str(synth_dir / "coverage.jsonl")
    pipe = tmp_path / "pipe"
    assert main(["pipeline", "--obs", obs, "--out", str(pipe)]) == 0
    config, synth_config = tmp_path / "run.json", tmp_path / "synth-indented.json"
    config.write_text(json.dumps({"seed": 1, "k": 2}, indent=2))
    synth_config.write_text(json.dumps(json.loads((tmp_path / "synth.json").read_text()), indent=2))
    sources = {
        "obs": synth_dir / "observations.jsonl",
        "coverage": synth_dir / "coverage.jsonl",
        "truth": synth_dir / "truth.jsonl",
        "interactions": pipe / "interactions.jsonl",
        "clustering": pipe / "clustering.jsonl",
        "config": config,
        "traits": pipe / "traits.json",
        "synth-config": synth_config,
    }
    bad = str(_with_bad_byte(sources[kind], tmp_path / f"bad-{kind}.jsonl", 2, 9))
    out = str(tmp_path / "out")
    argv = {
        "obs": ["validate", "--obs", bad],
        "coverage": ["validate", "--obs", obs, "--coverage", bad],
        "truth": ["pipeline", "--obs", obs, "--truth", bad, "--out", out],
        "interactions": ["profile", "--obs", obs, "--interactions", bad, "--out", out],
        "clustering": ["segment", "--obs", obs, "--clustering", bad, "--out", out],
        "config": ["cluster", "--obs", obs, "--config", bad, "--out", out],
        "traits": ["render", "--traits", bad, "--out", out],
        "synth-config": ["synth", "--config", bad, "--out", out],
    }[kind]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: line 2: undecodable byte 0xff at column 9"
    assert not Path(out).exists()


_FACE_INDEX = "face_index must be a non-negative integer, got "


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda ls: _edit_record(ls[2], "face_index", 0.7), _FACE_INDEX + "0.7"),
        (lambda ls: _edit_record(ls[2], "face_index", True), _FACE_INDEX + "True"),
        (lambda ls: _edit_record(ls[2], "face_index", "0"), _FACE_INDEX + "'0'"),
        (lambda ls: _edit_record(ls[2], "face_index", -1), _FACE_INDEX + "-1"),
        (
            lambda ls: _edit_record(ls[0], "label", "someone-else"),
            "duplicate (image_id, face_index) = ('img-000000', 0) for wearer 'wearer-0', "
            "first seen on line 1",
        ),
    ],
    ids=["float-face-index", "bool-face-index", "string-face-index", "negative-face-index",
         "duplicate-key"],
)
def test_bad_truth_record_rejected_with_line(tmp_path, synth_dir, capsys, corrupt, message):
    lines = (synth_dir / "truth.jsonl").read_text().splitlines()
    lines[2] = corrupt(lines)
    bad = tmp_path / "truth.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    obs = str(synth_dir / "observations.jsonl")
    assert main(["eval", "--obs", obs, "--truth", str(bad), "--method", "ahc"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: line 3: {message}"


@pytest.mark.parametrize(
    "field, value",
    [
        ("person_cluster_id", 1.5),
        ("person_cluster_id", "2"),
        ("observation_count", True),
        ("observation_count", -3),
    ],
)
def test_non_integer_interaction_field_rejected_with_line(
    tmp_path, synth_dir, capsys, field, value
):
    obs = str(synth_dir / "observations.jsonl")
    assert main(["pipeline", "--obs", obs, "--out", str(tmp_path / "pipe")]) == 0
    lines = (tmp_path / "pipe" / "interactions.jsonl").read_text().splitlines()
    lines[1] = _edit_record(lines[1], field, value)
    bad = tmp_path / "interactions.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["profile", "--obs", obs, "--interactions", str(bad), "--out", str(tmp_path / "p")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: line 2: {field} must be a non-negative integer, got {value!r}"
    )


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"n_identities": 2, "schedule": [
                {"identity": 0, "day": 0, "start": "09:00", "end": "09:10"},
                {"day": 0, "start": "10:00", "end": "10:10"},
            ]},
            "schedule[1] lacks key 'identity'",
        ),
        ({"schedule": [3]}, "schedule[0] must be a JSON object"),
        ([{"seed": 1}], "synth config must hold a JSON object"),
        (
            {"frame_interval_seconds": 5},
            "config key 'frame_interval_seconds' must be a list of two numbers, got 5",
        ),
        (
            {"frame_interval_seconds": [20, "30"]},
            "config key 'frame_interval_seconds[1]' must be a finite number, got '30'",
        ),
        (
            {"n_identities": 2, "schedule": [
                {"identity": 1, "day": 0, "start": 9, "end": "10:10"},
            ]},
            "config key 'schedule[0].start' must be an ISO time string, got 9",
        ),
        (
            {"schedule": [{"identity": True, "day": 0, "start": "09:00", "end": "09:10"}]},
            "config key 'schedule[0].identity' must be an integer, got True",
        ),
        ({"schedule": {}}, "config key 'schedule' must be a list, got {}"),
        ({"seed": "x"}, "config key 'seed' must be an integer, got 'x'"),
        ({"n_days": 2.5}, "config key 'n_days' must be an integer, got 2.5"),
        ({"seed": True}, "config key 'seed' must be an integer, got True"),
        ({"dropout_rate": False}, "config key 'dropout_rate' must be a finite number, got False"),
        ({"wearer_id": 7}, "config key 'wearer_id' must be a string, got 7"),
        ({"base_day": "March 4"}, "config key 'base_day' must be an ISO date string, got 'March 4'"),
        ({"sead": 9}, "unknown config key 'sead'"),
        (
            {"n_days": 2, "schedule": [
                {"identity": 0, "day": 1, "start": "09:00", "end": "09:10", "extra": 1},
            ]},
            "unknown config key 'schedule[0].extra'",
        ),
        # Every other check comes first, so an input rejected before keeps its message.
        ({"sead": 9, "n_days": 0}, "need at least one day and one identity"),
        (
            {"schedule": [{"identity": 0, "day": 3, "start": "09:00", "end": "09:10", "x": 1}]},
            "scheduled day 3 outside 0..0",
        ),
        ({"wearer_id": "overlay"}, naive_chart_fault("overlay")),
        ({"wearer_id": "w\ud800x"}, naive_chart_fault("w\ud800x")),
        ({"wearer_id": "w" * 300}, naive_chart_fault("w" * 300)),
    ],
    ids=[
        "missing-identity",
        "entry-not-an-object",
        "not-an-object",
        "interval-not-a-list",
        "interval-entry-string",
        "start-not-a-string",
        "identity-bool",
        "schedule-not-a-list",
        "seed-string",
        "days-float",
        "seed-bool",
        "rate-bool",
        "wearer-int",
        "bad-date",
        "unknown-key",
        "unknown-schedule-key",
        "unknown-key-after-range-check",
        "unknown-schedule-key-after-range-check",
        "wearer-overlay",
        "wearer-surrogate",
        "wearer-long",
    ],
)
def test_bad_synth_config_rejected(tmp_path, capsys, doc, message):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_validate_reads_any_line_ending_alike(tmp_path, synth_dir, capsys, newline):
    copies = {}
    for name in ("observations.jsonl", "coverage.jsonl"):
        copies[name] = tmp_path / name
        text = (synth_dir / name).read_text()
        copies[name].write_bytes(text.replace("\n", newline).encode())
    capsys.readouterr()
    assert main(["validate", "--obs", str(synth_dir / "observations.jsonl"),
                 "--coverage", str(synth_dir / "coverage.jsonl")]) == 0
    expected = capsys.readouterr()
    assert main(["validate", "--obs", str(copies["observations.jsonl"]),
                 "--coverage", str(copies["coverage.jsonl"])]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize(
    "case", ["config-dir", "obs-dir", "traits-dir", "out-is-a-file", "missing-obs"]
)
def test_unusable_paths_rejected(tmp_path, synth_dir, capsys, case):
    """A directory, an existing file as --out, or a missing file: error and exit code 2."""
    obs = str(synth_dir / "observations.jsonl")
    taken = tmp_path / "taken"
    taken.write_text("")
    argv, flag, path, code = {
        "config-dir": (
            ["pipeline", "--obs", obs, "--out", str(tmp_path / "p")],
            "--config",
            tmp_path,
            errno.EISDIR,
        ),
        "obs-dir": (["validate"], "--obs", tmp_path, errno.EISDIR),
        "traits-dir": (["render", "--out", str(tmp_path / "r")], "--traits", tmp_path, errno.EISDIR),
        "out-is-a-file": (["pipeline", "--obs", obs], "--out", taken, errno.EEXIST),
        "missing-obs": (["validate"], "--obs", tmp_path / "absent.jsonl", errno.ENOENT),
    }[case]
    capsys.readouterr()
    assert main([*argv, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"error: [Errno {code}] {os.strerror(code)}: {str(path)!r}"


def test_file_reading_commands_close_their_files(tmp_path, synth_dir, capsys):
    obs, cov = str(synth_dir / "observations.jsonl"), str(synth_dir / "coverage.jsonl")
    truth = str(synth_dir / "truth.jsonl")
    pipe = tmp_path / "pipe"
    bad_obs = _with_bad_byte(synth_dir / "observations.jsonl", tmp_path / "bad.jsonl", 2, 5)
    commands = [
        (["pipeline", "--obs", obs, "--coverage", cov, "--truth", truth, "--out", str(pipe)], 0),
        (["validate", "--obs", obs, "--coverage", cov], 0),
        (["validate", "--obs", str(bad_obs), "--coverage", cov], 2),
        (["validate", "--obs", obs, "--coverage", str(bad_obs)], 2),
        (["cluster", "--obs", obs, "--coverage", cov, "--out", str(tmp_path / "c")], 0),
        (["segment", "--obs", obs, "--clustering", str(pipe / "clustering.jsonl"),
          "--out", str(tmp_path / "s")], 0),
        (["profile", "--obs", obs, "--interactions", str(pipe / "interactions.jsonl"),
          "--out", str(tmp_path / "p")], 0),
        (["profile", "--obs", obs, "--interactions", str(bad_obs),
          "--out", str(tmp_path / "p")], 2),
        (["render", "--traits", str(pipe / "traits.json"), "--out", str(tmp_path / "r")], 0),
        (["eval", "--obs", obs, "--truth", truth, "--method", "ahc"], 0),
        (["eval", "--obs", obs, "--truth", str(bad_obs), "--method", "ahc"], 2),
    ]
    for argv, code in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(argv) == code, argv
            gc.collect()
        leaked = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaked, (argv, leaked)
    capsys.readouterr()


def test_loading_observations_peaks_below_the_file_size(tmp_path, rng):
    # The reader holds the parsed observations plus one line: a descriptor's
    # 128 float64 values take less memory than their text does.
    path = tmp_path / "obs.jsonl"
    path.write_text(serialize_observations(dataset_from_matrix(rng.standard_normal((400, 128)))))
    size = path.stat().st_size
    args = argparse.Namespace(obs=str(path), coverage=None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dataset = cli._load(args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(dataset) == 400
    assert peak < size, peak / size


def _loaded_by_importing_the_cli(prefixes: tuple[str, ...]) -> str:
    """The modules, among those named by ``prefixes``, that a fresh interpreter
    holds after ``import egosocial.cli``, printed as a sorted list."""
    src = str(Path(egosocial.__file__).resolve().parents[1])
    code = "import sys, egosocial.cli; print(sorted(m for m in sys.modules if m.startswith("
    code += f"{prefixes!r})))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def test_importing_the_cli_leaves_out_the_network_modules():
    # xml.sax.saxutils would import urllib.request, http.client, email and ssl.
    network = ("urllib.request", "http", "email", "ssl", "xml")
    assert _loaded_by_importing_the_cli(network) == "[]\n"


def test_importing_the_cli_leaves_out_the_thread_pool():
    # concurrent.futures (with logging) adds about 0.6 MB of resident memory; only
    # a grouping pass needs it.
    assert _loaded_by_importing_the_cli(("concurrent",)) == "[]\n"
