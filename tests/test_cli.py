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

import numpy as np
import pytest

import egosocial
from conftest import dataset_from_matrix
from egosocial import cli, clustering, ingest
from egosocial.cli import main
from egosocial.ingest import serialize_observations
from egosocial.synth import (
    ScheduledInteraction,
    SynthConfig,
    config_to_dict,
    generate,
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

    def spy(observations, sample_size=500, seed=0):
        seeds.append(seed)
        return real(observations, sample_size, seed)

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
            "wearers[0]: key 'days_analyzed' must be int, got 'x'",
        ),
        (
            _first_record(lambda r: dict(r, days_analyzed=2.7)),
            "wearers[0]: key 'days_analyzed' must be int, got 2.7",
        ),
        (
            _first_record(lambda r: dict(r, persons_per_day="3")),
            "wearers[0]: key 'persons_per_day' must be float, got '3'",
        ),
        (
            _first_record(lambda r: dict(r, persons_per_day=True)),
            "wearers[0]: key 'persons_per_day' must be float, got True",
        ),
        (
            _first_record(lambda r: dict(r, no_interactions="false")),
            "wearers[0]: key 'no_interactions' must be bool, got 'false'",
        ),
        (
            _first_record(lambda r: dict(r, wearer_id=0)),
            "wearers[0]: key 'wearer_id' must be str, got 0",
        ),
        (_first_record(lambda r: list(r.values())), "wearers[0] must be a JSON object"),
        (lambda d: dict(d, provenance=3), "key 'provenance' must be dict, got 3"),
        (
            lambda d: dict(d, provenance={"fingerprint": 5}),
            "key 'provenance.fingerprint' must be str, got 5",
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
        ('{"cut_threshold": "0.9"}', "config key 'cut_threshold' must be float, got '0.9'"),
        ('{"normalize": 1}', "config key 'normalize' must be bool, got 1"),
        ('{"k": 2.5}', "config key 'k' must be int or null, got 2.5"),
        ('{"cut_threshold": 0.9,\n "k": }', "line 2: malformed config"),
        ("[0.9]", "must hold a JSON object"),
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
    ],
)
def test_bad_synth_config_rejected(tmp_path, capsys, doc, message):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_loading_a_split_observation_file_peaks_below_the_file_size(tmp_path, rng, monkeypatch):
    # Split in two parts, this process holds the parsed observations plus one
    # block of its own part's text or one frame of the other part's records.
    monkeypatch.setattr(ingest, "_PART_MIN_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    path = tmp_path / "obs.jsonl"
    path.write_text(serialize_observations(dataset_from_matrix(rng.standard_normal((400, 128)))))
    size = path.stat().st_size
    with cli._open_lines(str(path)) as fh:
        assert len(ingest._part_ranges(fh)) == 2
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


def test_splitting_an_observation_file_prints_no_warning(tmp_path, rng):
    # Python 3.12+ warns when a process with threads forks, and BLAS starts
    # threads unless pinned; the warning must not reach the CLI's stderr.
    path = tmp_path / "obs.jsonl"
    path.write_text(serialize_observations(dataset_from_matrix(rng.standard_normal((50, 128)))))
    code = (
        "import os, sys\n"
        "from egosocial import cli, ingest\n"
        "ingest._PART_MIN_BYTES = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "with cli._open_lines(sys.argv[1]) as fh:\n"
        "    print('parts', len(ingest._part_ranges(fh)))\n"
        "sys.exit(cli.main(['validate', '--obs', sys.argv[1]]))\n"
    )
    src = str(Path(egosocial.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    result = subprocess.run(
        [sys.executable, "-W", "always", "-c", code, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "fork" not in result.stderr
    assert result.stdout.startswith("parts 2\nwearer u1: 1 day(s), 50 observation(s)\n")


def test_importing_the_cli_leaves_out_the_network_modules():
    # xml.sax.saxutils would import urllib.request, http.client, email and ssl.
    src = str(Path(egosocial.__file__).resolve().parents[1])
    code = "import sys, egosocial.cli; print(sorted(m for m in sys.modules if m.startswith(("
    code += "'urllib.request', 'http', 'email', 'ssl', 'xml'))))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
