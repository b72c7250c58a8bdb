from __future__ import annotations

import hashlib
import json
from datetime import time
from pathlib import Path

import pytest

from egosocial import clustering
from egosocial.cli import main
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


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda r: _drop_key(r, "minutes_per_person"), "lacks key 'minutes_per_person'"),
        (lambda r: dict(r, days_analyzed="x"), "invalid literal for int()"),
        (lambda r: list(r.values()), "list indices must be integers"),
    ],
    ids=["missing-trait", "bad-value", "not-an-object"],
)
def test_render_rejects_bad_traits_record(tmp_path, synth_dir, capsys, corrupt, message):
    obs = str(synth_dir / "observations.jsonl")
    assert main(["pipeline", "--obs", obs, "--out", str(tmp_path / "pipe")]) == 0
    doc = json.loads((tmp_path / "pipe" / "traits.json").read_text())
    doc["wearers"][0] = corrupt(doc["wearers"][0])
    traits = tmp_path / "traits.json"
    traits.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["render", "--traits", str(traits), "--out", str(tmp_path / "charts")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith(f"error: traits file {traits}: wearers[0]")
    assert message in err


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
