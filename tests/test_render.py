from __future__ import annotations

import math
import re
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egosocial import render
from egosocial.profile import SocialTraits, build_profiles
from egosocial.render import (
    EmptyChartError,
    RadarSeries,
    RadarSpec,
    format_minutes_hm,
    format_trait,
    radar_spec_from_profiles,
    render_radar,
    render_table,
)
from oracles import parse_minutes_hm, parse_radar, parse_rendered_table

GOLDEN = Path(__file__).parent / "golden"


def _traits(w, p, i, ti, tp, alone):
    return SocialTraits(
        wearer_id=w,
        persons_per_day=p,
        interactions_per_day=i,
        minutes_per_interaction=ti,
        minutes_per_person=tp,
        minutes_alone_per_day=alone,
        days_analyzed=7,
    )


COHORT = [
    _traits("u1", 9, 12, 12, 12, 503),
    _traits("u2", 7, 10, 17, 17, 952),
    _traits("u3", 3, 4, 21, 21, 699),
    _traits("u4", 5, 6, 15, 15, 462),
]


# --- radar -------------------------------------------------------------------


def test_mid_series_is_regular_pentagon():
    spec = RadarSpec(series=(RadarSeries("u1", (0.5,) * 5),))
    parsed = parse_radar(render_radar(spec))
    values = parsed["series"]["u1"]
    assert all(abs(v - 0.5) < 1e-6 for v in values)


def test_zero_series_collapses_to_center():
    spec = RadarSpec(series=(RadarSeries("u1", (0.0,) * 5),))
    svg = render_radar(spec)
    parsed = parse_radar(svg)
    assert all(abs(v) < 1e-9 for v in parsed["series"]["u1"])


def test_four_series_overlay_parse_back():
    profiles = build_profiles(COHORT, provenance="t")
    svg = render_radar(radar_spec_from_profiles(profiles))
    parsed = parse_radar(svg)
    assert len(parsed["series"]) == 4
    for profile in profiles:
        got = parsed["series"][profile.traits.wearer_id]
        for g, want in zip(got, profile.normalized_axes):
            assert abs(g - want) < 1e-6


def test_axis_angles():
    spec = RadarSpec(series=(RadarSeries("u1", (1.0,) * 5),))
    svg = render_radar(spec)
    axes = re.findall(
        r'<line class="axis" x1="([-0-9.]+)" y1="([-0-9.]+)" x2="([-0-9.]+)" y2="([-0-9.]+)"',
        svg,
    )
    assert len(axes) == 5
    cx, cy = float(axes[0][0]), float(axes[0][1])
    for i, (_, _, x2, y2) in enumerate(axes):
        angle = math.degrees(math.atan2(cy - float(y2), float(x2) - cx)) % 360
        assert abs(angle - (90.0 - 72.0 * i) % 360) < 1e-6


def test_empty_chart_rejected():
    with pytest.raises(EmptyChartError):
        render_radar(RadarSpec(series=()))


def test_rendering_is_pure():
    profiles = build_profiles(COHORT, provenance="t")
    spec = radar_spec_from_profiles(profiles)
    assert render_radar(spec, provenance="t") == render_radar(spec, provenance="t")


def test_golden_file_byte_identical():
    profiles = build_profiles(COHORT, provenance="golden")
    svg = render_radar(radar_spec_from_profiles(profiles), provenance="golden")
    assert svg == (GOLDEN / "radar_overlay.svg").read_text()


def _sax_escape(text: str, quote: bool = False) -> str:
    return sax_escape(text, {'"': "&quot;"} if quote else {})


_MARKUP = st.text(st.sampled_from('&<>"\'; a&amp;lt;\u00e9'), max_size=12)


@settings(max_examples=200, deadline=None)
@given(text=_MARKUP, quote=st.booleans())
def test_escape_matches_saxutils(text, quote):
    assert render._escape(text, quote=quote) == _sax_escape(text, quote=quote)


@pytest.mark.parametrize("overlay", [True, False])
def test_markup_in_names_labels_and_provenance_renders_as_saxutils_escapes(monkeypatch, overlay):
    spec = RadarSpec(
        axes=("a&b", "<c>", 'say "hi"', "x&lt;y", "plain"),
        series=(RadarSeries('Tom & "Jerry" <3', (0.1,) * 5), RadarSeries("a>b", (0.9,) * 5)),
        overlay=overlay,
    )
    provenance = 'run <1> & "two"'
    svg = render_radar(spec, provenance=provenance)
    assert 'data-name="Tom &amp; &quot;Jerry&quot; &lt;3"' in svg
    assert "<desc>provenance: run &lt;1&gt; &amp; \"two\"</desc>" in svg
    monkeypatch.setattr(render, "_escape", _sax_escape)
    assert render_radar(spec, provenance=provenance) == svg


def test_out_of_range_values_rejected():
    with pytest.raises(ValueError):
        RadarSeries("u1", (0.5, 0.5, 0.5, 0.5, 1.5))


# --- table -------------------------------------------------------------------


def test_reference_row_formatting():
    table = render_table([_traits("u1", 9, 12, 12, 12, 503)])
    lines = table.splitlines()
    row = re.sub(r" +", " ", lines[2]).strip()
    assert row == "u1 | 9 | 12 | 12 | 12 | 8h 23m"


def test_zero_wearer_row():
    t = SocialTraits(
        wearer_id="idle",
        persons_per_day=0.0,
        interactions_per_day=0.0,
        minutes_per_interaction=0.0,
        minutes_per_person=0.0,
        minutes_alone_per_day=480.0,
        days_analyzed=1,
        no_interactions=True,
    )
    row = re.sub(r" +", " ", render_table([t]).splitlines()[2]).strip()
    assert row == "idle | 0 | 0 | 0 | 0 | 8h 0m"


def test_table_round_trip_random_traits(rng):
    cohort = []
    for i in range(5):
        cohort.append(
            _traits(
                f"w{i}",
                float(rng.uniform(0, 15)),
                float(rng.uniform(0, 20)),
                float(rng.uniform(0, 60)),
                float(rng.uniform(0, 60)),
                float(rng.uniform(0, 900)),
            )
        )
    parsed = parse_rendered_table(render_table(cohort))
    by_wearer = {p["wearer_id"]: p for p in parsed}
    for t in cohort:
        got = by_wearer[t.wearer_id]
        assert abs(got["persons_per_day"] - t.persons_per_day) <= 0.005
        assert abs(got["interactions_per_day"] - t.interactions_per_day) <= 0.005
        assert abs(got["minutes_per_interaction"] - t.minutes_per_interaction) <= 0.005
        assert abs(got["minutes_per_person"] - t.minutes_per_person) <= 0.005
        assert abs(got["minutes_alone_per_day"] - t.minutes_alone_per_day) <= 0.5


def test_duration_format_round_trip():
    assert format_minutes_hm(503.0) == "8h 23m"
    assert parse_minutes_hm("8h 23m") == 503.0
    for canonical in ("0h 0m", "8h 23m", "15h 52m", "11h 39m", "7h 42m", "23h 1m"):
        assert format_minutes_hm(parse_minutes_hm(canonical)) == canonical


def test_trait_number_formatting():
    assert format_trait(9.0) == "9"
    assert format_trait(12.5) == "12.5"
    assert format_trait(0.333) == "0.33"
    assert format_trait(0.0) == "0"
