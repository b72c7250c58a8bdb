"""Static rendering of social profiles: radar charts and the summary table.

Charts are emitted as plain SVG text built by pure string assembly: no
clocks, no randomness, no float formatting drift. Identical inputs give
byte-identical documents, which makes golden-file testing trivial. The
five radar axes sit at 90 - 72*i degrees, values in [0, 1] map linearly
onto the radius, and series colors come from a fixed eight-entry palette
indexed by series order.

The summary table mirrors the trait report: people/day, interactions/day,
minutes per interaction, minutes per person, and time alone rendered as
"8h 23m". Both renderings parse back losslessly (to formatting
precision); the test suite's parsers use that as a round-trip oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence
from xml.sax.saxutils import escape

from .profile import AXIS_LABELS, SocialProfile, SocialTraits

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
    "#7f7f7f",
)

GRID_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


class EmptyChartError(ValueError):
    """A radar chart needs at least one series."""


@dataclass(frozen=True)
class RadarSeries:
    name: str
    values: tuple[float, float, float, float, float]

    def __post_init__(self):
        if len(self.values) != 5:
            raise ValueError("radar series carry exactly five values")
        if any(not 0.0 <= v <= 1.0 for v in self.values):
            raise ValueError("radar values must lie in [0, 1]")


@dataclass(frozen=True)
class RadarSpec:
    axes: tuple[str, str, str, str, str] = AXIS_LABELS
    series: tuple[RadarSeries, ...] = ()
    overlay: bool = True
    width: float = 640.0
    height: float = 640.0

    def __post_init__(self):
        if len(self.axes) != 5:
            raise ValueError("radar charts have exactly five axes")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("canvas dimensions must be positive")


def radar_spec_from_profiles(
    profiles: Sequence[SocialProfile], overlay: bool = True
) -> RadarSpec:
    series = tuple(
        RadarSeries(name=p.traits.wearer_id, values=tuple(p.normalized_axes))
        for p in profiles
    )
    return RadarSpec(axes=AXIS_LABELS, series=series, overlay=overlay)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _axis_point(cx: float, cy: float, radius: float, axis: int) -> tuple[float, float]:
    # Axis i at 90 - 72*i degrees; SVG y grows downward.
    theta = math.radians(90.0 - 72.0 * axis)
    return cx + radius * math.cos(theta), cy - radius * math.sin(theta)


def render_radar(spec: RadarSpec, provenance: str | None = None) -> str:
    """Five-axis radar chart as a deterministic SVG document."""
    if not spec.series:
        raise EmptyChartError("cannot render a radar chart with no series")

    cx = spec.width / 2.0
    cy = spec.height / 2.0 + 0.04 * spec.height
    radius = 0.34 * min(spec.width, spec.height)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(spec.width)}" '
        f'height="{_fmt(spec.height)}" viewBox="0 0 {_fmt(spec.width)} {_fmt(spec.height)}">'
    )
    if provenance:
        parts.append(f"  <desc>provenance: {escape(provenance)}</desc>")
    title = "social profiles (overlay)" if spec.overlay else "social profile"
    parts.append(
        f'  <text x="{_fmt(cx)}" y="{_fmt(0.06 * spec.height)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="18">{escape(title)}</text>'
    )

    for frac in GRID_FRACTIONS:
        ring = [_axis_point(cx, cy, radius * frac, i) for i in range(5)]
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in ring)
        parts.append(
            f'  <polygon class="grid" points="{pts}" fill="none" stroke="#cccccc" '
            f'stroke-width="1"/>'
        )
    for i, label in enumerate(spec.axes):
        x, y = _axis_point(cx, cy, radius, i)
        parts.append(
            f'  <line class="axis" x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(y)}" stroke="#999999" stroke-width="1"/>'
        )
        lx, ly = _axis_point(cx, cy, radius * 1.12, i)
        parts.append(
            f'  <text class="axis-label" x="{_fmt(lx)}" y="{_fmt(ly)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13">'
            f"{escape(label)}</text>"
        )

    for idx, series in enumerate(spec.series):
        color = PALETTE[idx % len(PALETTE)]
        ring = [
            _axis_point(cx, cy, radius * value, i) for i, value in enumerate(series.values)
        ]
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in ring)
        parts.append(
            f'  <polygon class="series" data-name="{escape(series.name, {chr(34): "&quot;"})}" '
            f'points="{pts}" fill="{color}" fill-opacity="0.22" stroke="{color}" '
            f'stroke-width="2"/>'
        )

    legend_y = 0.06 * spec.height
    for idx, series in enumerate(spec.series):
        color = PALETTE[idx % len(PALETTE)]
        y = legend_y + 22.0 * idx
        parts.append(
            f'  <rect x="12.000000" y="{_fmt(y)}" width="14.000000" height="14.000000" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'  <text x="32.000000" y="{_fmt(y + 12.0)}" font-family="sans-serif" '
            f'font-size="13">{escape(series.name)}</text>'
        )

    parts.append(
        f'  <text x="{_fmt(cx)}" y="{_fmt(0.985 * spec.height)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" fill="#666666">'
        f"axes: cohort min-max normalized; alone time inverted (sociality)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# summary table


TABLE_HEADERS = (
    "Wearer",
    "Num p/day",
    "Avg int/day",
    "Avg t/int (min)",
    "Avg t/p (min)",
    "Avg t/alone",
)


def format_minutes_hm(minutes: float) -> str:
    """Render minutes as "XhYm", rounded to the nearest whole minute."""
    total = int(round(minutes))
    return f"{total // 60}h {total % 60}m"


def format_trait(value: float) -> str:
    """Two-decimal rendering with trailing zeros trimmed ("9", "12.5")."""
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return text if text else "0"


def format_text_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned " | " columns under a "-+-" rule, trailing blanks trimmed."""
    widths = [max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(headers)]

    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    sep = "-+-".join("-" * w for w in widths)
    return "\n".join([fmt(headers), sep] + [fmt(r) for r in rows]) + "\n"


def render_table(traits: Sequence[SocialTraits]) -> str:
    """Trait summary table, one row per wearer, time alone as "XhYm"."""
    if not traits:
        raise ValueError("need at least one traits record")
    rows = [
        [
            t.wearer_id,
            format_trait(t.persons_per_day),
            format_trait(t.interactions_per_day),
            format_trait(t.minutes_per_interaction),
            format_trait(t.minutes_per_person),
            format_minutes_hm(t.minutes_alone_per_day),
        ]
        for t in sorted(traits, key=lambda t: t.wearer_id)
    ]
    return format_text_table(TABLE_HEADERS, rows)
