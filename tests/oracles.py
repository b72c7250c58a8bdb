"""Independent reference implementations used to check the library.

Everything here is deliberately naive (double loops, full enumerations,
high-precision arithmetic) and shares no code with the package, so a bug
cannot hide in both paths at once.
"""

from __future__ import annotations

import json
import math
import re
from datetime import date, datetime, timedelta

import numpy as np
from mpmath import mp, mpf


def pearson_highprec(x, y, dps: int = 50) -> float:
    """Raw-moment correlation formula evaluated at `dps` decimal digits."""
    old = mp.dps
    try:
        mp.dps = dps
        n = len(x)
        xs = [mpf(float(v)) for v in x]
        ys = [mpf(float(v)) for v in y]
        sxy = mp.fsum(a * b for a, b in zip(xs, ys))
        sx = mp.fsum(xs)
        sy = mp.fsum(ys)
        sxx = mp.fsum(a * a for a in xs)
        syy = mp.fsum(b * b for b in ys)
        num = n * sxy - sx * sy
        den = mp.sqrt(n * sxx - sx * sx) * mp.sqrt(n * syy - sy * sy)
        return float(num / den)
    finally:
        mp.dps = old


def distance_double_loop(X: np.ndarray, metric: str) -> np.ndarray:
    """Pairwise dissimilarities by direct per-pair evaluation."""
    n = len(X)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            x, y = X[i], X[j]
            if metric == "euclidean":
                D[i, j] = math.sqrt(float(((x - y) ** 2).sum()))
            elif metric == "cosine":
                D[i, j] = 1.0 - float(x @ y) / (
                    math.sqrt(float(x @ x)) * math.sqrt(float(y @ y))
                )
            elif metric == "correlation":
                xc = x - x.mean()
                yc = y - y.mean()
                D[i, j] = 1.0 - float(xc @ yc) / (
                    math.sqrt(float(xc @ xc)) * math.sqrt(float(yc @ yc))
                )
            else:
                raise ValueError(metric)
    return D


def naive_average_linkage(D0: np.ndarray, cut: float) -> set[frozenset[int]]:
    """O(n^3)-style reference: rescan every cluster pair each merge.

    Cluster distance is the mean over all cross pairs of the original
    matrix; the merged cluster keeps the smaller slot id and ties break on
    the smallest (id, id) pair.
    """
    n = len(D0)
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    while len(clusters) > 1:
        ids = sorted(clusters)
        best_d = None
        best_pair = None
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                a, b = ids[ai], ids[bi]
                cross = [D0[x, y] for x in clusters[a] for y in clusters[b]]
                d = float(np.mean(cross))
                if best_d is None or d < best_d:
                    best_d = d
                    best_pair = (a, b)
        if best_d > cut:
            break
        a, b = best_pair
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    return {frozenset(m) for m in clusters.values()}


def lance_williams_linkage(D0: np.ndarray, cut: float) -> set[frozenset[int]]:
    """Greedy average linkage over the whole matrix, with a full rescan per merge.

    The merged row is ``(sa * D[a] + sb * D[b]) / (sa + sb)``, rounded as the
    package rounds it, so this gives the package's merges bit for bit where
    :func:`naive_average_linkage`, which averages from scratch, may round a
    near-tie the other way. Row-major argmin over a symmetric matrix picks
    the smallest (id, id) pair.
    """
    D = np.array(D0, dtype=np.float64)
    n = len(D)
    np.fill_diagonal(D, np.inf)
    sizes = [1] * n
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    while len(clusters) > 1:
        a, b = divmod(int(np.argmin(D)), n)
        if not D[a, b] <= cut:
            break
        merged = (sizes[a] * D[a] + sizes[b] * D[b]) / (sizes[a] + sizes[b])
        D[a] = merged
        D[:, a] = merged
        D[b] = np.inf
        D[:, b] = np.inf
        sizes[a] += sizes[b]
        clusters[a] += clusters.pop(b)
    return {frozenset(m) for m in clusters.values()}


def partition_of(clustering) -> set[frozenset[int]]:
    return {frozenset(members) for members in clustering.clusters}


def prf_pair_loop(pred, true):
    """Pairwise P/R/F by explicit enumeration of all unordered pairs."""
    tp = fp = fn = 0
    n = len(pred)
    for i in range(n):
        for j in range(i + 1, n):
            same_pred = pred[i] == pred[j]
            same_true = true[i] == true[j]
            if same_pred and same_true:
                tp += 1
            elif same_pred:
                fp += 1
            elif same_true:
                fn += 1
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"tp": tp, "fp": fp, "fn": fn, "precision": precision, "recall": recall, "f": f}


def occupancy_minutes(intervals, day_start, total_minutes: int) -> float:
    """Minute-by-minute scan: how many whole minutes fall inside some interval.

    Exact for minute-aligned intervals under the [start, end) convention.
    """
    occupied = 0
    for m in range(total_minutes):
        t = day_start + timedelta(minutes=m)
        if any(s <= t < e for s, e in intervals):
            occupied += 1
    return float(occupied)


def traits_tally(realized_events, coverage_by_day):
    """Per-day tally of the five traits straight from generator bookkeeping.

    Events with no kept frames are ignored; each remaining event is the
    [first_frame, last_frame] interval of its identity.
    """
    days = sorted(coverage_by_day)
    per_persons, per_events, per_minutes, per_alone = [], [], [], []
    for day in days:
        todays = [e for e in realized_events if e.day == day and e.frame_count > 0]
        persons = len({e.identity for e in todays})
        minutes = sum(
            (e.last_frame - e.first_frame).total_seconds() / 60.0 for e in todays
        )
        spans = sorted((e.first_frame, e.last_frame) for e in todays)
        merged = []
        for s, e in spans:
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        occupied = sum((e - s).total_seconds() / 60.0 for s, e in merged)
        cov = coverage_by_day[day]
        per_persons.append(persons)
        per_events.append(len(todays))
        per_minutes.append(minutes)
        per_alone.append(cov.duration_minutes - occupied)

    n_days = len(days)
    total_events = sum(per_events)
    out = {
        "persons_per_day": sum(per_persons) / n_days,
        "interactions_per_day": total_events / n_days,
        "minutes_alone_per_day": sum(per_alone) / n_days,
        "per_day_alone": per_alone,
        "per_day_minutes": per_minutes,
    }
    if total_events == 0:
        out["minutes_per_interaction"] = 0.0
        out["minutes_per_person"] = 0.0
        return out
    out["minutes_per_interaction"] = sum(per_minutes) / total_events
    ratios = [m / p for m, p in zip(per_minutes, per_persons) if p > 0]
    out["minutes_per_person"] = sum(ratios) / len(ratios)
    return out


def naive_prune(R: np.ndarray, members, member_min: float):
    """Consistency prune by full rescan: rescore every live member each round.

    ``R`` is the cluster's Pearson matrix (NaN where a pair is undefined),
    ``members`` the observation indices of its rows. While the member with
    the lowest mean correlation to the rest (ties to the lowest observation
    index) scores below ``member_min``, it is removed. A member with no
    defined pair left scores -inf. A score is the float64 mean of the
    member's defined correlations to the other live members, taken in
    position order: the same arithmetic as the package's per-member score,
    so verdicts can be compared exactly.

    Returns (removed observation indices in removal order, surviving
    positions, mean of the survivors' defined pairs or None).
    """
    current = list(range(len(members)))
    removed = []
    while len(current) >= 2:
        sub = R[np.ix_(current, current)]
        defined = np.isfinite(sub)
        np.fill_diagonal(defined, False)
        worst = None
        for i, p in enumerate(current):
            row = sub[i][defined[i]]
            score = float(row.mean()) if row.size else -math.inf
            if worst is None or (score, members[p]) < (worst[0], members[worst[1]]):
                worst = (score, p)
        if worst[0] >= member_min:
            break
        current.remove(worst[1])
        removed.append(members[worst[1]])
    pairs = [
        R[a, b] for i, a in enumerate(current) for b in current[i + 1 :] if math.isfinite(R[a, b])
    ]
    final_mean = float(np.mean(pairs)) if len(current) >= 2 and pairs else None
    return removed, current, final_mean


# ---------------------------------------------------------------------------
# observation reader: descriptor check and per-wearer slicing


def naive_descriptor(raw: list) -> np.ndarray | str:
    """Check a decoded descriptor entry by entry.

    Returns the float64 descriptor, or the reject message naming the first
    entry that is not a finite JSON number (bool is not a number, and an
    integer too large for a float64 is not finite).
    """
    values = []
    for v in raw:
        try:
            ok = isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        except OverflowError:
            ok = False
        if not ok:
            return f"non-finite or non-numeric descriptor entry {v!r}"
        values.append(float(v))
    return np.array(values)


def _reject_record(line: str) -> dict | str:
    """The JSON object on a line, or the message that rejects it."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"malformed record: {exc.msg}"
    except ValueError as exc:
        return f"malformed record: {exc}"
    if not isinstance(record, dict):
        return "record is not an object"
    return record


def _naive_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _naive_day(raw) -> date | str:
    if not isinstance(raw, str):
        return f"day must be a YYYY-MM-DD string, got {raw!r}"
    try:
        return date.fromisoformat(raw)
    except ValueError:
        return f"unparseable day {raw!r}"


def _naive_instant(raw) -> datetime | str:
    if not isinstance(raw, str):
        return f"timestamp must be an RFC 3339 string, got {raw!r}"
    text = raw[:-1] + "+00:00" if raw[-1:] in ("Z", "z") else raw
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        return f"unparseable timestamp {raw!r}"
    if stamp.tzinfo is None:
        return f"timestamp {raw!r} lacks an explicit UTC offset"
    return stamp


def _content_lines(lines: list[str]):
    """(line number, line) for every line that is neither blank nor a '#' comment."""
    for no, line in enumerate(lines, start=1):
        if line.strip() and not line.strip().startswith("#"):
            yield no, line.strip()


def naive_coverage_fault(lines: list[str]) -> tuple[int, str] | None:
    """The line number and message of the first faulty coverage line, checking each
    line's rules in the order the manifest format lists them; None if all are valid."""
    seen = set()
    for no, line in _content_lines(lines):
        record = _reject_record(line)
        if isinstance(record, str):
            return no, record
        missing = [k for k in ("wearer_id", "day", "start", "end") if k not in record]
        if missing:
            return no, f"missing fields {missing}"
        count = record.get("image_count", 0)
        if not _naive_count(count):
            return no, f"image_count must be a non-negative integer, got {count!r}"
        checked = [_naive_day(record["day"]), _naive_instant(record["start"])]
        checked.append(_naive_instant(record["end"]))
        for value in checked:
            if isinstance(value, str):
                return no, value
        day, start, end = checked
        if not start < end:
            return no, "coverage start must precede end"
        if start.date() != day or end.date() != day:
            return no, "coverage span must lie within its day"
        key = (str(record["wearer_id"]), day)
        if key in seen:
            return no, f"duplicate coverage entry for {key}"
        seen.add(key)
    return None


def naive_truth_fault(lines: list[str]) -> tuple[int, str] | None:
    """The line number and message of the first faulty ground-truth line; None if
    all are valid."""
    first_seen = {}
    for no, line in _content_lines(lines):
        record = _reject_record(line)
        if isinstance(record, str):
            return no, record
        missing = [k for k in ("wearer_id", "image_id", "face_index", "label") if k not in record]
        if missing:
            return no, f"missing fields {missing}"
        wearer, image, face = record["wearer_id"], record["image_id"], record["face_index"]
        if not isinstance(wearer, str) or not isinstance(image, str):
            return no, "wearer_id and image_id must be strings"
        if not _naive_count(face):
            return no, f"face_index must be a non-negative integer, got {face!r}"
        if (wearer, image, face) in first_seen:
            return no, (
                f"duplicate (image_id, face_index) = ({image!r}, {face}) for wearer "
                f"{wearer!r}, first seen on line {first_seen[wearer, image, face]}"
            )
        first_seen[wearer, image, face] = no
    return None


def naive_wearers(dataset) -> tuple[str, ...]:
    """Every wearer with an observation or a coverage entry, by a full scan."""
    seen = {o.wearer_id for o in dataset.observations}
    seen.update(w for w, _ in dataset.coverage)
    return tuple(sorted(seen))


def naive_slice(dataset, wearer_id: str):
    """One wearer's (observations, coverage), each filtered in stored order by a
    full scan of the dataset; None for a wearer the dataset does not know."""
    if wearer_id not in naive_wearers(dataset):
        return None
    observations = tuple(o for o in dataset.observations if o.wearer_id == wearer_id)
    coverage = {key: cov for key, cov in dataset.coverage.items() if key[0] == wearer_id}
    return observations, coverage


# ---------------------------------------------------------------------------
# parsers of the rendered chart and table, for round-trip checks


_POLYGON_RE = re.compile(
    r'<polygon class="series" data-name="(?P<name>[^"]*)" points="(?P<points>[^"]*)"'
)
_AXIS_RE = re.compile(
    r'<line class="axis" x1="(?P<x1>[-0-9.]+)" y1="(?P<y1>[-0-9.]+)" '
    r'x2="(?P<x2>[-0-9.]+)" y2="(?P<y2>[-0-9.]+)"'
)


def parse_radar(svg_text: str) -> dict:
    """Recover center, radius, and per-series vertex radii from a chart.

    The inverse used by the round-trip tests: radii are reported as
    fractions of the axis length, i.e. the original normalized values.
    """
    axes = _AXIS_RE.findall(svg_text)
    if not axes:
        raise ValueError("no axis lines found")
    cx, cy = float(axes[0][0]), float(axes[0][1])
    x2, y2 = float(axes[0][2]), float(axes[0][3])
    radius = math.hypot(x2 - cx, y2 - cy)

    series = {}
    for match in _POLYGON_RE.finditer(svg_text):
        pts = []
        for pair in match.group("points").split():
            xs, ys = pair.split(",")
            pts.append((float(xs), float(ys)))
        values = tuple(math.hypot(x - cx, y - cy) / radius for x, y in pts)
        series[match.group("name")] = values
    return {"center": (cx, cy), "radius": radius, "series": series}


_HM_RE = re.compile(r"^(\d+)h (\d+)m$")


def parse_minutes_hm(text: str) -> float:
    match = _HM_RE.match(text.strip())
    if not match:
        raise ValueError(f"not an XhYm duration: {text!r}")
    return float(int(match.group(1)) * 60 + int(match.group(2)))


def parse_rendered_table(text: str) -> list[dict]:
    """Inverse of ``egosocial.render.render_table`` to formatting precision."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError("table has no data rows")
    out = []
    for line in lines[2:]:
        cells = [c.strip() for c in line.split("|")]
        if len(cells) != 6:
            raise ValueError(f"malformed table row: {line!r}")
        out.append(
            {
                "wearer_id": cells[0],
                "persons_per_day": float(cells[1]),
                "interactions_per_day": float(cells[2]),
                "minutes_per_interaction": float(cells[3]),
                "minutes_per_person": float(cells[4]),
                "minutes_alone_per_day": parse_minutes_hm(cells[5]),
            }
        )
    return out
