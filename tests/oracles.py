"""Independent reference implementations used to check the library.

Everything here is deliberately naive (double loops, full enumerations,
high-precision arithmetic) and shares no code with the package, so a bug
cannot hide in both paths at once. The two exceptions are
:func:`cluster_mean_correlation`, a test helper over the package's Pearson
matrix, and :func:`json_records`, a record loop that drives the package's
own record builders.
"""

from __future__ import annotations

import json
import math
import posixpath
import re
from datetime import date, datetime, time, timedelta
from typing import Sequence

import numpy as np
from mpmath import mp, mpf

from egosocial.consistency import pairwise_pearson_matrix
from egosocial.ingest import IngestError


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


class UndefinedCorrelationError(ValueError):
    """Pearson correlation is undefined (constant input, zero variance)."""


def pearson(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length samples.

    Computed in the mean-centered form (algebraically identical to the
    raw-moment form but stable), clamped to [-1, 1] against floating-point
    overshoot. Raises :class:`UndefinedCorrelationError` when either
    sample is constant.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or yv.ndim != 1 or xv.size != yv.size:
        raise ValueError("inputs must be 1-D vectors of equal length")
    n = xv.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("correlation undefined for constant input")
    # sqrt of the product (not the product of sqrts) keeps the identity and
    # anti-identity cases exactly at +/-1.
    den = math.sqrt(sxx * syy)
    if not math.isfinite(den):
        den = math.sqrt(sxx) * math.sqrt(syy)
    r = float(xc @ yc) / den
    return max(-1.0, min(1.0, r))


def cluster_mean_correlation(members: Sequence[np.ndarray] | np.ndarray) -> float | None:
    """Mean Pearson correlation over all unordered member pairs.

    Undefined pairs (constant descriptors) are excluded; returns None for
    singletons or when no valid pair remains. It averages the package's
    ``pairwise_pearson_matrix``, so tests can check that matrix against
    :func:`pearson` and set up clusters in a chosen correlation band.
    """
    X = np.asarray(members, dtype=np.float64)
    if X.ndim != 2:
        X = np.atleast_2d(X)
    m = X.shape[0]
    if m < 2:
        return None
    R = pairwise_pearson_matrix(X)
    vals = R[np.triu_indices(m, k=1)]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return None
    return float(vals.mean())


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


def gram_distances(X: np.ndarray, metric: str, normalize: bool) -> np.ndarray:
    """Pairwise dissimilarities by the library's Gram formulas, over the whole matrix.

    Rows are scaled to unit length if asked; cosine and correlation then use
    the raw or centred rows scaled to unit length. One Gram product g, then:
    euclidean ``r_i + r_j - 2g`` (r the squared row norms) clamped at 0, each
    pair above the diagonal at or below ``(r_i + r_j + 1) * 1e-12`` recomputed
    as the squared norm of its row difference, and the square root; cosine and
    correlation ``1 - clip(g, -1, 1)``, each pair above the diagonal at or
    below 1e-12 set to 0 where its two rows are bit-identical. The upper
    triangle is copied to the lower one and the diagonal is zero. Each step
    rounds as the library's does, so the two agree bit for bit.
    """
    X = np.array(X, dtype=np.float64)
    if normalize:
        X = X / np.sqrt(np.einsum("ij,ij->i", X, X))[:, None]
    if metric == "euclidean":
        r = np.einsum("ij,ij->i", X, X)
        rr = r[:, None] + r[None, :]
        D = np.maximum(rr - 2.0 * (X @ X.T), 0.0)
        near = D <= (rr + 1.0) * 1e-12
    else:
        U = X - X.mean(axis=1, keepdims=True) if metric == "correlation" else X
        U = U / np.sqrt(np.einsum("ij,ij->i", U, U))[:, None]
        D = 1.0 - np.clip(U @ U.T, -1.0, 1.0)
        near = D <= 1e-12
    ii, jj = np.nonzero(np.triu(near, 1))
    if metric == "euclidean":
        diff = X[ii] - X[jj]
        D[ii, jj] = np.einsum("ij,ij->i", diff, diff)
        D = np.sqrt(D)
    else:
        same = np.all(X[ii] == X[jj], axis=1)
        D[ii[same], jj[same]] = 0.0
    below = np.tril_indices(len(X), -1)
    D[below] = D.T[below]
    np.fill_diagonal(D, 0.0)
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


def naive_components(E: np.ndarray, threshold: float) -> list[list[int]]:
    """Connected components of the graph with an edge wherever E <= threshold.

    A depth-first search over every entry, one node at a time. Components are
    ordered by their smallest member, members ascending.
    """
    n = len(E)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, members = [start], []
        while stack:
            i = stack.pop()
            members.append(i)
            for j in range(n):
                if not seen[j] and E[i, j] <= threshold:
                    seen[j] = True
                    stack.append(j)
        components.append(sorted(members))
    return components


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


def triu_masked_mean(R: np.ndarray, current) -> float | None:
    """Mean of the defined pairs among positions ``current`` (ascending).

    Copies ``R[current][:, current]`` and reads its upper triangle in
    row-major order, or returns None when no pair is defined: the formula
    the package's cluster mean must equal exactly.
    """
    sub = R[np.ix_(current, current)]
    vals = sub[np.triu_indices(len(current), k=1)]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return None
    return float(vals.mean())


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


def json_records(source, fields, build):
    """The reader's record loop with every line decoded by ``json.loads`` alone.

    ``source`` is a text or a list of lines. Yields (line number,
    ``build(record, line number)``) for each line that is neither blank nor a
    '#' comment and raises :class:`IngestError` as the loop did before it
    decoded with orjson. A reader whose ``_records`` is replaced by this one
    reads every line by json's judgement alone.
    """
    items = source.splitlines() if isinstance(source, str) else source
    lines = [line for item in items for line in item.splitlines() or [""]]
    for no, raw in enumerate(lines, start=1):
        escaped = re.search("[\udc80-\udcff]", raw)
        if escaped:
            byte, column = ord(escaped.group()) - 0xDC00, escaped.start() + 1
            raise IngestError(f"undecodable byte 0x{byte:02x} at column {column}", no)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(f"malformed record: {exc.msg}", no) from None
        except ValueError as exc:
            raise IngestError(f"malformed record: {exc}", no) from None
        except RecursionError:
            raise IngestError("malformed record: nested too deeply", no) from None
        if not isinstance(record, dict):
            raise IngestError("record is not an object", no)
        missing = [f for f in fields if f not in record]
        if missing:
            raise IngestError(f"missing fields {missing}", no)
        yield no, build(record, no)


def json_jsonl(records) -> str:
    """The line-record writer with every line written by ``json.dumps`` alone: one
    record a line, each ended, an array value written as its ``.tolist()``."""
    return "".join(
        json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in r.items()})
        + "\n"
        for r in records
    )


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


def naive_chart_fault(wearer: str) -> str | None:
    """The message that rejects a wearer id whose radar chart file ``<id>.svg`` would
    not be a file of its own in the chart directory, beside ``overlay.svg``, or could
    not be written: its name is not UTF-8 or is longer than 255 bytes; None if it
    would be and could."""
    name = f"{wearer}.svg"
    cannot = f"wearer_id {wearer!r} cannot name a chart file"
    if posixpath.split(name) != ("", name) or "\0" in name or name == "overlay.svg":
        return f"{cannot}: it holds '/' or NUL, or is 'overlay'"
    try:
        encoded = name.encode("utf-8")
    except UnicodeEncodeError:
        return f"{cannot}: it holds a lone surrogate"
    if len(encoded) > 255:
        return f"{cannot}: '<wearer_id>.svg' is {len(encoded)} UTF-8 bytes, over 255"
    return None


def naive_observation_fault(lines: list[str]) -> tuple[int, str] | None:
    """The line number and message of the first faulty observation line, checking each
    line's rules in the order the reader applies them; None if all are valid."""
    first_seen = {}
    for no, line in _content_lines(lines):
        record = _reject_record(line)
        if isinstance(record, str):
            return no, record
        fields = ("wearer_id", "day", "timestamp", "image_id", "face_index", "descriptor")
        missing = [k for k in fields if k not in record]
        if missing:
            return no, f"missing fields {missing}"
        raw = record["descriptor"]
        if not isinstance(raw, list) or len(raw) != 128:
            got = len(raw) if isinstance(raw, list) else type(raw).__name__
            return no, f"descriptor must be an array of 128 numbers, got {got}"
        descriptor = naive_descriptor(raw)
        if isinstance(descriptor, str):
            return no, descriptor
        face = record["face_index"]
        if not _naive_count(face):
            return no, f"face_index must be a non-negative integer, got {face!r}"
        day = _naive_day(record["day"])
        if isinstance(day, str):
            return no, day
        stamp = _naive_instant(record["timestamp"])
        if isinstance(stamp, str):
            return no, stamp
        if stamp.date() != day:
            return no, f"timestamp date {stamp.date()} does not match day {day}"
        wearer, image = record["wearer_id"], record["image_id"]
        if not isinstance(wearer, str) or not isinstance(image, str):
            return no, "wearer_id and image_id must be strings"
        if (wearer, image, face) in first_seen:
            return no, (
                f"duplicate (image_id, face_index) = ({image!r}, {face}) for wearer "
                f"{wearer!r}, first seen on line {first_seen[wearer, image, face]}"
            )
        first_seen[wearer, image, face] = no
        if fault := naive_chart_fault(wearer):
            return no, fault
    return None


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
        if not isinstance(record["wearer_id"], str):
            return no, "wearer_id must be a string"
        key = (record["wearer_id"], day)
        if key in seen:
            return no, f"duplicate coverage entry for {key}"
        if fault := naive_chart_fault(record["wearer_id"]):
            return no, fault
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
        if not isinstance(record["label"], str):
            return no, "label must be a string"
    return None


def naive_interactions_fault(lines: list[str]) -> tuple[int, str] | None:
    """The line number and message of the first faulty interaction line; None if
    all are valid."""
    fields = ("wearer_id", "person_cluster_id", "day", "start", "end", "observation_count")
    for no, line in _content_lines(lines):
        record = _reject_record(line)
        if isinstance(record, str):
            return no, record
        missing = [k for k in fields if k not in record]
        if missing:
            return no, f"missing fields {missing}"
        checked = [_naive_day(record["day"]), _naive_instant(record["start"])]
        checked.append(_naive_instant(record["end"]))
        for value in checked:
            if isinstance(value, str):
                return no, value
        for key in ("person_cluster_id", "observation_count"):
            if not _naive_count(record[key]):
                return no, f"{key} must be a non-negative integer, got {record[key]!r}"
        day, start, end = checked
        if start > end:
            return no, "interaction start must not exceed end"
        if start.date() != day or end.date() != day:
            return no, "interaction must lie within its day"
        if not isinstance(record["wearer_id"], str):
            return no, "wearer_id must be a string"
    return None


def naive_clustering_fault(lines: list[str], dataset) -> tuple[int | None, str] | None:
    """The line number and message of the first fault of a clustering file whose
    header is valid, checking every record line in turn and then each wearer the
    records name, in sorted order, against a full scan of the dataset; None if
    the file is valid. A record the file lacks has no line, so its number is None."""
    first_seen: dict[tuple[str, str, int], int] = {}
    for no, line in _content_lines(lines):
        record = _reject_record(line)
        if isinstance(record, str):
            return no, record
        missing = [k for k in ("wearer_id", "image_id", "face_index", "cluster_id") if k not in record]
        if missing:
            return no, f"missing fields {missing}"
        wearer, image, face = record["wearer_id"], record["image_id"], record["face_index"]
        if not isinstance(wearer, str) or not isinstance(image, str):
            return no, "wearer_id and image_id must be strings"
        if not _naive_count(face):
            return no, f"face_index must be a non-negative integer, got {face!r}"
        cid = record["cluster_id"]
        if type(cid) is not int or cid < -1:
            return no, f"cluster_id must be an integer >= -1, got {cid!r}"
        if (wearer, image, face) in first_seen:
            return no, (
                f"duplicate record for {(wearer, image, face)}, "
                f"first seen on line {first_seen[wearer, image, face]}"
            )
        first_seen[wearer, image, face] = no
    for wearer in sorted({key[0] for key in first_seen}):
        keys = [o.key for o in dataset.observations if o.wearer_id == wearer]
        stray = [no for key, no in first_seen.items() if key[0] == wearer and key not in keys]
        if stray:
            return min(stray), "record names no observation in the dataset"
        for key in keys:
            if key not in first_seen:
                return None, f"clustering file lacks a record for {key}"
    return None


# The JSON kinds each key of a one-document input takes, in the order of the
# annotations they stand for: a float key also takes a JSON integer, and only a
# bool key takes true or false.
# The kinds of JSON value each field of a document takes, in field order.
RUN_CONFIG_KINDS = {
    "method": ("str",),
    "metric": ("str",),
    "cut_threshold": ("float",),
    "normalize": ("bool",),
    "bandwidth": ("float", "null"),
    "k": ("int", "null"),
    "affinity_scale": ("float", "null"),
    "seed": ("int",),
    "robust_mean": ("float",),
    "reject_mean": ("float",),
    "member_min": ("float",),
    "min_event_min": ("float",),
    "max_gap_min": ("float",),
}
TRAITS_KINDS = {
    "wearer_id": ("str",),
    "persons_per_day": ("float",),
    "interactions_per_day": ("float",),
    "minutes_per_interaction": ("float",),
    "minutes_per_person": ("float",),
    "minutes_alone_per_day": ("float",),
    "days_analyzed": ("int",),
    "no_interactions": ("bool",),
}
SYNTH_CONFIG_KINDS = {
    "seed": ("int",),
    "n_days": ("int",),
    "n_identities": ("int",),
    "identity_center_spread": ("float",),
    "within_person_noise": ("float",),
    "dropout_rate": ("float",),
    "coverage_start": ("time",),
    "coverage_end": ("time",),
    "wearer_id": ("str",),
    "base_day": ("date",),
    "frame_interval_seconds": ("pair of floats",),
    "schedule": ("list of entries",),
}
SCHEDULE_ENTRY_KINDS = {
    "identity": ("int",),
    "day": ("int",),
    "start": ("time",),
    "end": ("time",),
}

# How a reject names each kind.
_KIND_WORDS = {
    "bool": "true or false",
    "int": "an integer",
    "float": "a finite number",
    "str": "a string",
    "time": "an ISO time string",
    "date": "an ISO date string",
    "null": "null",
    "dict": "a JSON object",
}


def _naive_fits(value, kind: str) -> bool:
    if kind == "bool":
        return value is True or value is False
    if kind == "null":
        return value is None
    if kind == "dict":
        return isinstance(value, dict)
    if kind == "str":
        return isinstance(value, str)
    if kind in ("time", "date"):
        if not isinstance(value, str):
            return False
        try:
            (time if kind == "time" else date).fromisoformat(value)
        except ValueError:
            return False
        return True
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind == "int":
        return isinstance(value, int)
    try:  # a float field: a finite number, an integer too if a float can hold it
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _naive_kind_fault(name: str, value, kinds: tuple[str, ...]) -> str | None:
    if any(_naive_fits(value, kind) for kind in kinds):
        return None
    expected = " or ".join(_KIND_WORDS[kind] for kind in kinds)
    return f"{name} must be {expected}, got {value!r}"


def naive_document_fault(text: str, what: str) -> str | None:
    """The message that rejects a JSON document for nesting too deep for the decoder
    or an integer with more digits than the interpreter converts; None if the
    decoder meets neither (it may still meet a syntax error). The fault is named by
    the first line whose prefix, that line and every line before it, the decoder
    rejects with the same fault: each prefix is asked in turn, from the first line
    on. The decoder is called from this frame, as the reader calls it from its own,
    because its depth limit counts the frames of its caller."""
    try:
        json.loads(text)
        return None
    except json.JSONDecodeError:
        return None
    except RecursionError:
        fault, message = RecursionError, "nested too deeply"
    except ValueError as exc:
        fault, message = ValueError, str(exc)
    lines = text.split("\n")
    for line in range(1, len(lines) + 1):
        try:
            json.loads("\n".join(lines[:line]))
        except (RecursionError, ValueError) as exc:
            if type(exc) is fault:
                return f"line {line}: malformed {what}: {message}"
    raise AssertionError("the whole text met the fault, so some prefix does")


def naive_config_fault(doc: dict) -> str | None:
    """The message that rejects a --config document: the first key, in field order,
    whose value is not of its kind, then the first key that is no run parameter;
    None if there is neither. The config's own range checks run between the two."""
    for key, kinds in RUN_CONFIG_KINDS.items():
        if key in doc:
            fault = _naive_kind_fault(f"config key {key!r}", doc[key], kinds)
            if fault:
                return fault
    for key in doc:
        if key not in RUN_CONFIG_KINDS:
            return f"unknown config key {key!r}"
    return None


def naive_synth_config_fault(doc: dict) -> str | None:
    """The message that rejects a synth config document: the first key, in field
    order, whose value is not of its kind, each schedule entry's keys checked in
    field order as the entry is reached; then the first key that names no field, the
    document's own before its schedule entries'. None if there is neither. The
    config's and each entry's own checks are not modelled: an entry's run when its
    keys have been read, the config's between the kinds and the unknown keys."""
    for key, kinds in SYNTH_CONFIG_KINDS.items():
        if key not in doc:
            continue
        value = doc[key]
        if kinds == ("pair of floats",):
            if not isinstance(value, list) or len(value) != 2:
                return f"config key {key!r} must be a list of two numbers, got {value!r}"
            faults = [
                _naive_kind_fault(f"config key '{key}[{i}]'", entry, ("float",))
                for i, entry in enumerate(value)
            ]
        elif kinds == ("list of entries",):
            if not isinstance(value, list):
                return f"config key {key!r} must be a list, got {value!r}"
            faults = [_naive_schedule_entry_fault(i, entry) for i, entry in enumerate(value)]
        else:
            faults = [_naive_kind_fault(f"config key {key!r}", value, kinds)]
        fault = next((f for f in faults if f), None)
        if fault:
            return fault
    unknown = [key for key in doc if key not in SYNTH_CONFIG_KINDS]
    for i, entry in enumerate(doc.get("schedule", [])):
        unknown += [f"schedule[{i}].{key}" for key in entry if key not in SCHEDULE_ENTRY_KINDS]
    return f"unknown config key {unknown[0]!r}" if unknown else None


def _naive_schedule_entry_fault(i: int, entry) -> str | None:
    if not isinstance(entry, dict):
        return f"schedule[{i}] must be a JSON object"
    for key, kinds in SCHEDULE_ENTRY_KINDS.items():
        if key not in entry:
            return f"schedule[{i}] lacks key {key!r}"
        fault = _naive_kind_fault(f"config key 'schedule[{i}].{key}'", entry[key], kinds)
        if fault:
            return fault
    return None


def naive_traits_fault(doc, path) -> str | None:
    """The message that rejects a traits report read from ``path``: its record list,
    then each record: its keys in field order, then a key that names no trait, then
    its wearer id, which must name its chart and no earlier record's; last its
    provenance. None if it is valid. Every key but ``no_interactions`` is required."""
    records = doc.get("wearers") if isinstance(doc, dict) else None
    if not isinstance(records, list):
        return f"traits file {path} lacks key 'wearers' (a list of records)"
    for i, record in enumerate(records):
        where = f"traits file {path}: wearers[{i}]"
        if not isinstance(record, dict):
            return f"{where} must be a JSON object"
        for key, kinds in TRAITS_KINDS.items():
            if key not in record:
                if key != "no_interactions":
                    return f"{where} lacks key {key!r}"
                continue
            name = f"traits file {path}: key 'wearers[{i}].{key}'"
            fault = _naive_kind_fault(name, record[key], kinds)
            if fault:
                return fault
        unknown = [key for key in record if key not in TRAITS_KINDS]
        if unknown:
            return f"traits file {path}: unknown key 'wearers[{i}].{unknown[0]}'"
        wearer = record["wearer_id"]
        if fault := naive_chart_fault(wearer):
            return f"{where}: {fault}"
        earlier = [r["wearer_id"] for r in records[:i]]
        if wearer in earlier:
            return f"{where}: wearer_id {wearer!r} repeats wearers[{earlier.index(wearer)}]"
    provenance = doc.get("provenance", {})
    fault = _naive_kind_fault(f"traits file {path}: key 'provenance'", provenance, ("dict",))
    if fault:
        return fault
    fingerprint = provenance.get("fingerprint", "unspecified")
    return _naive_kind_fault(
        f"traits file {path}: key 'provenance.fingerprint'", fingerprint, ("str",)
    )


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
