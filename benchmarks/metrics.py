"""Metric arithmetic of the benchmark, kept free of timing and I/O so it can be tested.

Spans are tuples ``(name, start, end, parent, info)``: ``parent`` is the index
of the enclosing span in the same list (or None) and ``info`` is None or a
dict of extra facts recorded at the boundary (cache miss, operator bytes).
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import NamedTuple

MIN_TAIL_SAMPLES = 10


# ---------------------------------------------------------------------------
# latencies


def tail_percentile(n: int, beyond: int = MIN_TAIL_SAMPLES) -> int | None:
    """Highest whole percentile that leaves at least ``beyond`` of ``n`` samples above it.

    Uses nearest-rank percentiles: the p-th percentile is the ceil(p n / 100)-th
    smallest sample. None when there are not more than ``beyond`` samples.
    """
    if n <= beyond:
        return None
    return (100 * (n - beyond)) // n


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    k = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[k - 1]


def calibrated(latency: float, ref_before: float, ref_after: float, reference_s: float) -> float:
    """A latency rescaled to the machine speed at which the reference loop takes ``reference_s``.

    The reference loop is timed right before and right after the command; the
    mean of the two is the machine's speed while the command ran.
    """
    return latency * 2.0 * reference_s / (ref_before + ref_after)


def latency_summary(values, planned: int | None = None) -> dict:
    """Median and tail of a latency sample, with the sample count.

    The tail is the highest percentile with at least ten samples beyond it in
    ``planned`` samples (default: all of them). A workload passes the size of
    its fixed request plan, so the percentile does not change with the number
    of plans a run fits in. Fewer than 20 planned samples would put that
    percentile below the median; then the maximum is the tail, with
    ``tail_pct`` None.
    """
    values = list(values)
    if not values:
        raise ValueError("no latency samples")
    pct = tail_percentile(min(planned or len(values), len(values)))
    if pct is not None and pct < 50:
        pct = None
    tail = max(values) if pct is None else nearest_rank(values, pct)
    return {"n": len(values), "p50": statistics.median(values),
            "tail_pct": pct, "tail": tail}


# ---------------------------------------------------------------------------
# failures


def failure_summary(attempted: int, failed: int) -> dict:
    """``failed_ratio`` with the two counts it is made of."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return {"attempted": attempted, "failed": failed, "failed_ratio": failed / attempted}


def digest_mismatches(files: dict[str, bytes | None], expected: dict[str, str]) -> list[str]:
    """Names whose SHA-256 differs from the recorded digest, or that are missing.

    Every expected name is checked once and each mismatch counts as one
    failed operation; files without a recorded digest are mismatches too.
    """
    bad = []
    for name in sorted(set(files) | set(expected)):
        data = files.get(name)
        if data is None or hashlib.sha256(data).hexdigest() != expected.get(name):
            bad.append(name)
    return bad


def battery_mismatches(report: dict, c_to_p_calls: int, pinned: dict) -> list[str]:
    """Where a verify run differs in size from the battery pinned at the seed commit.

    The check names (and so their count), ``report["grid"]`` and the number
    of ``teleport_c_to_p`` calls, which follows the angle grid the report
    does not show, must all match. Each difference is one failed operation.
    """
    bad = []
    names = [check["name"] for check in report["checks"]]
    if names != pinned["checks"]:
        bad.append(f"checks: {len(names)} run, {len(pinned['checks'])} pinned")
    if report["grid"] != pinned["grid"]:
        bad.append("grid differs from the pinned grid")
    if c_to_p_calls != pinned["teleport_c_to_p_calls"]:
        bad.append(f"teleport_c_to_p calls: {c_to_p_calls} run, "
                   f"{pinned['teleport_c_to_p_calls']} pinned")
    return bad


def out_of_unit_range(value: float) -> bool:
    return not (math.isfinite(value) and 0.0 <= value <= 1.0)


# ---------------------------------------------------------------------------
# spans


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals``, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanCost(NamedTuple):
    """The tracer's own time per span, measured on a wrapped no-op."""

    inside: float = 0.0   # within the span's window, so in its duration
    outside: float = 0.0  # around the window, so in the parent's self time


def self_times(spans, cost: SpanCost = SpanCost()) -> list[float]:
    """Duration of each span minus the part of it that its child spans cover.

    The tracer's cost comes off too: ``cost.inside`` from each span and
    ``cost.outside`` from its parent, once per direct child. A self time is
    never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, info in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, info) in enumerate(spans):
        kids = children.get(i, ())
        own = (end - start) - covered_length(kids, start, end)
        out.append(max(0.0, own - cost.inside - cost.outside * len(kids)))
    return out


def _outermost(spans, names: set[str]) -> list[int]:
    # spans of a group with no ancestor in the group: the calls into the layer
    def inside(parent):
        while parent is not None:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    return [i for i, (name, _, _, parent, _) in enumerate(spans)
            if name in names and not inside(parent)]


def group_time(spans, names: set[str], cost: SpanCost = SpanCost()) -> tuple[float, int]:
    """Total time and call count of the outermost spans of a group of names.

    ``cost.inside`` comes off each span, as in ``self_times``.
    """
    idx = _outermost(spans, names)
    return sum(spans[i][2] - spans[i][1] - cost.inside for i in idx), len(idx)


def group_self_time(spans, names: set[str], selfs: list[float]) -> float:
    return sum(selfs[i] for i, span in enumerate(spans) if span[0] in names)
