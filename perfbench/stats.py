"""Pure helpers of the benchmark: the tail rule, failure tallies, span
self time and how a run's processes combine.  No dependency on the
platform, so they are unit-tested on synthetic inputs (``test_stats.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90)
# A tail percentile must leave at least this many independent
# completions beyond it.
MIN_BEYOND = 10
# The median time of one host probe (child.probe_ns) on the reference
# host.  Wall times are reported as they would read there.
REFERENCE_PROBE_MS = 1.3


def beyond(n_independent: int, p: int) -> int:
    """Independent completions that lie beyond the p-th percentile."""
    return math.floor(n_independent * (100 - p) / 100 + 1e-9)


def tail_percentile(n_independent: int,
                    min_beyond: int = MIN_BEYOND) -> Optional[int]:
    """The highest of p99/p95/p90 leaving ``min_beyond`` completions
    beyond it, or None when even p90 leaves fewer."""
    for p in TAIL_PERCENTILES:
        if beyond(n_independent, p) >= min_beyond:
            return p
    return None


class Tally:
    """Ops attempted and failed.  Every op counts once; a refused one
    (any non-200, a rejected job, a shed event, an unfinished study)
    counts as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            key = reason or "failed"
            self.reasons[key] = self.reasons.get(key, 0) + 1
        return ok

    def response(self, response, expect=None) -> bool:
        """Count one gateway response: ok only on HTTP 200 whose body
        passes ``expect`` (when given)."""
        if response.status != 200:
            return self.record(False, f"http {response.status}")
        if expect is not None and not expect(response.body):
            return self.record(False, "unexpected body")
        return self.record(True)

    def problems(self) -> List[str]:
        """Any failed op fails the run's correctness checks."""
        if not self.failed:
            return []
        return [f"{self.failed} of {self.attempted} ops failed: "
                f"{self.reasons}"]


# A span: (span_id, parent_id or -1, start_ns, end_ns).
Span = Tuple[int, int, int, int]


def _covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span_id, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return {span_id: (end - start)
            - _covered(children.get(span_id, ()), start, end)
            for span_id, parent, start, end in spans}


def host_speed(process: Dict[str, Any]) -> float:
    """How much slower than the reference host a process ran: its median
    host-probe time over :data:`REFERENCE_PROBE_MS`."""
    return process["probe_ms"] / REFERENCE_PROBE_MS


def end_to_end(processes: Sequence[Dict[str, Any]],
               scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of one run from its processes' raw results.

    Every wall time is first scaled to the reference host speed by the
    process's own :func:`host_speed`, so a shared host that drifts
    between fast and slow stretches moves the probe and the ops alike
    and the ratio stays.  Per-process rates and medians are combined by
    their median, so one odd process does not move the run.  The wall
    tail pools every process's samples, because the tail rule needs
    their combined count.  The simulated metrics are deterministic per
    input seed and are averaged over the processes' windows, which
    evens out how much they depend on the inputs.  ``scaled=False``
    gives the wall times as measured.
    """
    speeds = [host_speed(p) if scaled else 1.0 for p in processes]
    walls = [w / speed for p, speed in zip(processes, speeds)
             for w in p["walls_ms"]]
    tail_pct = processes[0]["tail_pct"]
    attempted = sum(p["attempted"] for p in processes)
    failed = sum(p["failed"] for p in processes)
    windows = [p["window"] for p in processes]
    return {
        "setup_s": statistics.median(p["setup_s"] / speed
                                     for p, speed in zip(processes, speeds)),
        "ops_per_s": statistics.median(
            len(p["walls_ms"]) / p["elapsed_s"] * speed
            for p, speed in zip(processes, speeds)),
        "op_p50_ms": statistics.median(
            statistics.median(p["walls_ms"]) / speed
            for p, speed in zip(processes, speeds)),
        "op_tail_ms": float(np.percentile(walls, tail_pct)),
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in windows),
        "sim_p99_ms": statistics.fmean(float(np.percentile(w["sim_ms"], 99))
                                       for w in windows),
        "sim_elapsed_s": statistics.fmean(w["sim_elapsed_s"]
                                          for w in windows),
    }
