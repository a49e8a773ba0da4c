"""Bandwidth trace container and Mahimahi-format interoperability.

A :class:`BandwidthTrace` is a piecewise-constant capacity schedule: a list of
(segment duration, capacity in Mbps) pairs.  Lookup is by simulation time and
wraps around (loops) when the simulation outlives the trace, matching how
Mahimahi replays its packet-delivery trace files.

Lookups sit on the simulator's hot path (one per hop per tick), so the trace
freezes its segments at construction and answers from precomputed tables:
per-segment Mbps and packets/s, the cumulative segment boundaries, and a
segment cursor that remembers the last answer.  A query that lands in the
cursor's segment costs two float comparisons; any other falls back to
:func:`bisect.bisect_right` over the boundaries and moves the cursor.  The
result is bit-identical to an ``np.searchsorted(side="right") - 1`` lookup.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["BandwidthTrace", "read_mahimahi_trace", "write_mahimahi_trace", "mbps_to_pps",
           "pps_to_mbps", "MSS_BYTES"]

#: Maximum-segment size assumed when converting Mbps to packets/second.
MSS_BYTES = 1500


def mbps_to_pps(mbps: float) -> float:
    """Convert a capacity in Mbps to MSS-sized packets per second."""
    return mbps * 1e6 / (MSS_BYTES * 8)


def pps_to_mbps(pps: float) -> float:
    """Convert packets per second back to Mbps."""
    return pps * MSS_BYTES * 8 / 1e6


@dataclass
class BandwidthTrace:
    """Piecewise-constant bandwidth schedule.

    Attributes:
        name: Human-readable identifier (used in reports).
        segments: ``(duration_seconds, capacity_mbps)`` pairs, frozen into a
            tuple of float pairs at construction.
        loop: Whether lookups past the end wrap around to the beginning.

    Equality compares ``name``, ``segments`` and ``loop`` only; the lookup
    tables derived from them are neither compared nor shown in ``repr``.
    """

    name: str
    segments: Sequence[Tuple[float, float]]
    loop: bool = True
    _cum: List[float] = field(init=False, repr=False, compare=False)
    _mbps: List[float] = field(init=False, repr=False, compare=False)
    _pps: List[float] = field(init=False, repr=False, compare=False)
    _duration: float = field(init=False, repr=False, compare=False)
    _cursor: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("trace must have at least one segment")
        for duration, mbps in self.segments:
            if not duration > 0:
                raise ValueError("segment durations must be positive")
            if mbps < 0:
                raise ValueError("capacities must be non-negative")
        self.segments = tuple((float(duration), float(mbps)) for duration, mbps in self.segments)
        durations = np.array([seg[0] for seg in self.segments], dtype=np.float64)
        self._cum = np.concatenate([[0.0], np.cumsum(durations)]).tolist()
        self._mbps = [mbps for _, mbps in self.segments]
        self._pps = [mbps_to_pps(mbps) for mbps in self._mbps]
        self._duration = self._cum[-1]
        self._cursor = 0

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant(cls, mbps: float, duration: float = 60.0, name: str | None = None) -> "BandwidthTrace":
        return cls(name or f"constant-{mbps:g}mbps", [(duration, mbps)])

    @classmethod
    def from_samples(cls, samples_mbps: Iterable[float], sample_duration: float, name: str) -> "BandwidthTrace":
        """Build a trace from equally-spaced capacity samples."""
        segments = [(sample_duration, float(mbps)) for mbps in samples_mbps]
        return cls(name, segments)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def duration(self) -> float:
        """Total trace length in seconds."""
        return self._duration

    @property
    def mean_mbps(self) -> float:
        total = sum(duration * mbps for duration, mbps in self.segments)
        return total / self.duration

    @property
    def min_mbps(self) -> float:
        return min(mbps for _, mbps in self.segments)

    @property
    def max_mbps(self) -> float:
        return max(mbps for _, mbps in self.segments)

    def _segment(self, time: float) -> int:
        """Index of the segment in force at ``time`` (loop modulo applied)."""
        if time < 0:
            raise ValueError("time must be non-negative")
        if self.loop:
            time = time % self._duration
        elif time >= self._duration:
            return len(self._mbps) - 1
        cum = self._cum
        index = self._cursor
        if not cum[index] <= time < cum[index + 1]:
            index = min(max(bisect_right(cum, time) - 1, 0), len(self._mbps) - 1)
            self._cursor = index
        return index

    def capacity_mbps(self, time: float) -> float:
        """Capacity (Mbps) at simulation time ``time``."""
        return self._mbps[self._segment(time)]

    def capacity_pps(self, time: float) -> float:
        """Capacity at ``time`` in packets per second."""
        return self._pps[self._segment(time)]

    def sample(self, dt: float, duration: float | None = None) -> np.ndarray:
        """Capacity samples (Mbps) every ``dt`` seconds for ``duration`` seconds."""
        duration = duration if duration is not None else self.duration
        times = np.arange(0.0, duration, dt)
        return np.array([self.capacity_mbps(t) for t in times])

    def scaled(self, factor: float, name: str | None = None) -> "BandwidthTrace":
        """A copy of the trace with every capacity multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        segments = [(duration, mbps * factor) for duration, mbps in self.segments]
        return BandwidthTrace(name or f"{self.name}-x{factor:g}", segments, loop=self.loop)

    def bdp_packets(self, min_rtt: float) -> float:
        """Bandwidth-delay product at the mean capacity, in packets."""
        if min_rtt <= 0:
            raise ValueError("min_rtt must be positive")
        return mbps_to_pps(self.mean_mbps) * min_rtt


# ---------------------------------------------------------------------- #
# Mahimahi trace-format interoperability
# ---------------------------------------------------------------------- #
def read_mahimahi_trace(path: str | Path, name: str | None = None, bucket_ms: float = 100.0) -> BandwidthTrace:
    """Read a Mahimahi packet-delivery trace file.

    Mahimahi traces list one integer millisecond timestamp per line, each
    representing one MSS packet-delivery opportunity.  We bucket them into
    ``bucket_ms`` windows and convert counts to Mbps.
    """
    path = Path(path)
    timestamps: List[int] = []
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            timestamps.append(int(float(line)))
    if not timestamps:
        raise ValueError(f"trace file {path} is empty")
    horizon_ms = max(timestamps) + 1
    n_buckets = int(np.ceil(horizon_ms / bucket_ms))
    counts = np.zeros(n_buckets)
    for ts in timestamps:
        counts[int(ts // bucket_ms)] += 1
    bucket_s = bucket_ms / 1000.0
    mbps = counts * MSS_BYTES * 8 / bucket_s / 1e6
    return BandwidthTrace.from_samples(mbps, bucket_s, name or path.stem)


def write_mahimahi_trace(trace: BandwidthTrace, path: str | Path, duration: float | None = None) -> None:
    """Write a trace as a Mahimahi packet-delivery schedule (1 ms resolution)."""
    path = Path(path)
    duration = duration if duration is not None else trace.duration
    lines: List[str] = []
    credit = 0.0
    for ms in range(int(duration * 1000)):
        time_s = ms / 1000.0
        credit += trace.capacity_pps(time_s) / 1000.0
        while credit >= 1.0:
            lines.append(str(ms))
            credit -= 1.0
    path.write_text("\n".join(lines) + "\n")
