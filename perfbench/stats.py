"""Percentiles, the host-speed gauge and the round record shared by all workloads."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: The tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value) of the highest sample with >= 10 samples above it.

    With fewer than 21 samples this falls back to the median.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_MIN_BEYOND + 1:
        return 50.0, percentile(xs, 50.0)
    k = n - TAIL_MIN_BEYOND - 1
    return 100.0 * k / (n - 1), xs[k]


def round_numbers(seconds: float, rounds: Optional[int], warmup: int) -> Iterator[int]:
    """Round numbers 1, 2, ...: ``warmup`` rounds, then timed rounds.

    Timed rounds run until ``seconds`` have passed since the first of
    them started, or, when ``rounds`` is given, exactly that many.
    """
    r, deadline = 0, None
    while True:
        r += 1
        if rounds is not None and r > warmup + rounds:
            return
        if rounds is None and deadline is not None and time.perf_counter() >= deadline:
            return
        if r == warmup + 1:
            deadline = time.perf_counter() + seconds
        yield r


#: Reference-loop timings per gauge reading, and the loop's time on the
#: reference host: normalised seconds are wall seconds on a host where
#: one reference loop takes ``REF_NOMINAL_S``.
REF_SAMPLES = 9
REF_NOMINAL_S = 1e-3


class _Cell:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: str, value: float) -> None:
        self.key = key
        self.value = value
        self.hits = 0

    def bump(self, x: float) -> float:
        self.hits += 1
        self.value = 0.875 * self.value + 0.125 * x
        return self.value


def reference_loop() -> float:
    """A fixed pure-Python mix of the program's staple operations.

    Attribute access, method calls, string-keyed dict reads and writes,
    float arithmetic, small allocations and a short sort; 0.4-0.9 ms on
    a 2-vCPU VM.  It never changes with the program, so its time tracks
    only the host's speed.
    """
    cells: Dict[str, _Cell] = {}
    keys = [f"el-{i}" for i in range(48)]
    total = 0.0
    for i in range(1100):
        key = keys[i % 48]
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _Cell(key, float(i))
        total += cell.bump(i * 0.5)
        if i % 64 == 0:
            rows = sorted(((c.value, c.key) for c in cells.values()), reverse=True)
            total += rows[0][0]
    return total


class HostGauge:
    """Times the reference loop between rounds to normalise wall times.

    The host's speed drifts by tens of percent over seconds to minutes
    (other tenants share its cores), and the drift moves the program's
    wall times and the reference loop's alike.  Each :meth:`read` takes
    the median of ``REF_SAMPLES`` loop timings; a round is normalised by
    the mean of the readings just before and just after it.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []

    def read(self) -> float:
        samples = []
        for _ in range(REF_SAMPLES):
            t0 = time.perf_counter()
            reference_loop()
            samples.append(time.perf_counter() - t0)
        self.readings.append(statistics.median(samples))
        return self.readings[-1]

    def scale(self, before: int, after: int) -> float:
        """Wall-to-normalised factor for a span between two readings."""
        return REF_NOMINAL_S / ((self.readings[before] + self.readings[after]) / 2.0)


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark so far, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    """What one workload run measured (timed rounds only)."""

    workload: str
    machines: int
    #: Round numbers (counting warm-up rounds) of the timed rounds.
    timed_rounds: List[int] = field(default_factory=list)
    round_s: List[float] = field(default_factory=list)
    lag_s: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    #: Wall-to-normalised factor of each timed round.
    round_scale: List[float] = field(default_factory=list)
    #: Every host-gauge reading of the run, set-up included.
    host_readings: List[float] = field(default_factory=list)
    history_bytes_per_machine: float = 0.0
    peak_rss_mb: float = 0.0
    scored: int = 0
    correct_rounds: int = 0
    fault_miss_rate: float = 0.0
    false_alarm_rate: float = 0.0
    detect_rounds: float = 0.0
    failed: int = 0
    invariants: List[str] = field(default_factory=list)
    #: Verdict/incident outcome the traced-vs-untraced test compares.
    outcome: list = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.machines * len(self.round_s)

    @property
    def norm_round_s(self) -> List[float]:
        """Round walls in host-normalised seconds (see :class:`HostGauge`)."""
        return [v * k for v, k in zip(self.round_s, self.round_scale)]

    @property
    def norm_lag_s(self) -> List[float]:
        return [v * k for v, k in zip(self.lag_s, self.round_scale)]

    @property
    def norm_setup_s(self) -> List[float]:
        """Set-up walls normalised by the whole run's mean gauge reading.

        A set-up lasts seconds, over which the host flips between fast
        and slow spells, and two readings catch one spell each at most;
        the run-wide mean is the steadier estimate of the host's speed.
        """
        k = REF_NOMINAL_S / statistics.fmean(self.host_readings)
        return [v * k for v in self.setup_s]

    @property
    def verdict_accuracy(self) -> float:
        return self.correct_rounds / self.scored if self.scored else 1.0
