"""Correction of measured times for the speed the CPU is running at.

On a shared host the speed of a virtual CPU changes from second to second
(a busy neighbour on the same physical core can slow it by half or more), so
the same work can take very different wall times.  ``SpeedProbe`` measures that
speed while the program runs: every ``INTERVAL_S`` a timer signal runs a
fixed probe (a small loop of interpreter work) and records how long it took.
Each stretch of time between two probes is then rescaled by
``REFERENCE_PROBE_S / probe time`` of the probes around it, which gives the
time the stretch would have taken at a fixed reference speed.

The probe runs in the main thread between bytecodes (where Python runs
signal handlers), so it neither starts a thread nor changes what the program
computes.  Inside a long C call the probe waits for the call to return.
"""

from __future__ import annotations

import array
import signal
import statistics
import time

INTERVAL_S = 0.02
MAX_SAMPLES = 10_000  # 200 s of ticks, longer than any unit
PROBE_LOOPS = 600
# Probe time at the reference speed.  Only ratios of corrected times matter;
# this fixes their scale so that they read roughly as seconds on an
# uncontended core of the machine the benchmark was tuned on (a 2-vCPU Xeon
# VM). See README.md for how well the probe tracks the workloads.
REFERENCE_PROBE_S = 8.5e-5

# The table spans 32 KB (4096 slots of 8 bytes), the size of a typical L1
# data cache, and the probe's accesses are spread across it, so it feels a
# neighbour's cache pressure as well as its use of the core.  A 64-slot table
# tracked the workloads' slowdowns about half as well.
_TABLE = [0] * 4096


def _loop(table: list) -> int:
    acc = 0
    for i in range(PROBE_LOOPS):
        j = (i * 2053) & 4095
        table[j] = i & 255
        acc += table[(j * 7) & 4095]
    return acc


def _probe() -> float:
    """Seconds taken by one pass of the loop, after an untimed pass that
    refills the caches the program evicted, so it measures speed, not cache
    state.

    Keeps no object alive after it returns (the table only ever holds
    Python's shared small ints), so it cannot pin the allocator's pools and
    change the program's peak memory.
    """
    _loop(_TABLE)
    start = time.monotonic()
    _loop(_TABLE)
    return time.monotonic() - start


class SpeedProbe:
    """Records ``(tick_start, tick_end, probe_seconds)`` while running."""

    def __init__(self):
        # Preallocated arrays of doubles, not a growing list of tuples: small
        # objects kept from every tick would pin the allocator's pools and
        # raise the program's peak memory.
        self._begun = array.array("d", bytes(8 * MAX_SAMPLES))
        self._ended = array.array("d", bytes(8 * MAX_SAMPLES))
        self._took = array.array("d", bytes(8 * MAX_SAMPLES))
        self._count = 0
        self._previous = None

    @property
    def samples(self) -> list[tuple[float, float, float]]:
        n = self._count
        return list(zip(self._begun[:n], self._ended[:n], self._took[:n]))

    def _tick(self, signum, frame):
        n = self._count
        if n < MAX_SAMPLES:
            self._begun[n] = time.monotonic()
            self._took[n] = _probe()
            self._ended[n] = time.monotonic()
            self._count = n + 1

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def corrected(self, start: float, end: float) -> tuple[float, float]:
        """(wall, corrected) seconds of ``[start, end]``, ticks excluded.

        Each stretch between ticks is scaled by the median probe time of the
        tick that ends it and its two neighbours, which damps single slow
        probes.
        """
        samples = self.samples
        times = [took for _, _, took in samples]
        wall = corrected = 0.0
        cursor = start
        for i, (begun, ended, _) in enumerate(samples):
            if ended <= start:
                continue
            stretch = min(begun, end) - cursor
            if stretch > 0:
                local = statistics.median(times[max(0, i - 1):i + 2])
                wall += stretch
                corrected += stretch * REFERENCE_PROBE_S / local
            cursor = max(cursor, ended)
            if cursor >= end:
                break
        if cursor < end:
            # The tail after the last tick takes the last ticks' speed.
            local = statistics.median(times[-3:]) if times else REFERENCE_PROBE_S
            wall += end - cursor
            corrected += (end - cursor) * REFERENCE_PROBE_S / local
        return wall, corrected
