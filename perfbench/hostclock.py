"""Host-speed calibration: timings in seconds of a reference host.

The benchmark runs on a few vCPUs of a shared host.  Whether a neighbour
keeps the other hyperthread of a core (or the socket's turbo budget) busy
changes how fast pure-Python code runs by up to ~1.7x, and the host flips
between its fast and slow states every few seconds.  A run of 30 s sees
some mix of the two, so even a median over a whole run moves by ~30% from
run to run with no change to the program.

:class:`HostClock` measures that state while the benchmark runs: a daemon
thread times a fixed kernel (set, string and dict work, then small numpy
calls, like the library's featurisers) every :data:`INTERVAL_S`, in CPU time
of its own thread, so that waiting for the GIL does not count.  A wall time is then
converted to reference seconds, the seconds it would take on a host where
the kernel costs :data:`REFERENCE_KERNEL_S`::

    reference_s = wall_s * REFERENCE_KERNEL_S / mean(kernel cost during the interval)

The sampler takes ~2-3% of one core; it runs in every run, traced or not.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

#: Seconds between two kernel samples.
INTERVAL_S = 0.1
#: The kernel's cost, in CPU seconds, on the reference host.  About its cost
#: on an uncontended core of the 2-vCPU VM the benchmark was written on, so
#: reference seconds read close to that host's fast state.
REFERENCE_KERNEL_S = 0.002

_WORDS = tuple(f"alpha{index} beta{index % 7} gamma{index % 13}" for index in range(400))
_VECTORS = tuple(np.arange(10, dtype=float) + index for index in range(200))


def kernel() -> float:
    """A fixed amount of work (~2 ms on an uncontended core): set, string
    and dict work, then many small numpy calls, the two kinds of work the
    library's featurisers do."""
    total = 0.0
    for _ in range(2):
        seen: dict[str, int] = {}
        for left, right in zip(_WORDS, _WORDS[1:]):
            a, b = set(left.split()), set(right.split())
            total += len(a & b) / len(a | b)
            seen[left] = seen.get(right, 0) + 1
        for vector in _VECTORS:
            total += float(np.dot(vector, vector)) / (float(np.linalg.norm(vector)) + 1.0)
    return total


class HostClock:
    """Samples the host's speed in a background thread while it is entered."""

    def __init__(self) -> None:
        #: (perf_counter at the end of the sample, kernel CPU seconds).
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-clock", daemon=True)

    def __enter__(self) -> "HostClock":
        self._sample_once()
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()
        self._sample_once()

    def _sample_once(self) -> None:
        start = time.thread_time()
        kernel()
        cost = time.thread_time() - start
        self.samples.append((time.perf_counter(), cost))

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample_once()

    def kernel_cost(self, start: float, end: float) -> float:
        """Mean kernel cost over ``[start, end]`` (perf_counter times).

        An interval shorter than the sampling period takes the sample
        nearest its middle.
        """
        times = [moment for moment, _ in self.samples]
        low, high = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        if high > low:
            return statistics.fmean(cost for _, cost in self.samples[low:high])
        middle = (start + end) / 2
        nearest = min(range(len(times)), key=lambda index: abs(times[index] - middle))
        return self.samples[nearest][1]

    def reference_s(self, start: float, end: float) -> float:
        """The wall time ``end - start`` in reference seconds."""
        return (end - start) * REFERENCE_KERNEL_S / self.kernel_cost(start, end)

    def median_kernel_s(self) -> float:
        return statistics.median(cost for _, cost in self.samples)
