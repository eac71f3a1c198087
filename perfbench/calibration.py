"""Host time at a reference machine speed.

On a shared host the speed of one core swings by 2x within a minute (other
tenants share its caches and its hyperthread sibling), and CPU time swings
with it: the same cold ``decode-corpus`` pass took 2.6 to 5.6 CPU seconds
within two minutes on a 2-core x86 container.  A fixed calibration kernel
slows down with the program (it mixes compute and memory access, see
``kernel``), so the benchmark samples it throughout the timed code and
scales each stretch of CPU time by how fast the kernel ran around it.

:class:`SpeedSampler` runs the kernel every ``interval_s`` of process CPU
time from a ``SIGPROF`` interval timer.  The handler runs Python code
between two bytecodes of the main thread and touches no program state.
CPU time between two kernel runs counts as
``cpu * KERNEL_REFERENCE_S / mean(kernel before, kernel after)`` reference
seconds; the kernel's own time is not counted.  Reference seconds read as
CPU seconds on a machine where one kernel run takes ``KERNEL_REFERENCE_S``.
"""

from __future__ import annotations

import signal
import time

import numpy

#: Steps of each half of a calibration run (6 to 10 ms of CPU together).
KERNEL_STEPS = 30_000
#: CPU seconds of one kernel run on the reference machine: an unloaded
#: moment of a shared 2-core x86 container, python 3.11.7.
KERNEL_REFERENCE_S = 0.0065
#: Size of the table the memory half walks: past the core's private caches.
CHASE_SIZE = 1 << 18

_TABLE = {key: key * 7 for key in range(256)}
_build_start = time.process_time()
_CHASE = numpy.random.default_rng(0).permutation(CHASE_SIZE).tolist()
#: CPU seconds this module spent on its own tables, left out of set-up time.
BUILD_CPU_S = time.process_time() - _build_start
#: The sampler of the running timed section, if any.
_active: SpeedSampler | None = None


def active() -> SpeedSampler | None:
    return _active


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _step(cell: _Cell, key: int) -> None:
    cell.value = (cell.value + _TABLE.get(key, 1)) & 0xFFFF


def kernel() -> int:
    """Fixed interpreter work with two halves that slow down differently.

    The compute half is calls, attribute and dict access and int math; the
    memory half follows a random permutation through a table larger than
    the core's private caches.  Contention on a shared core slows the first
    through the execution units and the second through the caches, and the
    program is a mix of both.  Neither half allocates a container, so the
    kernel never triggers the cyclic collector in the middle of the
    program's allocations.
    """
    cell = _Cell()
    for i in range(KERNEL_STEPS):
        _step(cell, i & 511)
    j = 0
    for _ in range(KERNEL_STEPS):
        j = _CHASE[j]
    return cell.value + j


class SpeedSampler:
    """Context manager: samples machine speed while the timed code runs.

    ``reference_s()`` and ``cpu_s()`` are running totals, so a pass is timed
    by their differences.  ``from_process_start`` also counts the CPU time
    spent before the sampler started (interpreter start, imports), scaled
    by the first kernel run, less what this module spent on its tables.
    """

    def __init__(self, interval_s: float = 0.2, from_process_start: bool = False):
        self.interval_s = interval_s
        self._last = BUILD_CPU_S if from_process_start else time.process_time()
        self.kernel_s = 0.0  # CPU seconds of the most recent kernel run
        self._kernel_total = 0.0
        self._reference = 0.0
        self._busy = False
        self.samples = 0
        self._previous_handler = None

    def _sample(self) -> None:
        start = time.process_time()
        kernel()
        end = time.process_time()
        took = end - start
        previous = self.kernel_s or took
        self._reference += (
            (start - self._last) * KERNEL_REFERENCE_S / ((previous + took) / 2.0)
        )
        self.kernel_s = took
        self._kernel_total += took
        self._last = end
        self.samples += 1

    def _on_signal(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def __enter__(self) -> SpeedSampler:
        global _active
        _active = self
        self._sample()
        self._previous_handler = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous_handler or signal.SIG_DFL)
        _active = None

    def reference_s(self) -> float:
        """Reference seconds so far; the open stretch uses the latest kernel."""
        self._busy = True
        try:
            open_cpu = time.process_time() - self._last
            return self._reference + open_cpu * KERNEL_REFERENCE_S / self.kernel_s
        finally:
            self._busy = False

    def cpu_s(self) -> float:
        """Process CPU seconds so far, minus the kernel's own."""
        return time.process_time() - self._kernel_total
