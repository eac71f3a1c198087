"""The speed sampler: reference seconds, and a clean uninstall."""

import signal
import time

import pytest

from perfbench import calibration
from perfbench.calibration import KERNEL_REFERENCE_S, SpeedSampler
from perfbench.workloads import Stopwatch


def _burn(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_samples_while_running_and_uninstalls():
    handler = signal.getsignal(signal.SIGPROF)
    with SpeedSampler(interval_s=0.02) as sampler:
        assert calibration.active() is sampler
        _burn(0.3)
        assert sampler.samples > 3
    assert calibration.active() is None
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_reference_seconds_scale_cpu_by_the_kernel(monkeypatch):
    # A kernel that always takes twice the reference time: the machine runs
    # at half the reference speed, so a reference second is two CPU seconds.
    monkeypatch.setattr(calibration, "kernel", lambda: _burn(2 * KERNEL_REFERENCE_S))
    with SpeedSampler(interval_s=0.05) as sampler:
        clock = Stopwatch()
        _burn(0.4)  # the kernel runs inside, and its time is not work
        _wall, cpu, ref = clock.read()
    assert sampler.samples > 3
    assert 0.1 < cpu < 0.4
    # Every kernel run took the same time (a little over the 2x burned), so
    # every stretch is scaled alike.
    assert sampler.kernel_s >= 2 * KERNEL_REFERENCE_S
    assert ref == pytest.approx(cpu * KERNEL_REFERENCE_S / sampler.kernel_s, rel=0.05)
    assert ref < 0.55 * cpu


def test_without_a_sampler_reference_seconds_are_cpu_seconds():
    clock = Stopwatch()
    _burn(0.05)
    _wall, cpu, ref = clock.read()
    assert cpu == ref > 0.04
