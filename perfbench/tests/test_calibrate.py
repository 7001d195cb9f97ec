"""The speed control: samples inside an interval, its own time taken out,
the timer and the SIGALRM handler put back afterwards."""

import gc
import signal
import time

import calibrate


def busy(seconds):
    t_end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < t_end:
        n += 1
    return n


def test_samples_during_interval_and_restores_handler():
    handler = signal.getsignal(signal.SIGALRM)
    speed = calibrate.Speed(during=True)
    speed.start()
    t0 = time.perf_counter()
    busy(0.3)
    dt = time.perf_counter() - t0
    spent, scale = speed.stop()
    assert len(speed._samples) >= 3
    assert 0 < spent < dt
    assert scale > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_no_samples_inside_when_traced():
    speed = calibrate.Speed(during=False)
    speed.start()
    busy(0.12)
    spent, scale = speed.stop()
    assert speed._samples == [] and spent == 0.0
    assert scale > 0


def test_kernel_keeps_gc_state():
    assert gc.isenabled()
    calibrate.kernel_ms()
    assert gc.isenabled()
