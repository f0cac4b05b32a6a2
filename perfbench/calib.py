"""Reference seconds: timings that do not move with the host's speed.

The shared machine this benchmark was built on runs the same code up to 2x
slower for seconds to minutes at a time.  Every timed interval is therefore
paired with a fixed kernel (a pure-Python loop and small dense numpy
algebra, like the program's own mix), run just before and after it and, on
a timer, during it.  A timing is reported in reference seconds:

    measured seconds (kernel time excluded) * CAL_REF_S / mean kernel seconds

A change to the program moves the interval and not the kernel; a change in
host speed moves both.  CAL_REF_S is the kernel's duration on a 2-vCPU Xeon
VM at the fast end of its observed range, so reference seconds read close
to wall seconds there.  Raw seconds are reported alongside.
"""

from __future__ import annotations

import signal
import statistics
import time

CAL_REPS = 8_000
CAL_TRIES = 5
CAL_REF_S = 0.00275
TICK_S = 0.2

_dense = None


def _kernel() -> float:
    global _dense
    import numpy as np  # imported here, so timing a package import stays honest

    if _dense is None:
        rng = np.random.default_rng(0)
        m = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
        _dense = (m, m + m.conj().T)
    m, h = _dense
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(CAL_REPS):
        t = (i, i * 7 % 13, i ^ 5)
        acc += sum(t) % 11
        table[i & 255] = t
    for _ in range(4):
        m @ m
        np.linalg.eigvalsh(h)
        np.kron(m[:8, :8], m[:6, :6])
    return time.perf_counter() - t0


def calibration() -> float:
    """Median seconds of the kernel over a few tries."""
    return statistics.median(_kernel() for _ in range(CAL_TRIES))


class Meter:
    """Times calls in raw and reference seconds."""

    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(calibration())
        self._spent += time.perf_counter() - t0

    def call(self, fn, *args, sample: bool = True, before: bool = True):
        """Run fn(*args); returns (result, error, raw seconds, reference seconds).

        With sample=False the kernel does not run during the call, for calls
        that must not be interrupted (traced passes); with before=False it
        does not run before it either (a call that imports numpy).
        """
        self._samples = [calibration()] if before else []
        self._spent = 0.0
        if sample:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        result = error = None
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the caller counts it as a failed operation
            error = exc
        finally:
            raw = time.perf_counter() - t0
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        raw -= self._spent
        self._samples.append(calibration())
        ref = raw * CAL_REF_S / statistics.fmean(self._samples)
        return result, error, raw, ref
