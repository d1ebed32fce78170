"""Host-speed probe: fixed reference computations timed while a round runs.

On a 2-vCPU x86-64 VM that shares its host, the speed the guest gets
changes by up to 1.8 x within seconds (process CPU time rises with wall
time, so the guest cannot see the slowdown any other way).  A
round therefore times a fixed piece of reference work every ``GAP_S``
while the timed section runs, and scales each stretch of program time by
``REF_S`` over the probe times around it.  The reference work is two
kernels: a dense complex inverse and pure-Python polynomial arithmetic over
GF(5).  Of the kernels and pairs of kernels tried (an interpreter loop, dict
lookups, random memory reads and these two), the geometric mean of these
two slowed most nearly as the program did on the sweeps and selfcheck.
The probe is code of the benchmark, not of the program, so a change to the
program cannot move it; what it removes is the part of a time that comes
from how fast the host ran at that moment.
"""

from __future__ import annotations

import math
import signal
import statistics
import threading
import time

import numpy as np

# the probe time on the reference VM (2-vCPU x86-64, one BLAS thread) when
# the host runs it fast: normalised times read as seconds on that VM at that speed
REF_S = 0.0025
GAP_S = 0.1  # wall time from the end of one probe to the next
RETRY_S = 0.01  # wait while the program runs threads of its own
SETUP_PROBES = 5  # probes right after the imports; their median scales import time
# a stretch is scaled by the running median of the probes within SMOOTH of
# either end: one probe reads a few per cent high or low, while the host's
# speed holds for a second or more
SMOOTH = 5
_N = 160
_M = (np.arange(_N * _N).reshape(_N, _N) % 7 + 8 * np.eye(_N)).astype(np.complex128)


def blas_work(m=_M) -> int:
    """A dense complex inverse and product."""
    return int(round((np.linalg.inv(m) @ m).real.trace()))


class _Poly:
    """A polynomial over GF(5) modulo x^4 + x^2 + 2."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = tuple(c)

    def __mul__(self, other):
        r = [0] * 7
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    r[i + j] = (r[i + j] + a * b) % 5
        for k in range(6, 3, -1):
            t, r[k] = r[k], 0
            for j, m in enumerate((2, 0, 1)):
                r[k - 4 + j] = (r[k - 4 + j] - t * m) % 5
        return _Poly(r[:4])

    def __add__(self, other):
        return _Poly((a + b) % 5 for a, b in zip(self.c, other.c))

    def __hash__(self):
        return hash(self.c)

    def __eq__(self, other):
        return self.c == other.c


def field_work(steps: int = 250) -> int:
    """Pure-Python arithmetic on small objects, hashed into a dict."""
    x, y, seen = _Poly((1, 2, 0, 3)), _Poly((0, 1, 4, 1)), {}
    for i in range(steps):
        x = x * y + _Poly((i % 5, 0, 1, 0))
        seen[x] = i
    return len(seen)


# (kernel, argument of its short untimed pass, result of the timed pass)
WORK = ((blas_work, _M[:32, :32], 160), (field_work, 20, 206))


def timed_probe() -> float:
    """The geometric mean of the kernels' times in seconds, each timed after a
    short untimed pass that brings its code and data back into the caches
    the program has just used."""
    logs = []
    for work, warm, expect in WORK:
        work(warm)
        t0 = time.perf_counter()
        value = work()
        logs.append(math.log(time.perf_counter() - t0))
        if value != expect:
            raise RuntimeError("reference probe %s computed %r, not %r" % (work.__name__, value, expect))
    return math.exp(sum(logs) / len(logs))


class Pacer:
    """Runs the probe every GAP_S of wall time while the timed section runs.

    A one-shot interval timer raises SIGALRM; the handler runs the probe in
    the main thread and re-arms the timer.  While another thread is alive
    (the --jobs pool of ``weilchar run``) it waits RETRY_S instead, so the
    probe never competes with the program for the interpreter.  ``marks``
    holds (start, end, probe seconds) of every probe in order; the first
    stands for the set-up probes and the last is taken on exit."""

    def __init__(self, setup_probe_s: float):
        self.marks = [(0.0, 0.0, setup_probe_s)]
        self.probe_cpu_s = 0.0
        self._prev_handler = None

    def _probe(self) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        dt = timed_probe()
        self.marks.append((t0, time.perf_counter(), dt))
        self.probe_cpu_s += time.process_time() - c0

    def _on_alarm(self, signum, frame) -> None:
        if threading.active_count() > 1:
            signal.setitimer(signal.ITIMER_REAL, RETRY_S)
            return
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, GAP_S)

    def __enter__(self):
        now = time.perf_counter()
        self.marks[0] = (now, now, self.marks[0][2])
        self._prev_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, GAP_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._prev_handler)
        self._probe()

    def smoothed(self) -> list[float]:
        """Per mark, the median of the probe times within SMOOTH marks of it."""
        times = [m[2] for m in self.marks]
        return [statistics.median(times[max(0, i - SMOOTH): i + SMOOTH + 1]) for i in range(len(times))]

    def span(self, a: float, b: float, smoothed: list[float] | None = None) -> tuple[float, float]:
        """(raw, normalised) program seconds in [a, b]: the probes' own time
        is left out, and each stretch between two probes is scaled by
        REF_S over the mean of the smoothed probe times at its ends.  Pass
        ``smoothed()`` when calling this for many spans."""
        smoothed = smoothed or self.smoothed()
        raw = norm = 0.0
        for i, ((_, end, _), (start, _, _)) in enumerate(zip(self.marks, self.marks[1:])):
            lo, hi = max(a, end), min(b, start)
            if hi > lo:
                raw += hi - lo
                norm += (hi - lo) * 2 * REF_S / (smoothed[i] + smoothed[i + 1])
        return raw, norm


def setup_probe() -> float:
    """The median of SETUP_PROBES probes after one untimed probe."""
    timed_probe()
    return statistics.median(timed_probe() for _ in range(SETUP_PROBES))
