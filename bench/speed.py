"""Machine-speed probe: samples how fast this host runs Python during a run.

The benchmark shares its host, whose speed drifts by up to 2x within
seconds, and not by the same factor for all code.  While a run is measured,
a SIGALRM timer fires every ``INTERVAL_S``; the handler times one of two
short fixed pure-Python kernels, in turn, each shaped like a hot loop of the
package: a breadth-first closure through a multiplication table with
membership tests (group closure), and a row of matrix products over GF(7)
looked up in an element-index dict (the Cayley table).  A sample's speed is
the kernel's reference time over its measured time; the mean speed of a
window says how much slower than the reference speed the host ran then.
The handler's own time is taken out of every time the run measures.
"""

from __future__ import annotations

import gc
import itertools
import signal
import time
from array import array

INTERVAL_S = 0.05

_N = 5003
_TABLE = [[(x * a + b) % _N for a, b in ((2, 1), (3, 0), (5, 7))]
          for x in range(_N)]

_P = 7
_FADD = [[(a + b) % _P for b in range(_P)] for a in range(_P)]
_FMUL = [[a * b % _P for b in range(_P)] for a in range(_P)]
_MATS = [m for m in itertools.product(range(_P), repeat=4)
         if (m[0] * m[3] - m[1] * m[2]) % _P]
_INDEX = {m: i for i, m in enumerate(_MATS)}


def _closure_kernel(_sample: int) -> None:
    seen = bytearray(_N)
    seen[0] = 1
    frontier = [0]
    while frontier:
        fresh = []
        for x in frontier:
            for y in _TABLE[x]:
                if not seen[y]:
                    seen[y] = 1
                    fresh.append(y)
        frontier = fresh


def _product_kernel(sample: int) -> None:
    a = _MATS[sample % len(_MATS)]
    row = array("i")
    for b in _MATS[::4]:
        out = []
        for r in range(2):
            arow = a[2 * r:2 * r + 2]
            for c in range(2):
                acc = 0
                for t in range(2):
                    x = arow[t]
                    if x:
                        acc = _FADD[acc][_FMUL[x][b[2 * t + c]]]
                out.append(acc)
        row.append(_INDEX[tuple(out)])


# each kernel with its mean seconds at the reference speed
KERNELS = [(_closure_kernel, 0.0012), (_product_kernel, 0.0009)]


class SpeedProbe:
    """Context manager sampling the probe kernels on a timer.

    ``speeds`` holds one relative speed per sample (1.0 = reference speed).
    ``spent`` is the total time inside the handler so far; subtract its
    growth over an interval from that interval's measured time.  A traced
    run may replace ``handler`` by a wrapped one, so that probe time is a
    child span and drops out of the self time of the span it interrupted.
    """

    def __init__(self):
        self.speeds: list = []
        self.spent = 0.0
        self._previous = None

    def handler(self, _signum, _frame) -> None:
        start = time.perf_counter()
        kernel, ref_s = KERNELS[len(self.speeds) % len(KERNELS)]
        # no collection inside the handler: it would move the workload's
        # garbage-collection time into the probe
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel(len(self.speeds))
        finally:
            if enabled:
                gc.enable()
        self.speeds.append(ref_s / (time.perf_counter() - start))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, first: int = 0, last: int = None) -> float:
        """How many times slower than the reference speed the host ran while
        samples ``first:last`` were taken (all samples if there are none).

        Samples come at even intervals of time, and the work done in an
        interval is proportional to the speed then, so a measured time
        converts to the reference speed through the mean speed.
        """
        window = self.speeds[first:last] or self.speeds
        if not window:
            return 1.0
        return len(window) / sum(window)
