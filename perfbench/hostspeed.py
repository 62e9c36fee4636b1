"""Host-speed calibration interleaved with the measured work.

On a shared host the same code speeds up and slows down by tens of
percent over seconds to minutes (other tenants, clock changes), so raw
wall times of identical code differ between runs by more than the
regressions the benchmark must catch.  The benchmark therefore times a
fixed probe - a pure-Python loop and a zlib inflate, neither touching
the program, chosen because their times tracked the program's more
closely than NumPy kernels did - about once a second next to the
measured work, and divides every measured time by the host's
*slowdown* at that moment: the probe's time over its reference time
(for work of a second or more, the mean of the probes before and after
it).  A change to the program moves the measured work but not the
probe, so it shows in full; a slower host moves both, and the quotient
holds.  Reported times are therefore seconds at the reference
host speed (slowdown 1.0, this probe's speed on a 2-vCPU x86-64 host).
"""

from __future__ import annotations

import random
import statistics
import time
import zlib

#: Probe unit times at the reference host speed.
REFERENCE_S = {"py": 0.0030, "zlib": 0.0025}

#: Seconds between probes.
INTERVAL_S = 1.0

#: Between runs, times normalised probe by probe still rose with the
#: run's median slowdown, as its 0.24th power (timing ``run_s``, 10
#: runs at slowdowns 0.85-1.42, r = 0.89; ``setup_s`` and ``replay``
#: alike, less tightly): across processes the program slows more than
#: the probe.  Within one process the probe alone fits best.
RESIDUAL_EXPONENT = 0.25


class HostSpeed:
    """The host's current slowdown, refreshed at most once a second."""

    def __init__(self) -> None:
        rng = random.Random(0)
        raw = b"".join((rng.randrange(64) * 4096).to_bytes(8, "little")
                       for _ in range(100_000))
        self._deflated = zlib.compress(raw, 6)
        self.samples = []
        self.slowdown = self._probe()
        self._probed_at = time.monotonic()

    def _py_unit(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        return time.perf_counter() - started

    def _zlib_unit(self) -> float:
        started = time.perf_counter()
        zlib.crc32(zlib.decompress(self._deflated))
        return time.perf_counter() - started

    def _probe(self) -> float:
        units = {"py": self._py_unit, "zlib": self._zlib_unit}
        slowdown = statistics.mean(
            statistics.median(unit() for _ in range(3)) / REFERENCE_S[kind]
            for kind, unit in units.items())
        self.samples.append(slowdown)
        return slowdown

    def refresh(self) -> float:
        """Probe again if the last probe is older than the interval."""
        if time.monotonic() - self._probed_at >= INTERVAL_S:
            self.slowdown = self._probe()
            self._probed_at = time.monotonic()
        return self.slowdown

    def scaled(self, elapsed: float, before: float) -> float:
        """``elapsed`` seconds of work that began at slowdown ``before``,
        at the reference host speed.  Work that lasted an interval gets a
        fresh probe at its end, and the two probes' mean divides it: the
        host changes within a two-second timing request, and bracketing
        cut the spread of such requests' normalised times by a quarter
        against the probe before alone."""
        return elapsed / ((before + self.refresh()) / 2)


def residual(samples: list) -> float:
    """What a phase's probe-normalised times are further divided by:
    its median slowdown to the :data:`RESIDUAL_EXPONENT`."""
    return statistics.median(samples) ** RESIDUAL_EXPONENT
