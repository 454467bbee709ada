"""How fast the CPU runs while a pass runs, sampled from inside the pass.

On the VM the baselines come from, the host takes a vCPU away for up to a
fifth of a pass at times (steal time), and each vCPU changes speed on its
own, independently of the other, by up to 1.9x within seconds (other
tenants share the host's cores). A pass's wall time therefore measures
the host about as much as the program. Its CPU time leaves out the stolen
time, and the probe corrects it for the speed: a timer signal every
``INTERVAL_S`` runs a fixed pure-Python loop on the CPU the pass is
running on and times it in CPU time. The pass's CPU time scaled by
``NOMINAL_S`` over the median loop time is ``norm_cpu_s``, the pass's CPU
time at a fixed CPU speed.

The loop is stdlib only and shares no code with slc, so a change to slc
cannot make the probe faster or slower. It runs from a signal handler, so
it adds its own time (about 1%) to the pass; ``spent_s`` gives that time
back.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
LOOP_N = 1200
# The loop's typical median on the 2-vCPU x86-64 VM, Python 3.11, that the
# baselines come from. It only sets the scale: norm_cpu_s reads close to
# cpu_s there.
NOMINAL_S = 165e-6

_TABLE = {i: i * 7 for i in range(64)}


def reference_loop(n: int = LOOP_N) -> int:
    acc = 0
    table = _TABLE
    for i in range(n):
        acc = (acc * 31 + table[i & 63]) & 0xFFFF
    return acc


class SpeedProbe:
    """``with SpeedProbe() as probe:`` samples the loop's time until exit."""

    def __init__(self, interval: float = INTERVAL_S, clock=time.process_time):
        self.interval = interval
        self.clock = clock
        self.times: list[float] = []
        self.previous = None

    def _sample(self, signum, frame) -> None:
        start = self.clock()
        reference_loop()
        self.times.append(self.clock() - start)

    def __enter__(self) -> "SpeedProbe":
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    @property
    def spent_s(self) -> float:
        return sum(self.times)

    def normalise(self, seconds: float) -> float:
        """``seconds`` as they would read with the loop at ``NOMINAL_S``."""
        return seconds * NOMINAL_S / statistics.median(self.times)
