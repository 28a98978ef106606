"""Host-speed probe: a fixed reference kernel timed all through a run.

The benchmark's reference host is a VM shared with other tenants. Their
load slows every process on it, by up to 2x for seconds at a time and by
10-25 % from one half-minute to the next, and the slowdown reaches CPU time
as much as wall time. One 30-second run cannot average that away, and the
same code then reads 20-30 % apart from run to run.

`Probe` times `reference_kernel` before each job, after it, and every
`PERIOD_S` seconds inside it, from a SIGALRM handler in the main thread (no
extra thread or process). A job's calibrated time is its own time, with the
probes inside it taken out, scaled by `R0_S` over the median probe time
around and during it: the seconds the job would take on a host where the
kernel takes `R0_S`. The kernel is the benchmark's own code, so a change to
`loadcap` moves the job's time and not the probe's.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.5
# the kernel's time on the reference VM when nothing else loads it
R0_S = 0.0125

_T = np.random.default_rng(0).uniform(1.0, 2.0, (80, 200))


def reference_kernel(repeats: int = 300) -> float:
    """A fixed piece of work like the simplex's: row and column picks in
    Python and dense rank-1 updates in numpy."""
    acc = 0.0
    for k in range(repeats):
        r, c = k % _T.shape[0], (7 * k) % _T.shape[1]
        ratios = {j: _T[r, j] / _T[0, j] for j in range(0, _T.shape[1], 10)}
        W = _T - np.outer(_T[:, c] / _T[r, c], _T[r])
        acc += W[(r + 1) % _T.shape[0]].min() + min(ratios.values())
    return acc


class Probe:
    """Samples (end time, wall s, cpu s) of the reference kernel."""

    def __init__(self):
        self.samples = []
        self._busy = False
        self._old_handler = None

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0, time.process_time() - c0))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def start_alarm(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop_alarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def timed(self, fn, *args):
        """Run `fn(*args)` between two probes.  Returns (its result, wall s,
        cpu s, median probe wall s, median probe cpu s); the times leave out
        the probes taken inside it."""
        if not self.samples:
            self.sample()
        first = len(self.samples) - 1
        c0, t0 = time.process_time(), time.perf_counter()
        result = fn(*args)
        t1, c1 = time.perf_counter(), time.process_time()
        inside = [s for s in self.samples[first + 1:] if t0 < s[0] <= t1]
        self.sample()
        around = self.samples[first:]
        return (result,
                t1 - t0 - sum(s[1] for s in inside),
                c1 - c0 - sum(s[2] for s in inside),
                statistics.median(s[1] for s in around),
                statistics.median(s[2] for s in around))


def calibrated(seconds: float, probe_seconds: float) -> float:
    return seconds * R0_S / probe_seconds
