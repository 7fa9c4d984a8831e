"""The host's speed, sampled while ops run, so that op times can leave it out.

On the shared 2-vCPU virtual machine of baseline.json the same QB trace took
1.6 s of CPU time in one minute and 2.9 s in the next: other guests on the
host slow the vCPU for seconds at a time, and a CPU clock counts that too.
A profiling timer interrupts the process every PERIOD_S of its CPU time and
runs a fixed reference kernel in the signal handler. An op's CPU seconds,
less the kernel's, are rescaled by REFERENCE_S over the mean kernel time
sampled during the op: the op's seconds on a host where the kernel takes
REFERENCE_S. A change to the library moves these seconds as it moves CPU
seconds; a change of host speed moves the kernel too and largely cancels.

The times come from the thread's CPU clock: with a profiling timer armed,
Linux serves the process CPU clock from tick-granular totals.
"""

import signal
from time import thread_time

import numpy as np

PERIOD_S = 0.05         # CPU seconds between samples; the kernel adds about 2%
REFERENCE_S = 0.001     # the kernel's seconds on the reference host

_a = np.arange(8.0)
_B = np.ones((4, 8))


def kernel():
    """Interpreted loop plus small numpy calls, the mix the ops spend their time in."""
    s = 0
    for i in range(3000):
        s += i * i
    for _ in range(100):
        (_B @ _a).sum()
        np.maximum(_a, 0.5).min()
    return s


def _sample():
    t0 = thread_time()
    kernel()
    return thread_time() - t0


class Sampler:
    """Samples the kernel every PERIOD_S of CPU time between start() and stop()."""

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        self.samples.append(_sample())

    def start(self):
        self.samples.append(_sample())
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self):
        """Where the next op's samples start."""
        return len(self.samples)

    def op_seconds(self, cpu_s, mark):
        """An op's CPU seconds at the reference speed, without the kernel's own time.

        The sample taken just before the op counts too, so that an op shorter
        than PERIOD_S still has one.
        """
        during = self.samples[mark:]
        speed = self.samples[max(mark - 1, 0):]
        return (cpu_s - sum(during)) * REFERENCE_S * len(speed) / sum(speed)
