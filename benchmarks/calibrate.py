"""Machine-speed calibration sampled while the measured code runs.

The benchmark's host is a few cores of a shared machine. Other tenants slow
every piece of code at once, by up to 2x, in spells that switch within
milliseconds and whose share of the time drifts over minutes. A timing taken
at one moment therefore measures the neighbours as much as the program.

``Sampler`` puts a profiling timer (``ITIMER_PROF``, counting this process's
CPU time) on the measured code. Every ``interval_s`` the main thread stops
between two bytecodes and runs a fixed calibration kernel, which is the
benchmark's own code and never changes with the program. The kernel's times
sample the machine's speed during the measured code itself. Their mean,
divided by the fixed reference time ``ref_s``, is the slowdown the code saw.
The kernel runs twice per tick and only the second, warm run is timed. The time spent in the handler is counted in ``stolen_s`` and
subtracted from the measured code's time.

This module imports nothing beyond the standard library at load time, so a
fresh process can start a sampler before it times its first import.
"""

from __future__ import annotations

import signal
import time

# The kernels' median times inside the sampler on the development machine
# (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6). They only fix the scale:
# a calibrated second is a second at that typical machine speed.
PY_REF_S = 0.21e-3
MIXED_REF_S = 0.5e-3


def python_kernel(n: int = 600) -> None:
    """Interpreter work: float arithmetic, list appends and float formatting."""
    acc, values = 0.0, []
    for i in range(n):
        acc = acc * 0.999 + i * 1.5
        values.append(acc)
    "".join(format(v, ".17g") for v in values[:n // 6])


def make_mixed_kernel():
    """The four kinds of work the package spends its time in, in the time
    shares that tracked all three workloads best (README.md): interpreter
    work 1/7, numpy calls on a 256-point array 3/7, numpy on 3,000 points
    1/7, and a sparse LU solve on the 2,717-point CN grid 2/7."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spl

    n = 2717
    lu = spl.splu(sp.diags([np.full(n - 1, -1.0 + 0.5j), np.full(n, 2.0 + 1.0j),
                            np.full(n - 1, -1.0 + 0.5j)], [-1, 0, 1], format="csc"))
    rhs = np.ones(n, dtype=complex)
    small = np.linspace(0.1, 3.0, 256)
    large = np.linspace(0.1, 3.0, 3000)

    def chain(x, times):
        for _ in range(times):
            x = np.sin(x) * np.exp(-x) + np.sqrt(x + 1.0)

    def kernel() -> None:
        python_kernel(200)
        chain(small, 16)
        chain(large, 1)
        lu.solve(rhs)

    return kernel


class Sampler:
    """Runs ``kernel`` every ``interval_s`` of CPU time and records its times."""

    def __init__(self, kernel, ref_s: float, interval_s: float = 0.04):
        self.kernel = kernel
        self.ref_s = ref_s
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.stolen_s = 0.0
        self._previous = None

    def _on_tick(self, signum, frame) -> None:
        # The first run brings the kernel's code and data back into the
        # caches the measured code has used; only the second is timed, so
        # the sample reflects the machine, not the program's cache footprint.
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.stolen_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        """A point to measure from: (samples so far, stolen time so far)."""
        return len(self.samples), self.stolen_s

    def since(self, mark: tuple[int, float]) -> tuple[float, float | None]:
        """(stolen time, slowdown) since ``mark``; slowdown is None when no
        sample fell in the interval."""
        n, stolen = mark
        new = self.samples[n:]
        slowdown = sum(new) / len(new) / self.ref_s if new else None
        return self.stolen_s - stolen, slowdown
