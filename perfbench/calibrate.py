"""Machine-speed probes for rescaling op times to a reference speed.

On a shared host the speed of one core drifts, and not evenly for all kinds
of work.  Within ninety seconds the same spectrum op took anywhere from
170 ms to 360 ms, while a fixed kernel of interpreted Python and small numpy
calls, timed next to it, drifted with it: their ratio stayed within about
5 %.  In another stretch that kernel swung between 32 ms and 56 ms while a
verify op and a LAPACK tridiagonal solve both held within 5 % and kept their
ratio within 3 %.

So each workload is probed with the kernel that does its dominant kind of
work, and uses nothing from the program under test:

- `interpreter`: Python bytecode and many small numpy calls, like the
  contour count's quadrature callbacks and like interpreter start-up;
- `lapack`: the lowest eigenpairs of a fixed 4000-point tridiagonal matrix,
  like the oracle's grid solves.

Each op's time is reported as `seconds * reference / probe`, where `probe`
is the mean of the probes run just before and just after the op.  The raw
seconds are kept next to it.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_EVERY_S = 0.5

_X = np.linspace(0.0, 1.0, 64) + 0j
_C = np.arange(10.0)
_DIAGONAL = 2.0 + np.random.default_rng(0).random(4000)
_OFF_DIAGONAL = -np.ones(3999)


def interpreter() -> float:
    """Seconds for one pass of the interpreter-bound kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += float(np.polyval(_C, _X + i).real[0])
    for i in range(60000):
        acc += i % 7
    return time.perf_counter() - start


def lapack() -> float:
    """Seconds for one pass of the LAPACK-bound kernel."""
    from scipy.linalg import eigh_tridiagonal

    start = time.perf_counter()
    _, vectors = eigh_tridiagonal(_DIAGONAL, _OFF_DIAGONAL, select="i", select_range=(0, 7))
    np.sign(vectors[:, 3]).sum()
    return time.perf_counter() - start


# Typical seconds per pass on the host the benchmark was defined on (2.1 GHz
# Xeon; the interpreter kernel ranged from 0.027 s to 0.056 s there).  They
# only set the scale of the reported times.
KERNELS = {"interpreter": (interpreter, 0.04), "lapack": (lapack, 0.015)}
WORKLOAD_KERNEL = {
    "cli_cold": "interpreter",
    "spectrum_sweep": "interpreter",
    "verify_sweep": "lapack",
}


class Probe:
    """The speed probe of one workload."""

    def __init__(self, workload: str):
        self.kernel, self.reference_s = KERNELS[WORKLOAD_KERNEL[workload]]

    def __call__(self) -> float:
        """The faster of two kernel passes: the core's speed right now."""
        return min(self.kernel(), self.kernel())

    def rescale(self, seconds: list[float], probe_after: list[int], probes: list[float]):
        """Rescale each time by the mean of the probes that bracket it.

        `probe_after[i]` is the index of the last probe taken before op i;
        the next probe, taken after op i, must exist.
        """
        return [
            t * self.reference_s / (0.5 * (probes[j] + probes[j + 1]))
            for t, j in zip(seconds, probe_after)
        ]
