"""Host-speed calibration: a fixed kernel, timed alongside the measurements.

The shared 2-vCPU host this benchmark was tuned on runs the same code at
two speeds up to 2x apart, in phases that last from seconds to minutes, so
a 55 s run can fall wholly into a slow phase.  CPU time moves with wall time
there (the slow phases are slower execution, not stolen time), so switching
clocks does not help.  Instead, a fixed kernel that does not touch the
package is timed before every case and every set-up, and each time is
scaled by REFERENCE_S / (that kernel time): seconds at the speed at which
the kernel takes REFERENCE_S.  A change to the package moves the measured
section and not the kernel, so it shows in full.

The kernel mixes the three kinds of work the cases do, because the slow
phases slow them by different amounts (about 1.4x for interpreter loops,
1.8x for numpy calls on 24-vectors, 1.1x for a 720 x 720 matrix-vector
product that streams from memory): a pure-Python loop, a loop of small
numpy calls and a few large matrix-vector products.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time, in seconds, at which normalised figures are expressed: about
#: the kernel's time in the fast phase of the host it was tuned on.
REFERENCE_S = 0.0085


class Kernel:
    """The fixed calibration kernel; build once, then call `seconds`."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((24, 24))
        self._large = rng.standard_normal((720, 720))
        self._run()  # first run pays for page faults and lazy imports

    def _run(self) -> float:
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        x = np.ones(24)
        for _ in range(300):
            x = self._small @ x
            x = x / np.linalg.norm(x)
        y = np.ones(720)
        for _ in range(25):
            y = self._large @ y
            y = y / np.linalg.norm(y)
        return acc + float(x[0] + y[0])

    def seconds(self) -> float:
        """Wall time of one kernel run."""
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start


def normalised(seconds: float, kernel_seconds: float) -> float:
    """`seconds` measured beside a kernel run of `kernel_seconds`, expressed
    at the speed at which the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / kernel_seconds
