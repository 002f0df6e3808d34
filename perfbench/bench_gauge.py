"""Machine-speed gauge: times taken at a fixed reference speed.

On a small shared virtual machine the same instructions run up to 40%
slower or faster from one half-minute to the next, and CPU time swings as
much as wall time, so raw op times of two runs of the same code differ by
more than the changes the benchmark has to resolve.  The gauge times a
fixed reference kernel between ops: pure-Python arithmetic, JSON, regular
expressions and sorting, and NumPy calls on small matrices, the mix the
approxhad layers spend their time in.  It runs no approxhad code, so a
change to the program cannot move it.  Its matrices stay below the sizes
at which the BLAS starts threads: threaded calls on 96 x 96 matrices
were seen to run five times slower than usual for seconds while the
single-threaded work around them ran at its usual speed.  An op's time is then
rescaled by REF_SECONDS / (the median kernel time around the op): the
seconds the op would take on the machine when the kernel takes
REF_SECONDS.  A change that makes the program slower or faster moves the
rescaled time as much as the raw one; a change of machine speed moves
both the op and the kernel, and cancels.
"""

from __future__ import annotations

import bisect
import json
import re
import statistics
import time

import numpy as np

# median kernel time between ops on the baseline machine (2 x86_64 vCPUs
# at 2.1 GHz, Python 3.11, NumPy 2.4), so rescaled times read as its
# seconds at its median speed
REF_SECONDS = 0.0071
# kernel runs per sample, least spacing of samples, and the span of time
# on each side of an op whose samples rate it
REPEATS = 2
MIN_GAP_S = 0.2
WINDOW_S = 3.0

_RNG = np.random.default_rng(0)
_SIGNS = np.sign(_RNG.standard_normal((26, 26)))
_DENSE = _RNG.standard_normal((46, 46))
_DOC = {f"k{i}": [i, str(i) * 3, {"x": i * 0.5}] for i in range(300)}
_WORDS = " ".join(f"w{i}" for i in range(2000))


def reference_kernel() -> int:
    s = 0
    for i in range(30000):
        s += i * i
    for _ in range(40):
        g = _SIGNS.T @ _SIGNS
        np.linalg.eigvalsh(g)
        np.roll(_SIGNS[0], 3)
        _SIGNS.copy()
    json.loads(json.dumps(_DOC))
    sorted(re.findall(r"w(\d+)", _WORDS), key=int)
    for n in (20, 46):
        a = _DENSE[:n, :n]
        np.linalg.svd(a, compute_uv=False)
        np.linalg.qr(a)
        np.abs(a).max(axis=0)
        np.sign(a).sum()
    return s


class SpeedGauge:
    def __init__(self) -> None:
        self.times: list[float] = []    # mid-point of each kernel run
        self.seconds: list[float] = []  # its duration, in step with `times`

    def sample(self) -> None:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            self.times.append((t0 + t1) / 2)
            self.seconds.append(t1 - t0)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is younger than MIN_GAP_S."""
        if not self.times or time.perf_counter() - self.times[-1] >= MIN_GAP_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_SECONDS over the median kernel time within WINDOW_S of
        [start, end]; the nearest sample on each side when none is."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.seconds[lo:hi]
        if not near:
            i = bisect.bisect_left(self.times, start)
            near = self.seconds[max(i - 1, 0):i + 1]
        if not near:
            raise ValueError("the gauge has no samples")
        return REF_SECONDS / statistics.median(near)

    def rescale(self, start: float, elapsed: float) -> float:
        return elapsed * self.factor(start, start + elapsed)

    def median_factor(self) -> float:
        return REF_SECONDS / statistics.median(self.seconds)
