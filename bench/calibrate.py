"""A fixed reference kernel that measures the host's speed beside each op.

The benchmark shares a few vCPUs with other tenants. Their load changes how
fast the same code runs, by 10-30% between runs and within one run, for
Python and numpy code alike. The kernel below is a frozen mix of the work
texcurve does: interpreter-bound object and ``Fraction`` arithmetic, and a
numpy gather plus lerp over a 16384 x 2 lattice that stays in cache. It is
timed right after every op, and each op gets the mean of the kernel times
before and after it.

The ops slow down less than the kernel does when the host is busy:
dividing by the kernel outright over-corrects, and left the throughputs
spreading by 6-7% between runs. So each workload declares its elasticity
beta, the power of the kernel's slow-down by which its ops slow down, and
an op of wall time t beside kernel time k counts
``t * (REFERENCE_S / k) ** beta`` reference seconds: its time on a host
that runs the kernel in exactly ``REFERENCE_S``. The betas were fitted with
``elasticity`` over 30 runs per workload on a shared 2-vCPU Xeon host, and
every run records its own fit, so a drift shows. A constant beats each
run's own fit: a fitting error of 0.1 moves a run's result by 4% when its
kernel runs at 0.65 ms. The kernel lives in the benchmark, so no change to
texcurve can move it; a texcurve change that makes every op k times slower
makes their scaled times k times larger.

Each measurement runs the kernel twice and times the second pass, so the
op before it, whatever memory it touched, cannot slow the timed pass.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

#: kernel time of the reference host; scaled times are in these units
REFERENCE_S = 1e-3
#: lattice rows of the gather and lerp pass
ROWS = 1 << 14
#: stretches of consecutive ops whose mean times the elasticity is fitted on
WINDOWS = 20


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20260317)
        self.texels = rng.random((ROWS // 4 + 1, 2))
        self.index = rng.integers(0, ROWS // 4, ROWS)
        self.index_next = self.index + 1
        self.frac = rng.random((ROWS, 1))
        self.a = np.empty((ROWS, 2))
        self.b = np.empty((ROWS, 2))
        self.out = np.empty((ROWS, 2))
        self.times = []

    def _kernel(self) -> int:
        s = 0
        for i in range(1500):
            p = _Pair(i, i + 1)
            s += p.a * p.b
        f = Fraction(0)
        for i in range(60):
            f += Fraction(i, 7)
        np.take(self.texels, self.index, axis=0, out=self.a)
        np.take(self.texels, self.index_next, axis=0, out=self.b)
        np.subtract(self.b, self.a, out=self.out)
        np.multiply(self.out, self.frac, out=self.out)
        np.add(self.out, self.a, out=self.out)
        return s

    def measure(self) -> float:
        """One kernel time, in seconds; also kept in `times`."""
        self._kernel()
        t0 = perf_counter()
        self._kernel()
        dt = perf_counter() - t0
        self.times.append(dt)
        return dt


def reference_seconds(seconds, kernel, beta: float) -> np.ndarray:
    """Wall `seconds`, each timed beside `kernel` seconds of the kernel, in
    reference seconds."""
    return np.asarray(seconds, dtype=float) * (REFERENCE_S / np.asarray(kernel, dtype=float)) ** beta


def elasticity(seconds, kernel, period: int, windows: int = WINDOWS) -> float:
    """The power of the kernel's slow-down by which the ops slow down.

    `seconds` and `kernel` hold whole rounds of `period` ops. Each op's time
    is taken relative to the median time of its position in the round, and
    the fit is least squares of its log against the log kernel time. Both
    series are first averaged over `windows` stretches of consecutive ops,
    so that the kernel's own noise in one measurement does not flatten the
    slope.
    """
    t = np.asarray(seconds, dtype=float).reshape(-1, period)
    y = np.log(t / np.median(t, axis=0)).ravel()
    x = np.log(np.asarray(kernel, dtype=float))
    k = max(1, len(y) // windows)
    n = len(y) // k * k
    y = y[:n].reshape(-1, k).mean(axis=1)
    x = x[:n].reshape(-1, k).mean(axis=1)
    x = x - x.mean()
    if not np.any(x):
        return 1.0
    return float(np.clip(np.dot(x, y - y.mean()) / np.dot(x, x), 0.0, 1.5))
