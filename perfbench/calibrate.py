"""Machine-speed calibration: a fixed kernel, independent of the program.

On a shared machine the speed of one core drifts by tens of per cent from
one minute to the next, through load the virtual machine cannot see (the
CPU time of a fixed operation moves as much as its wall time).  The
benchmark therefore times this kernel between its operations and reports
each time scaled to a reference speed by the kernels timed right around
it (the speed moves within seconds, so a median over the whole run follows
it less well):

    reported = measured * (REFERENCE_S / median(kernels around it)) ** ELASTICITY

The kernel's time moves more than the program's as the machine's speed
changes: over twenty contour runs the slope of the log of the program's CPU
time against the log of the kernel's time was 0.59 (0.66 over ten spectrum
runs, 0.54 to 0.79 for single operations timed in blocks), so scaling by
the whole ratio over-corrects.  ELASTICITY is set to 0.7.

The kernel mixes the three kinds of work perturblab does: a compensated
sum in interpreted Python, small-array numpy arithmetic and small LAPACK
calls.  It never imports perturblab, so a change to the program moves the
measured times and leaves the scale alone.
"""

import statistics
import time

import numpy as np

#: CPU seconds of one kernel() call at the reference speed, about its median
#: on the 2-vCPU virtual machine of the README's reference figures
REFERENCE_S = 0.0015
#: how much of the kernel's relative speed change the program's time follows
ELASTICITY = 0.7

_rng = np.random.default_rng(20121221)
_VALUES = _rng.standard_normal(2400).tolist()
_POLES = _rng.uniform(-20.0, 20.0, 60) + 0.0j
_WEIGHTS = _rng.uniform(0.5, 2.0, 60) + 0.0j
_MATRIX = _rng.standard_normal((32, 32))


def kernel():
    """One fixed unit of work; returns a value so that nothing is skipped."""
    s = c = 0.0
    for v in _VALUES:
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    z = 0.0j
    for k in range(100):
        z += np.sum(_WEIGHTS / (_POLES - complex(0.1 * k, 1.0)))
    z += np.linalg.svd(_MATRIX, compute_uv=False)[-1]
    z += np.linalg.eigvals(_MATRIX).sum()
    return s + z


def sample():
    """CPU seconds of one kernel() call."""
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0


class Scale:
    """Every kernel time of a run, and the run's overall scale."""

    def __init__(self):
        self.samples = []
        kernel()  # the first LAPACK calls pay for loading, untimed

    def take(self, count=1):
        """Time count kernels; returns their times."""
        new = [sample() for _ in range(count)]
        self.samples.extend(new)
        return new

    @staticmethod
    def to_reference(seconds, kernel_times):
        """seconds measured at the speed kernel_times show, at REFERENCE_S."""
        return seconds * (REFERENCE_S / statistics.median(kernel_times)) \
            ** ELASTICITY

    def factor(self):
        """The scale of the whole run, from its median kernel time: > 1 on a
        faster core; it scales the per-layer times of a traced run."""
        return self.to_reference(1.0, self.samples)
