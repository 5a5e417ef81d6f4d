"""Host-speed scaling of trial and set-up times.

The benchmark runs on a few cores of a shared host whose speed swings: in
spells of a minute or more, every trial and the CPU time it takes grow by up
to 1.8x, so no estimator inside a 35-second run can tell a slow host from a
slow program.  After every trial replay the benchmark therefore times
``reference_kernel``, a fixed piece of work of the same kind as the program's
hot path (a Python loop of small numpy vector operations: Jacobi rotations
on a 10 x 10 matrix) that takes about 1 ms on a quiet host.  A replay's time
divided by the median kernel time of the replays around it is that replay in
*reference milliseconds* (unit ``ref_ms``): one ``ref_ms`` is one kernel run.
On a shared 2-vCPU virtual machine, through a slow spell that stretched
``backward-mid`` trials 1.84x, the ratio held to within 4%.

The kernel belongs to the benchmark and calls nothing in ``genchol``, so a
change to the program moves scaled times in proportion to raw ones.

Set-up time is the time a fresh interpreter takes to import ``genchol.cli``,
which is mostly importing numpy.  The kernel is the wrong yardstick for it:
in one slow spell the kernel ran 2x slower but imports only 1.4x.  So each
import is paired with a fresh interpreter running ``REFERENCE_IMPORT``, and
set-up is reported as the median ratio times ``REFERENCE_IMPORT_S``: seconds
on a reference host where that import takes 0.125 s (a quiet host of the
kind above).  Over two minutes in which raw import times swung by 20%, the
median ratio of nine pairs stayed within 1.27-1.40.
"""

from __future__ import annotations

import statistics

import numpy as np

KERNEL_ORDER = 10
KERNEL_SWEEPS = 3
LOCAL = 4  # replays on each side whose kernel times give a replay's speed
REFERENCE_IMPORT = "import numpy"
REFERENCE_IMPORT_S = 0.125

_KERNEL_INPUT = np.random.default_rng(0).standard_normal((KERNEL_ORDER, KERNEL_ORDER))


def reference_kernel() -> np.ndarray:
    """Fixed one-sided Jacobi sweeps over the columns of a 10 x 10 matrix."""
    a = _KERNEL_INPUT.copy()
    n = a.shape[1]
    for _ in range(KERNEL_SWEEPS):
        for i in range(n - 1):
            for j in range(i + 1, n):
                x, y = a[:, i], a[:, j]
                alpha, beta, gamma = x @ x, y @ y, x @ y
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                a[:, i], a[:, j] = c * x - c * t * y, c * t * x + c * y
    return a


def local_kernel_time(kernel: list[float], i: int) -> float:
    """Median kernel time of the replays within ``LOCAL`` of replay ``i``."""
    return statistics.median(kernel[max(0, i - LOCAL): i + LOCAL + 1])


def scaled(times: list[float], kernel: list[float]) -> list[float]:
    """Each replay's time in ref_ms: over its local kernel time."""
    return [x / local_kernel_time(kernel, i) for i, x in enumerate(times)]
