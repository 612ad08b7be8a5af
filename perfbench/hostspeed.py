"""Host-speed reference that time metrics are scaled by.

On a shared host the CPU speed drifts by a quarter or more over minutes,
for every program alike, so raw wall times of the same code differ more
between runs than any useful regression bound.  A fixed kernel that never
calls ``dilations`` runs between the measured jobs; its mean time in a run
tracks the host's speed during that run.  Time metrics are reported in
reference seconds: wall seconds times ``REF_S`` over the kernel's mean time,
i.e. seconds on a host where one kernel pass takes ``REF_S``.

The kernel mixes what the workloads spend time on: interpreted Python,
tiny numpy calls, and one dense complex matmul and SVD.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.020  # nominal seconds of one kernel pass
SHARE = 0.05  # kernel time per second of measured work

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((4, 4)) + 0j
_BIG = _rng.standard_normal((192, 192)) + 0j


def kernel_pass() -> float:
    """Run the reference kernel once; return its wall seconds."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(20000):
        table[i % 64] = acc
        acc += (i * 0.5) % 7
    x = _SMALL
    for _ in range(300):
        x = (x @ _SMALL) / (1 + float(np.abs(x).max()))
        np.linalg.svd(x, compute_uv=False)
    np.linalg.svd(_BIG @ _BIG, compute_uv=False)
    return time.perf_counter() - start


class HostSpeed:
    """Kernel passes interleaved with one phase of measured work."""

    def __init__(self):
        self.passes = []

    def sample(self, busy_s: float):
        """Run kernel passes for ``SHARE`` of ``busy_s`` seconds, at least one.

        Longer work gets more passes, so the mean pass time weighs the
        host's speed by how long the measured work ran at it.
        """
        start = time.perf_counter()
        self.passes.append(kernel_pass())
        while time.perf_counter() - start < SHARE * busy_s:
            self.passes.append(kernel_pass())

    def mean_pass_s(self) -> float:
        return statistics.fmean(self.passes)

    def scale(self) -> float:
        """Factor turning this phase's wall seconds into reference seconds."""
        return REF_S / self.mean_pass_s()
