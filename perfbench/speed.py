"""Machine-speed normalisation for timings taken on a shared, noisy host.

On a host whose cores are shared with other tenants, the same samlab call
can take 1.7x longer from one second to the next, and the median over a
20 s window moves by about 20% between windows. A fixed probe kernel, timed
right before and right after each timed call, slows down by about the same
factor. So the benchmark reports each call's time scaled by ``PROBE_REF_S``
over the probe's mean time around it. That is the call's wall-clock at the
probe's reference speed. README.md gives the spreads with and without the
scaling.

The kernel mixes the kinds of work samlab's hot paths do: small numpy
matrix products and elementwise maths, float conversion and Python dict
traffic. Its arrays are its own and their shapes differ from any samlab
model, so it does not warm a kernel that samlab is about to run. It imports
nothing from samlab. README.md records a check that a slowdown put into
samlab on purpose comes through the scaling at its full size.
"""

from __future__ import annotations

import math
import time

import numpy as np

PROBE_ROUNDS = 400
# probe time at reference speed, about its median on the host the bounds were set on
PROBE_REF_S = 0.003

_A = np.linspace(-1.0, 1.0, 40 * 24).reshape(40, 24)
_B = np.linspace(-0.5, 0.5, 24 * 8).reshape(24, 8)


def probe() -> float:
    """Seconds the fixed kernel takes right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_ROUNDS):
        z = np.sin(_A @ _B)
        acc += float(np.abs(z[i % 40]).sum())
        d = {"i": i, "x": acc}
        acc += d["x"] * 1e-12 + math.sqrt(i)
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that takes a call timed between two probes to the reference speed."""
    return PROBE_REF_S / (0.5 * (before + after))


class SpeedScale:
    """Scale factors for consecutive timed calls; each probe serves two calls."""

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]

    def scale(self) -> float:
        """Factor for the call that just ended: reference over the mean probe around it."""
        now = probe()
        factor = scale(self.last, now)
        self.last = now
        self.probes.append(now)
        return factor
