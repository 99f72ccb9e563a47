"""Calibration of the machine's momentary CPU speed.

On a shared virtual machine the speed of one core drifts by up to 1.8x over
seconds to minutes, so raw wall times of whole runs spread by 10-25 %. A
fixed kernel of interpreter and numpy work, timed around every CLI call,
tracks that drift. Reported times are scaled by REFERENCE_S over the run's
median probe time: seconds at the speed where the probe takes REFERENCE_S.
The probe is benchmark code, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: probe time at the reference speed: its fast-regime time on a shared
#: 2-core Intel Xeon VM
REFERENCE_S = 0.002


class SpeedProbe:
    def __init__(self):
        self._data = np.linspace(-1.0, 1.0, 1 << 15)
        self.times: list[float] = []
        for _ in range(3):  # the first calls in a process run slow
            self()
        self.times.clear()

    def __call__(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for k in range(20000):
            acc += k * k
        for _ in range(5):
            np.sqrt(np.abs(self._data) + 1.0) * self._data
        self.times.append(time.perf_counter() - t0)

    @property
    def scale(self) -> float:
        """Factor from this run's wall seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.times)
