"""Machine-speed probe that rescales measured wall time to a fixed speed.

On a shared virtual machine the same work can take 1.7x longer from one
second to the next, with no CPU steal reported and CPU time equal to wall
time: the virtual CPU itself runs slower while other tenants load the
host.  Runs of the same code then differ by more than any useful bound.

``SpeedProbe`` times a small fixed numpy kernel (eigendecompositions of
8x8 Hermitian matrices, a matrix product and a partial trace, the mix of
the program's hot loop) PERIOD_S apart, from a SIGALRM handler that runs
in the benchmark's own thread between the program's bytecodes.  Probe
times are subtracted from the measured interval, and the rest is rescaled
by the probes taken in it:

    scaled = (wall - probe time) * mean(NOMINAL_S / probe seconds)

that is, each stretch between probes counts at the speed its probe saw.
The value reads as the seconds the work would take on a machine on which
one probe takes NOMINAL_S.  The probe uses numpy alone, so a change to
the program moves ``scaled`` as it moves wall time.
"""
from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.05
# About the fastest probe on the 2-vCPU Xeon this was written on, so that
# scaled seconds read close to that host's seconds when it is quiet.
NOMINAL_S = 0.5e-3
WARMUP_PROBES = 20


@dataclass(frozen=True)
class Mark:
    at: float
    samples: int
    spent: float


class SpeedProbe:
    """Context manager: while open, probes the machine every PERIOD_S."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 8, 8)) + 1j * rng.standard_normal((16, 8, 8))
        self._mats = list((a + a.conj().transpose(0, 2, 1)) / 8)
        self.samples: list[float] = []  # seconds per probe
        self.warmup: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _probe(self, *_):
        started = time.perf_counter()
        for m in self._mats:
            w, v = np.linalg.eigh(m)
            x = (v * np.clip(w, 0.0, None)) @ v.conj().T
            np.einsum("ijik->jk", x.reshape(2, 4, 2, 4))
        took = time.perf_counter() - started
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        # Warm-up probes are samples only while there are no others, but
        # their time is spent.
        for _ in range(WARMUP_PROBES):
            self._probe()
        self.warmup, self.samples = self.samples, []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), len(self.samples), self.spent)

    def factor(self, mark: Mark | None = None) -> float:
        """Mean of NOMINAL_S / probe seconds over the probes since ``mark``."""
        probes = self.samples[mark.samples if mark else 0 :] or self.samples or self.warmup
        return float(np.mean(NOMINAL_S / np.array(probes)))

    def since(self, mark: Mark) -> tuple[float, float]:
        """(wall seconds without probes, scaled seconds) since ``mark``."""
        wall = time.perf_counter() - mark.at - (self.spent - mark.spent)
        return wall, wall * self.factor(mark)
