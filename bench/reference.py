"""The reference kernel that the benchmark's times are scaled by.

The machine the benchmark was built on is a few cores of a shared host.  Its
speed flips between a fast and a slow phase, about 1.5x apart, in stretches
of 10 ms to a few seconds, and the share of slow time drifts over minutes.
The same op took 15 ms in one minute and 22 ms two minutes later, in CPU
time as well as wall time, so no median within a run removes it.

So every op is timed together with the machine's speed while it ran.  A
``SpeedSampler`` runs this small fixed kernel from a ``SIGALRM`` handler
every ``INTERVAL_S`` while the op runs, and tops the samples up to
``MIN_SAMPLES`` right after an op too short to collect them.  The op's time
less the handler's is then scaled by ``NOMINAL_S / (mean kernel time)``: it
reads as the time the op takes on a machine where the kernel takes exactly
``NOMINAL_S``.

The kernel uses only the standard library, never sclab, so no change to the
program can move it.  It mixes the three kinds of arithmetic sclab spends its
time on: a ``Fraction`` series of small terms (the hypergeometric sums), a
running product modulo a prime power (the Gamma products) and a dense
product of polynomials with ``Fraction`` coefficients (the q-side ring).
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from time import perf_counter_ns

NOMINAL_S = 0.0003  # the reference speed: the kernel takes 0.3 ms
INTERVAL_S = 0.005  # time between two samples during an op
MIN_SAMPLES = 10  # samples per op, topped up after the op if it was short

_MODULUS = 1_000_003 ** 6
_rng = random.Random(20201224)
_POLY = [Fraction(_rng.getrandbits(64), _rng.getrandbits(64) | 1) for _ in range(4)]


def kernel() -> tuple:
    series = Fraction(0)
    for i in range(1, 25):
        series += Fraction(i, i * i + 1)
    product = 1
    for i in range(1, 500):
        product = product * i % _MODULUS
    poly = [Fraction(0)] * (2 * len(_POLY) - 1)
    for i, a in enumerate(_POLY):
        for j, b in enumerate(_POLY):
            poly[i + j] += a * b
    return series, product, poly


class SpeedSampler:
    """Kernel times taken while an op runs.  The timer is a wall-clock one:
    arming a CPU-time timer (``ITIMER_PROF``) makes Linux read the process
    CPU clock at the granularity of the scheduler tick, which would ruin
    the op times."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        started = perf_counter_ns()
        kernel()
        self.samples_ns.append(perf_counter_ns() - started)

    def start(self) -> None:
        self.samples_ns = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> int:
        """Stop sampling; return the time spent in the handler since
        ``start()``, which the caller takes off the op's time."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return sum(self.samples_ns)

    def mean_ns(self) -> float:
        """The mean kernel time of the op just stopped, after topping the
        samples up to ``MIN_SAMPLES``."""
        while len(self.samples_ns) < MIN_SAMPLES:
            self._sample()
        return sum(self.samples_ns) / len(self.samples_ns)
