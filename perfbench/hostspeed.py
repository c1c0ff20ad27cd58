"""Host speed, sampled by a fixed reference kernel run from a timer signal.

On a shared 2-vCPU virtual machine the host slowed this benchmark by up to
1.9x, in bursts under a second long and in phases of minutes, and CPU time
slowed with wall time (contention for the shared core and caches, not
preemption). Run means, medians and best-of-rounds of wall time all moved
with it: over ten runs of one workload, run means spread up to 0.37
(interquartile range over median). A reference kernel of the same kind of
work as a per-bag sweep (small mat-vecs, outer products, ``np.add.at`` and a
Python loop over factors, about 1 ms) runs every ``PERIOD_S`` from SIGALRM,
between bytecodes of the main thread, so it samples the host at the moments
the workload runs. A phase's time divided by its speed factor, the mean
kernel time inside the phase over ``REFERENCE_KERNEL_S``, reads as seconds
at the reference speed. In one 95-second series of ``fit-many-small`` fits,
this cut the fit-to-fit spread from 0.14 to 0.06.

Kernel time is removed from every measured interval (``work``); the kernel
takes about 5% of the run. It has its own arrays and touches no program
state, so outputs are unchanged.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# About the kernel's time on a 2-vCPU VM (Python 3.11, NumPy 2.4, OpenBLAS,
# one thread); it only sets the scale of the values.
REFERENCE_KERNEL_S = 1.0e-3

_rng = np.random.default_rng(20240817)
_K, _N, _D = 30, 36, 32
_BAGS = [(_rng.standard_normal((_N, _D)), _rng.random((_N, _K))) for _ in range(48)]
_MEANS = 0.1 * _rng.standard_normal((_K, _D))
_CORR = 0.01 * _rng.random((_K, _K))
_EDGES = np.array([(i, i + 1) for i in range(_N - 1)] + [(i, i + 6) for i in range(_N - 6)])
_SRC = np.concatenate([_EDGES[:, 0], _EDGES[:, 1]])
_DST = np.concatenate([_EDGES[:, 1], _EDGES[:, 0]])


def kernel(i: int) -> float:
    """Half a sweep over one of 48 fixed 6x6 bags; the same work every call."""
    x, nu0 = _BAGS[i % len(_BAGS)]
    nu = nu0.copy()
    resid = x - nu @ _MEANS
    s = nu.sum(axis=0)
    acc = 0.0
    for k in range(0, _K, 2):
        cross = 0.0
        for m in range(k + 1, _K, 3):
            cross += s[m] * _CORR[m, k + 1: m + 1].sum()
        phi = _MEANS[k]
        eta = 0.5 * ((resid + np.outer(nu[:, k], phi)) @ phi) - phi @ phi + 1e-3 * cross
        neigh = np.zeros(_N)
        np.add.at(neigh, _SRC, nu[_DST, k])
        eta = eta + 0.1 * neigh + 0.1 * (nu @ _CORR[:, k])
        new = 1.0 / (1.0 + np.exp(-np.clip(eta, -30.0, 30.0)))
        resid += np.outer(nu[:, k] - new, phi)
        acc += float(np.abs(new - nu[:, k]).sum())
        nu[:, k] = new
    return acc


class Sampler:
    """Runs ``kernel`` every ``period`` seconds while started.

    ``starts`` and ``seconds`` hold each kernel call's ``perf_counter`` start
    and duration, in time order.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._cum = [0.0]  # kernel seconds before each call, for ``work``
        self._previous = None

    def _sample(self, *_):
        t = time.perf_counter()
        kernel(len(self.starts))
        d = time.perf_counter() - t
        self.starts.append(t)
        self.seconds.append(d)
        self._cum.append(self._cum[-1] + d)

    def __enter__(self):
        self._sample()  # at least one sample, however short the run
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _index(self, t: float) -> int:
        return bisect.bisect_left(self.starts, t)

    def work(self, a: float, b: float) -> float:
        """Seconds of ``[a, b]`` left after removing kernel calls started in it."""
        i, j = self._index(a), self._index(b)
        return (b - a) - (self._cum[j] - self._cum[i])

    def factor(self, intervals: list[tuple[float, float]]) -> float:
        """Mean time of the kernel calls started in the intervals over the
        reference time; an interval too short to hold one takes the calls on
        either side of it."""
        inside = []
        for a, b in intervals:
            i, j = self._index(a), self._index(b)
            if i == j:
                i, j = max(0, i - 1), min(len(self.seconds), j + 1)
            inside += self.seconds[i:j]
        return statistics.fmean(inside) / REFERENCE_KERNEL_S
