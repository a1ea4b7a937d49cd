"""Host speed, sampled between the program's steps, to rescale wall time.

The host this benchmark was written on changes speed by up to 75% in
stretches of seconds to minutes (see README, "Host noise"), so raw wall
times of the same code spread more than a regression bound.  A job
therefore runs a fixed pure-Python reference kernel every ``EVERY_S``
seconds, between library steps (before a replica or a build), never
inside a timed span.  ``Clock.scaled`` turns a wall interval into
*reference seconds*: each stretch between two samples is divided by the
host's slowdown in that stretch, the mean of its two samples' reference
times over ``REF_S``.  The reference kernel is the benchmark's own code,
so a change to hyperperc moves the scaled time exactly as much as the
wall time, while a slow host moves both the wall time and the reference.

Time spent in the reference kernel is left out of every interval.
"""

from __future__ import annotations

import time

# Reference-kernel time at the speed the scaled figures are expressed in:
# about its median on a 2-vCPU Intel Xeon VM, python 3.11.7.
REF_S = 4.0e-3
EVERY_S = 0.1
_ROUNDS = 18000
_TABLE = list(range(257))


def reference() -> int:
    """Interpreter work of the kind the numpy-backend kernels do: integer
    arithmetic, list indexing and a dict, in a loop of fixed length."""
    seen = {}
    acc = 0
    for i in range(_ROUNDS):
        j = _TABLE[(i * 31 + acc) % 257]
        acc = (acc + j * j) % 100003
        seen[j] = seen.get(j, 0) + 1
    return acc + len(seen)


class Clock:
    """Reference samples of one job: [start, end] of each, in call order."""

    def __init__(self):
        self.samples = []

    def sample(self):
        t = time.perf_counter()
        reference()
        self.samples.append((t, time.perf_counter()))

    def maybe_sample(self):
        """Sample when the last sample ended ``EVERY_S`` ago or more."""
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= EVERY_S:
            self.sample()

    def sampling_s(self, start, end):
        """Reference time spent inside [start, end]."""
        return sum(b - a for a, b in self.samples if a >= start and b <= end)

    def scaled(self, start, end):
        """Reference seconds of the program time in [start, end].

        Stretches before the first or after the last sample take the slowdown
        of the nearest sample; the samples themselves are left out.
        """
        if not self.samples:
            raise ValueError("no reference sample taken")
        slow = [(b - a) / REF_S for a, b in self.samples]
        # program stretches: before sample 0, between k-1 and k, after the last
        edges = [(float("-inf"), self.samples[0][0], slow[0])]
        for k in range(1, len(self.samples)):
            edges.append((self.samples[k - 1][1], self.samples[k][0],
                          0.5 * (slow[k - 1] + slow[k])))
        edges.append((self.samples[-1][1], float("inf"), slow[-1]))
        total = 0.0
        for lo, hi, s in edges:
            span = min(hi, end) - max(lo, start)
            if span > 0:
                total += span / s
        return total
