"""Machine-speed correction for the benchmark's timings.

On a shared virtual machine the speed of one core wanders by a third from
one second to the next and from one minute to the next, far more than the
regressions the benchmark has to see. `chunk()` runs a fixed piece of the
benchmark's own code (set, dict, sorting and search work of the kinds the
solvers do) and returns its wall time. The run loop times a chunk between
operations, about twenty times a second (`Calibration`), and turns the
chunk times around each operation into a factor that maps its wall time
to the time it would take on a machine where one chunk takes `REF_S`. The
package never runs inside a chunk, so a change to the package changes the
operations' times and not the factors.
"""

from __future__ import annotations

import bisect
import itertools
import random
import statistics
import time
from fractions import Fraction

# Wall time of one chunk on the reference machine. Any fixed value would
# do; on the shared 2-vCPU VM (CPython 3.11) where bench/README.md's
# figures were taken, run medians of a chunk were 5.8-7.3 ms.
REF_S = 0.005

_rng = random.Random(0)

# Four kinds of work, each sensitive to a different kind of slowdown: set
# and tuple work on a small graph, lookups scattered over a dict of a few
# MB, sorting by Fraction keys, and a backtracking search.
# On the reference machine their sum follows the slowdowns of all three
# workloads' operations more closely than any one of them alone.
_N = 60
_ADJ = [frozenset(_rng.sample(range(_N), 6)) for _ in range(_N)]
_BIG = {k * 2654435761 % (1 << 61): k & 255 for k in range(50_000)}
_PROBES = [k * 2654435761 % (1 << 61) for k in _rng.sample(range(50_000), 5000)]
_KEYS = {i: Fraction(_rng.randint(1, 10**6), _rng.randint(1, 1000)) for i in range(150)}
_GN = 22
_GADJ = [set() for _ in range(_GN)]
for _a, _b in itertools.combinations(range(_GN), 2):
    if _rng.random() < 0.3:
        _GADJ[_a].add(_b)
        _GADJ[_b].add(_a)


def _sets() -> int:
    acc = {}
    for _ in range(3):
        for a in range(_N):
            na = _ADJ[a]
            for b in na:
                common = na & _ADJ[b]
                key = tuple(sorted(common))
                acc[key] = acc.get(key, 0) + len(common)
    return len(acc)


def _lookups() -> int:
    return sum(_BIG[k] for k in _PROBES)


def _sorts() -> int:
    order = sorted(_KEYS, key=_KEYS.__getitem__)
    top = max(_KEYS, key=lambda v: (_KEYS[v], -v))
    return len([tuple(order[i : i + 3]) for i in range(0, 150, 3)]) + top


def _search() -> int:
    """Backtracking 3-coloring of a fixed graph, stopped after 2000 steps."""
    colors = {}
    steps = 0

    def extend(v):
        nonlocal steps
        steps += 1
        if v == _GN:
            return steps >= 2000
        if steps >= 2000:
            return True
        for c in (1, 2, 3):
            if all(colors.get(u) != c for u in _GADJ[v]):
                colors[v] = c
                if extend(v + 1):
                    return True
                del colors[v]
        return False

    extend(0)
    return steps


def chunk() -> float:
    """Wall seconds of one fixed calibration chunk."""
    start = time.perf_counter()
    _sets()
    _lookups()
    _sorts()
    _search()
    return time.perf_counter() - start


class Calibration:
    """Calibration chunks between the operations of a closed loop: one
    before the first operation, then one after an operation whenever
    GAP_S of operation time has passed since the last chunk, and one after
    the last operation."""

    GAP_S = 0.05

    def __init__(self):
        self.at: list = []  # index of the operation that followed each chunk
        self.seconds: list = []
        self._since = 0.0
        self._take(0)

    def _take(self, before_op: int) -> None:
        self.at.append(before_op)
        self.seconds.append(chunk())
        self._since = 0.0

    def after(self, op: int, op_seconds: float) -> None:
        self._since += op_seconds
        if self._since >= self.GAP_S:
            self._take(op + 1)

    def scales(self, n_ops: int) -> list:
        """The factor for each of the first `n_ops` operations: REF_S over
        the median of the two chunks before it and the two after it, so
        that one chunk slowed by a preemption does not skew its
        operations."""
        if self.at[-1] < n_ops:
            self._take(n_ops)
        out = []
        for i in range(n_ops):
            j = bisect.bisect_right(self.at, i)  # first chunk after operation i
            out.append(REF_S / statistics.median(self.seconds[max(0, j - 2) : j + 2]))
        return out


class Stopwatch:
    """Scaled time of one long piece of work that calls `tick()` at points
    of its own choosing: the work between two ticks is a segment, scaled
    like an operation of the run loop, with calibration chunks taken
    between segments."""

    def __init__(self):
        self.calibration = Calibration()
        self.segments: list = []
        self._start = time.perf_counter()

    def tick(self) -> None:
        wall = time.perf_counter() - self._start
        self.segments.append(wall)
        self.calibration.after(len(self.segments) - 1, wall)
        self._start = time.perf_counter()

    def scaled(self) -> float:
        """Scaled seconds of every segment so far, the last one ending now."""
        self.tick()
        factors = self.calibration.scales(len(self.segments))
        return sum(t * f for t, f in zip(self.segments, factors))
