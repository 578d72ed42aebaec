"""Operation timing that cancels the machine's own speed drift.

On a small shared virtual machine the same fixed loop can run twice as fast
in one tenth of a second as in another, and the speed stays correlated for
about a second; that moves a run's figures by more than any bound a
benchmark could keep.  So every operation is timed next to a *reference*:
a fixed piece of work of the same kind that uses nothing of the program,
so that a change to the program cannot move it.  Each operation's time is
scaled by how fast its reference ran around it:

    scaled = seconds * NOMINAL_S / mean(reference times around the operation)

There are two kinds of operation and one reference for each:

* :class:`Clock`, for work done inside the benchmark process.  An interval
  timer interrupts it every ``PROBE_EVERY_S`` seconds to time a Python loop
  (``Fraction`` arithmetic, tuples, a dict: the kinds of work the program
  does).  Operations are timed on a timeline that leaves these probes out
  (:func:`now`), and each is scaled by the probes taken while it ran and
  within ``WINDOW_S`` on either side, so a 20 s operation is scaled by the
  speed the machine had during those 20 s.
* :class:`ProcessClock`, for operations that are whole child processes.
  Their time is mostly interpreter start, imports and kernel work, which the
  Python loop does not track, so the reference is a bare interpreter start
  (``python -c pass``), run after every operation; each operation is scaled
  by the one before and the one after it.

The ``NOMINAL_S`` of each is the reference's median time on the machine the
reference figures in README.md come from, so scaled values read as seconds
there.
"""

from __future__ import annotations

import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PROBE_EVERY_S = 0.05

_stolen = [0.0]  # seconds spent in probes so far, left out of now()


def _reference_loop(n: int = 250) -> int:
    acc = 0
    table = {}
    for i in range(n):
        f = Fraction(i % 97 + 1, i % 89 + 1) + Fraction(1, 3)
        table[i & 255] = (f.numerator, i)
        acc += len(table) + (i * i) % 7
    return acc


def now() -> float:
    """``perf_counter()`` less the time spent in probes: the timeline operations are timed on."""
    while True:
        before = _stolen[0]
        t = perf_counter()
        if _stolen[0] == before:  # no probe ran in between
            return t - before


class _Scaled:
    """Operation intervals and reference samples on one timeline; see :meth:`scaled`.

    Subclasses set ``NOMINAL_S``, ``WINDOW_S`` and ``MIN_SAMPLES``.
    """

    def __init__(self):
        self.samples = []  # (timeline time, reference seconds), in time order
        self.ops = []  # (start, end) on the timeline, None for a failed operation

    def add(self, start: float, end: float):
        self.ops.append((start, end))

    def fail(self):
        self.ops.append(None)

    def scaled(self):
        """Each operation's time scaled to the nominal reference speed; NaN for a failed one."""
        at = [t for t, _ in self.samples]
        out = []
        for op in self.ops:
            if op is None:
                out.append(float("nan"))
                continue
            start, end = op
            lo, hi = bisect_left(at, start - self.WINDOW_S), bisect_right(at, end + self.WINDOW_S)
            while hi - lo < self.MIN_SAMPLES and (lo > 0 or hi < len(at)):  # widen to the nearest samples
                if hi == len(at) or (lo > 0 and start - at[lo - 1] <= at[hi] - end):
                    lo -= 1
                else:
                    hi += 1
            speed = statistics.fmean(s for _, s in self.samples[lo:hi])
            out.append((end - start) * self.NOMINAL_S / speed)
        return out


class Clock(_Scaled):
    """Probes the machine's speed while a round of in-process operations runs.

    Use it as a context manager around the round; inside, call :meth:`add`
    with each operation's start and end from :func:`now`, or :meth:`fail`
    for an operation that raised.  :meth:`scaled` gives the times in order.
    """

    NOMINAL_S = 0.00125
    WINDOW_S = 0.25
    MIN_SAMPLES = 4

    def _probe(self, *_):
        started = perf_counter()
        _reference_loop()
        spent = perf_counter() - started
        self.samples.append((started - _stolen[0], spent))
        _stolen[0] += perf_counter() - started

    def __enter__(self):
        for _ in range(self.MIN_SAMPLES):
            self._probe()
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(self.MIN_SAMPLES):
            self._probe()


class ProcessClock(_Scaled):
    """Runs a bare interpreter start before the first and after every operation.

    ``start_child(argv)`` runs one child to its end and returns an object
    with ``start`` and ``end`` on the :func:`now` timeline (``workloads.spawn``
    with the operations' environment).  Use it as a context manager, like
    :class:`Clock`.
    """

    NOMINAL_S = 0.061
    WINDOW_S = 0.0
    MIN_SAMPLES = 2  # the starts just before and just after the operation
    FLOOR_ARGV = (sys.executable, "-c", "pass")

    def __init__(self, start_child):
        super().__init__()
        self.start_child = start_child

    def _floor(self):
        child = self.start_child(list(self.FLOOR_ARGV))
        self.samples.append(((child.start + child.end) / 2, child.end - child.start))

    def __enter__(self):
        self._floor()
        return self

    def __exit__(self, *exc):
        pass

    def add(self, start: float, end: float):
        super().add(start, end)
        self._floor()

    def fail(self):
        super().fail()
        self._floor()
