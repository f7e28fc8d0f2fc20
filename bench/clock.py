"""Timings scaled to one fixed machine speed.

The machine this benchmark was written on (a 2-vCPU VM shared with other
tenants) changes speed by up to 2x within seconds: a fixed loop took
3.6 to 8.4 ms.  CPU time drifts with it, so it does not help.  Instead a
fixed pure-Python probe loop measures the current speed right before
and after every timed call, and every TICK_S during it (from a SIGALRM
handler whose own time is taken out of the call's).  The call's time is
scaled by NOMINAL_ROUND_S over the mean probe time per round.  In a
trial this cut the spread of medians over ten requests from 22% to 4%.
"""

from __future__ import annotations

import gc
import signal
import time

# Seconds one probe round takes at the speed every timing is scaled to:
# about its median on the machine above, with Python 3.11.
NOMINAL_ROUND_S = 7e-5
BRACKET_ROUNDS = 40
TICK_ROUNDS = 10
TICK_S = 0.05


def probe(rounds: int) -> float:
    """Seconds per round of a fixed integer and list loop, measured now."""
    start = time.perf_counter()
    acc = 0
    slots = [0] * 256
    for r in range(rounds):
        for x in range(1, 200):
            m = (x * 2654435761 + r) & 0xFFFF
            acc ^= (m | (m >> 3)) & ~(m << 1)
            slots[m & 255] = x
        acc += slots[r & 255]
    return (time.perf_counter() - start) / rounds


class Clock:
    """Use as a context manager; time() and repeat() calls inside it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe(TICK_ROUNDS))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """(fn(*args), the seconds it took scaled to the nominal speed)."""
        return self.repeat(lambda: fn(*args), 0.0, 1)[0]

    def repeat(self, fn, until_s: float, most: int) -> list[tuple[object, float]]:
        """Call fn() back to back, after a garbage collection each time, until
        the scaled times add up to until_s or there are `most` of them.

        Returns (result, scaled seconds) per call.  The probe after one
        call is the probe before the next.
        """
        out = []
        total = 0.0
        before = probe(BRACKET_ROUNDS)
        while not out or (total < until_s and len(out) < most):
            gc.collect()
            mark, spent = len(self.samples), self.spent
            start = time.perf_counter()
            result = fn()
            took = time.perf_counter() - start - (self.spent - spent)
            after = probe(BRACKET_ROUNDS)
            speeds = self.samples[mark:] + [before, after]
            scaled = took * NOMINAL_ROUND_S * len(speeds) / sum(speeds)
            out.append((result, scaled))
            total += scaled
            before = after
        return out
