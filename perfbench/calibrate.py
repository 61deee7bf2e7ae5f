"""Machine-speed reference for the timed runs.

On a small shared host the speed of this pure-Python program drifts for
seconds to minutes at a time, as other tenants compete for the cores and
caches: the same search pass takes 3.3 s in one minute and 5 s in the
next, and set-up and snapshot loads move with it. Medians within a run
cannot remove a drift that outlasts the run. So the timed runs interleave
a fixed reference with the measured operations and scale every timing by
how fast the reference ran around it.

The reference is independent of the program and of the seed: it lowers
and splits a fixed 6000-word text and counts the words with a trailing
`s` stripped in a dict, the kind of string and dict work the analysis
chain, the index and the suggestion generators do. Nothing it allocates
is tracked by the cyclic garbage collector, so it adds nothing to the
program's collections. In tracking runs on a 2-CPU Xeon VM (5 minutes
each, 5-second windows) scaling by it cut the coefficient of variation of
suggest time from 0.21 to 0.055 and of search time from 0.13 to 0.042;
random lookups in a 60 MB dict (0.125, 0.081), an arithmetic loop (0.070,
0.054) and small-set intersections (0.088, 0.064) tracked the drift less
well.

A timing `t` measured where ticks took `r` on average is reported as
`t * NOMINAL_TICK_S / r`: seconds on a machine where a tick takes
NOMINAL_TICK_S, about its time on that VM.
"""

from __future__ import annotations

import random
from time import perf_counter

WORDS = 6000
NOMINAL_TICK_S = 1.5e-3


class Reference:
    """The reference text and the tick times measured so far."""

    def __init__(self):
        rng = random.Random(0)
        self._text = " ".join(
            "".join(rng.choice("abcdefghijklmnopS") for _ in range(rng.randint(2, 9))) for _ in range(WORDS)
        )
        self.ticks: list[float] = []

    def tick(self) -> None:
        """One reference unit, recorded in `ticks`."""
        start = perf_counter()
        counts: dict[str, int] = {}
        for word in self._text.lower().split():
            key = word.rstrip("s")
            counts[key] = counts.get(key, 0) + 1
        self.ticks.append(perf_counter() - start)

    def factor(self, since: int = 0) -> float:
        """Reference time per tick over nominal, for the ticks from index
        `since` on: above 1 on a slow machine."""
        window = self.ticks[since:]
        return sum(window) / (len(window) * NOMINAL_TICK_S)


class Unscaled:
    """Stands in for the reference in counted (traced) runs."""

    ticks: list[float] = []

    def tick(self) -> None:
        pass

    def factor(self, since: int = 0) -> float:
        return 1.0
