"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the speed of a fixed piece of work changes by up to 1.7
times from one second to the next, and the slow and fast phases can last
minutes, so two runs of the same code report timings that differ by more
than any useful bound. A run therefore times this task right before and
right after every child, in the benchmark's own process while no child runs,
and scales the child's timings by ``REFERENCE_PROBE_S / mean of the two
probe times``: the time the child would have taken at the reference speed.
The task never touches triarb, so a change to the program cannot move it. It
does the kind of work the program does (csv rows parsed into ``Decimal``
quotes, passes over numpy arrays larger than the CPU caches), so a slowdown
of the host moves both alike.

The mix matters, and no fixed mix tracks every phase of the host. In two
four-minute samples on the measurement machine, pure-Python work swung 1.5 to
2.3 times as much as the triarb commands, and passes over large arrays tracked
them in one sample and not at all in the other. A probe that spends about a
quarter of its time on the first and the rest on the second left the least
unexplained spread in both (see NOTES.md).
"""

from __future__ import annotations

import csv
import io
import time
from decimal import Decimal

import numpy as np

# Median probe time on the measurement machine (see NOTES.md). It only fixes
# the scale of the corrected timings; any constant would compare runs alike.
REFERENCE_PROBE_S = 0.07

_ROWS = "".join(f"{1772409600 + i},1.{20650 + i % 97:05d},1.{20660 + i % 89:05d}\n"
                for i in range(8000))
_ARRAY = np.random.default_rng(0).random(2_000_000)  # 16 MB, beyond the caches
_OUT = np.empty_like(_ARRAY)  # reused, so no pass depends on the allocator's state
_ARRAY_PASSES = 3


def probe() -> float:
    """Seconds taken by one pass of the fixed reference task."""
    start = time.perf_counter()
    quotes = {}
    for raw_t, raw_bid, raw_ask in csv.reader(io.StringIO(_ROWS)):
        bid, ask = Decimal(raw_bid.strip()), Decimal(raw_ask.strip())
        if bid <= ask:
            quotes[int(raw_t)] = (bid, ask)
    sorted(quotes.items())
    for _ in range(_ARRAY_PASSES):
        np.cumsum(_ARRAY, out=_OUT)
        np.multiply(_ARRAY, 2.0, out=_OUT)
        float(_OUT.sum())
        np.argsort(_ARRAY[:200_000])
    return time.perf_counter() - start
