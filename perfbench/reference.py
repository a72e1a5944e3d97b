"""A fixed piece of pure-Python work that gauges how fast this machine
runs Python at the moment, so that times taken at different moments can
be compared.

On a shared virtual machine the same code runs at different speeds from
one second to the next, as other tenants load the host: identical
labelling passes took from 1.5 to 3.3 CPU seconds within ten minutes,
and the speed stayed down for tens of seconds at a time.  Process CPU
time leaves out time the host takes the CPU away, but not time spent
running slowly.  The benchmark therefore runs this reference between the
program's calls, for about DUTY of the time, and reports the program's
times in reference seconds: CPU seconds times REF_S over the mean time
of the reference chunks run within WINDOW CPU seconds of the call.  That
is the time the program would take on a machine where one chunk takes
REF_S.

A chunk does three kinds of graph work the labelling code does: it
walks every edge of a small graph comparing colours (list indexing and
integer comparison in the first-level caches), takes a random walk
through a graph of several megabytes (most steps miss the caches), and
colours part of the small graph greedily (fresh sets, a dict, a sort).
The host slows each kind by a different factor, and the labelling code
by a mix of them.  Over ten minutes of corpus_small passes cut into
20-second windows, the sum of per-graph median times varied by 0.126 of
its mean in CPU seconds and by 0.058 in reference seconds of the two
walks; in a calmer period by 0.042, 0.019 with the walks and 0.020 with
object work like the greedy part, so the chunk does both.  No reference
follows every change of the host's speed: at times the program slowed
by 1.3 times what the walks did.
"""

from __future__ import annotations

import bisect
import random
import time

# Nominal CPU seconds of one chunk: about its time on a busy 2-vCPU
# shared virtual machine, Python 3.11.7.  It sets the scale of the
# reported seconds, not their steadiness.
REF_S = 0.0002
# Share of the measured CPU time spent in the reference.
DUTY = 0.05
# A call is scaled by the chunks run from WINDOW CPU seconds before it
# starts to WINDOW after it ends: the speed changes within seconds.
WINDOW = 0.25
_DEGREE = 12
_SMALL = 96           # vertices of the cached graph, all walked
_GREEDY = 24          # of them coloured greedily
_LARGE = 1 << 15      # vertices of the uncached graph
_STEPS = 24           # walk steps through it per chunk


class Reference:
    def __init__(self):
        rng = random.Random(20_261_018)

        def graph(n):
            return ([[rng.randrange(n) for _ in range(_DEGREE)]
                     for _ in range(n)],
                    [rng.randrange(9) for _ in range(n)])

        self.small, self.small_colour = graph(_SMALL)
        self.large, self.large_colour = graph(_LARGE)
        self.walker = 0
        self.start()

    def start(self) -> None:
        """Begin a measurement: forget earlier chunks."""
        self.spent = 0.0
        self.chunks = 0
        self.since = time.process_time()
        # Per tick: when it began, and the running totals of chunks
        # and seconds after it.
        self.at: list[float] = []
        self.total_chunks: list[int] = [0]
        self.total_spent: list[float] = [0.0]

    def chunk(self) -> int:
        adj, colour = self.small, self.small_colour
        clashes = 0
        for v in range(_SMALL):
            cv = colour[v]
            for w in adj[v]:
                if colour[w] == cv:
                    clashes += 1
        greedy: dict[int, int] = {}
        for v in sorted(range(_GREEDY), key=lambda v: -len(set(adj[v]))):
            used = {greedy.get(w) for w in adj[v]}
            c = 0
            while c in used:
                c += 1
            greedy[v] = c
        adj, colour = self.large, self.large_colour
        v = self.walker
        for _ in range(_STEPS):
            cv = colour[v]
            for w in adj[v]:
                if colour[w] == cv:
                    clashes += 1
            v = adj[v][clashes % _DEGREE]
        self.walker = v
        return clashes + max(greedy.values())

    def tick(self) -> None:
        """Run chunks for about DUTY of the CPU time since the last tick
        (at least one)."""
        t0 = time.process_time()
        chunks = max(1, round(DUTY * (t0 - self.since) / REF_S))
        for _ in range(chunks):
            self.chunk()
        self.since = time.process_time()
        self.spent += self.since - t0
        self.chunks += chunks
        self.at.append(t0)
        self.total_chunks.append(self.chunks)
        self.total_spent.append(self.spent)

    def take(self) -> tuple[float, float]:
        """(REF_S over the mean chunk time, CPU seconds spent in chunks)
        since start().  The first turns CPU seconds measured meanwhile
        into reference seconds."""
        return REF_S * self.chunks / self.spent, self.spent

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean chunk time of the ticks since start() that
        began within WINDOW of the CPU-time interval [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, end + WINDOW)
        spent = self.total_spent[hi] - self.total_spent[lo]
        if not spent:
            return self.take()[0]
        return REF_S * (self.total_chunks[hi] - self.total_chunks[lo]) / spent
