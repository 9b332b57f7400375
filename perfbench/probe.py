"""The host probe: fixed pure-Python work whose time tracks the speed
the host gives this process at the moment.

A shared VM can run the same code up to twice as fast in some phases
as in others (README.md, *Noise*).  Code slows by different amounts: a
small cache-resident loop slows more than the simulator, a walk over a
large object graph less.  The probe sums one of each; the simulator's
time followed the sum more closely than either part.  It shares no code
with the program, so only the host moves it.
"""

from __future__ import annotations

import gc
import time
from typing import NamedTuple


class _Way:
    __slots__ = ("tag", "stamp")

    def __init__(self) -> None:
        self.tag = -1
        self.stamp = 0


def _stamp(way: _Way) -> int:
    return way.stamp


class _Node:
    __slots__ = ("next", "hits")

    def __init__(self, next_index: int) -> None:
        self.next = next_index
        self.hits = 0

    def touch(self) -> int:
        self.hits += 1
        return self.next


def lru() -> None:
    """A 64-set, 8-way LRU cache over a fixed address stream: a small
    working set that stays in the CPU's caches."""
    sets = [[_Way() for _ in range(8)] for _ in range(64)]
    x = 12345
    for now in range(30_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 4) % 4096
        ways = sets[line & 63]
        tag = line >> 6
        for way in ways:
            if way.tag == tag:
                way.stamp = now
                break
        else:
            victim = min(ways, key=_stamp)
            victim.tag = tag
            victim.stamp = now


def chase(nodes: int = 50_000, steps: int = 75_000) -> None:
    """Build a graph of ``nodes`` objects linked by index in a fixed
    permutation and walk it with a random jump every 8 steps: a working
    set of a few MB, visited in an order the CPU cannot predict.  Links are
    indices, not references, so the graph is freed on return and leaves
    no garbage for the collector to find during the program's time."""
    graph = [_Node((i * 7919 + 1) % nodes) for i in range(nodes)]
    node = graph[0]
    x = 1
    for step in range(steps):
        node = graph[node.touch()]
        if step & 7 == 0:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            node = graph[x % nodes]


class ProbeTime(NamedTuple):
    """How long one probe took, on the two clocks the benchmark reads.
    Wall time also counts time the host gave to others, which the
    guest's CPU clock does not see."""

    cpu_s: float
    wall_s: float


def host_probe() -> ProbeTime:
    """Run one probe.  The cyclic garbage collector is off while it
    runs: a collection would scan the program's heap, and the probe
    would time the program's memory instead of the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall = time.perf_counter()
        cpu = time.process_time()
        lru()
        chase()
        return ProbeTime(time.process_time() - cpu,
                         time.perf_counter() - wall)
    finally:
        if enabled:
            gc.enable()
