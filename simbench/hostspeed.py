"""Host time scaled to a reference host speed.

The benchmark runs on shared machines whose speed drifts while it runs: on
a 2-vCPU 2.1 GHz Xeon VM, the same chat trace took 1.8 CPU-s in one minute
and 3.9 CPU-s a few minutes later, and of ten runs of one workload made
over seventeen minutes the slowest read 1.9x slower than the fastest.
Other processes stretch the program's CPU time along with everything else
running on the core, so the benchmark times a fixed reference kernel right
before and right after each timed piece of work, and reports that work's
CPU time scaled by how much slower than ``REFERENCE_S`` the kernel ran
around it.

This module imports nothing from the program, so a fresh interpreter can
use it to time the program's import.
"""

from __future__ import annotations

import heapq
import statistics
import time

__all__ = ["host_clock", "REFERENCE_S", "reference_s", "scaled"]

#: Host time of the simulator: the process's CPU seconds.  The simulator is
#: single-threaded and does no I/O, so on an idle machine this equals wall
#: time; on a shared one it leaves out the time other processes take.
host_clock = time.process_time

#: CPU seconds ``reference_s`` reads on the reference host, a 2-vCPU
#: 2.1 GHz Xeon VM at its least loaded (rounded).  Scaled times are CPU
#: seconds at that speed.
REFERENCE_S = 0.008

_NODES = 20_000
_graph = None


def _build_graph():
    """A fixed object graph, made once per process: nodes with a value, a
    hit count and three out-edges, reached through a dict of hashed keys."""
    nodes = [[0.0, 0, None] for _ in range(_NODES)]
    j = 1
    for node in nodes:
        edges = []
        for _ in range(3):
            j = (j * 1103515245 + 12345) % 2147483648
            edges.append(nodes[j % _NODES])
        node[2] = edges
    return {(i * 2654435761) % 4294967296: node
            for i, node in enumerate(nodes)}


def _kernel() -> None:
    """Fixed pure-Python work like the simulator's: integer arithmetic,
    dict lookups, attribute-like updates through references, heap pushes."""
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
    heap: list = []
    j = 12345
    for i in range(4_000):
        j = (j * 1103515245 + 12345) % 2147483648
        node = _graph[((j % _NODES) * 2654435761) % 4294967296]
        node[0] = node[0] * 0.5 + i * 1e-3
        node[1] += 1
        for edge in node[2]:
            edge[0] += node[0] * 1e-6
        heapq.heappush(heap, (node[0], i))
        if len(heap) > 64:
            heapq.heappop(heap)


def reference_s(repeats: int = 5) -> float:
    """Median CPU seconds of ``repeats`` runs of the reference kernel."""
    global _graph
    if _graph is None:
        _graph = _build_graph()
    times = []
    for _ in range(repeats):
        t0 = host_clock()
        _kernel()
        times.append(host_clock() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of CPU time at reference speed, given ``reference_s``
    read just before and just after the work."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
