"""A frozen host-speed probe: a tiny discrete-event loop in pure Python.

The host's speed drifts by tens of percent over minutes (the CPU time of
a run tracks its wall time, so this is a slower CPU, not descheduling).
Timing this fixed loop right after each slice of a measured run tells
how fast the host was during that slice, so the benchmark can express
the slice's host time in units of a host running at nominal speed.  It
mixes the operations the simulator spends its time on — a binary heap,
generator resumes, dictionary stores and float arithmetic — and never
changes with the program, so its time moves only with the host.
"""

import gc
import heapq
import random
from time import perf_counter

__all__ = ["NOMINAL_S", "probe"]

# Events per probe, and the probe's time on a host of nominal speed:
# normalised seconds are host seconds scaled by NOMINAL_S / probe().
EVENTS = 15_000
NOMINAL_S = 0.014


def probe() -> float:
    """Host seconds this host takes to run the fixed event loop once.

    The cyclic garbage collector is paused while the loop runs: a full
    collection would walk the simulation's objects and charge their
    cost to the probe, making the host look slower than it is.
    """
    rng = random.Random(7)
    table = {}

    def process(pid):
        total = 0.0
        while True:
            total += yield
            table[pid % 512] = total

    processes = []
    queue = []
    for pid in range(256):
        gen = process(pid)
        next(gen)
        processes.append(gen)
        queue.append((rng.random(), pid, pid))
    heapq.heapify(queue)
    seq = len(queue)
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        for _ in range(EVENTS):
            now, _, pid = heapq.heappop(queue)
            delay = rng.expovariate(10.0)
            processes[pid].send(delay)
            seq += 1
            heapq.heappush(queue, (now + delay, seq, (pid * 31 + seq) % 256))
        return perf_counter() - started
    finally:
        if collecting:
            gc.enable()
