"""A fixed piece of pure-Python work that gauges the machine's current speed.

The benchmark runs on a few virtual cores of a shared host whose speed
changes from one second to the next by up to 1.7 times.  Every timed
figure the benchmark carries is therefore rescaled to a fixed reference
speed: right after an operation is timed, this work is timed too, and a
time ``x`` measured while the reference takes ``t`` seconds counts as
``x * REFERENCE_S / t``.  The work builds, indexes, traverses and sorts a
small typed graph of dicts, tuples and strings, the kind of work the
engine itself does, so that both slow down alike when the host does.

The rescaled figure reads as what the machine would measure if it ran at
the speed where the reference takes ``REFERENCE_S`` seconds.  It never
depends on the program under test, so a change that makes the program
faster raises a rescaled rate by the same factor as the raw one.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

REFERENCE_S = 0.02
"""Seconds the reference work takes at the reference speed: about what it
took on a 2-vCPU virtual machine with Python 3.11 in its slower periods."""

_NODES = 2000
EXPECTED = (100, 86, "e2284")
"""What :func:`reference_work` returns; a different answer is an error."""


def reference_work() -> tuple[int, int, str]:
    n = _NODES
    kinds = {f"n{i}": f"t{i % 7}" for i in range(n)}
    edges = {
        f"e{i}": (f"r{i % 5}", f"n{i % n}", f"n{(i * 7919 + i // n + 1) % n}") for i in range(2 * n)
    }
    out: dict[str, list[tuple[str, str, str]]] = {}
    for eid, (t, src, tgt) in edges.items():
        out.setdefault(src, []).append((t, tgt, eid))
    seen = {"n0"}
    stack = ["n0"]
    while stack:
        for t, tgt, _ in out[stack.pop()]:
            if tgt not in seen and t != "r4":
                seen.add(tgt)
                stack.append(tgt)
    typed = sum(1 for node in seen if kinds[node] != "t0")
    order = sorted(edges.items(), key=lambda kv: (kv[1][0], kv[1][2], kv[0]))
    return len(seen), typed, order[-1][0]


class Gauge:
    """Times the reference work; each call is one sample of machine speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Seconds the reference work takes now."""
        # Without the cyclic collector: a collection that starts inside the
        # reference work would time the workload's heap, not the machine.
        gc.disable()
        try:
            t0 = perf_counter()
            got = reference_work()
            seconds = perf_counter() - t0
        finally:
            gc.enable()
        if got != EXPECTED:
            raise RuntimeError(f"reference work returned {got}, expected {EXPECTED}")
        self.samples.append(seconds)
        return seconds

    def rescale(self, seconds: float) -> float:
        """``seconds`` just measured, rescaled by a sample taken right after."""
        return seconds * REFERENCE_S / self.sample()

    def slowdown(self) -> float:
        """How many times slower than the reference speed the machine ran,
        as the median over every sample so far."""
        if not self.samples:
            self.sample()
        return statistics.median(self.samples) / REFERENCE_S
