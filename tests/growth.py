"""Empirical growth exponents: time against input size on a log-log scale.

A path whose time grows as n^k has a least-squares slope of about k
between log(size) and log(time) (Goldsmith, Aiken and Wilkerson,
"Measuring empirical computational complexity", ESEC/FSE 2007).  Over
doubling sizes the slope tells linear from quadratic on any host, where
an absolute time bound depends on the host and misses a quadratic path
at small sizes.  Pytest does not collect this module; tests import it
from ``tests/``, for example

    exponent(circular_ladder_graph, dual_surface, (128, 256, 512, 1024))

times ``dual_surface`` on a fresh ladder of each size and returns about 1.
"""

from __future__ import annotations

import gc
import math
import time
from collections.abc import Callable, Iterable

REPEATS = 3


def slope(points: Iterable[tuple[float, float]]) -> float:
    """The least-squares slope of log(y) against log(x) over ``points``."""
    logs = [(math.log(x), math.log(y)) for x, y in points]
    mx = sum(x for x, _ in logs) / len(logs)
    my = sum(y for _, y in logs) / len(logs)
    return sum((x - mx) * (y - my) for x, y in logs) / sum((x - mx) ** 2 for x, _ in logs)


def best_time(make: Callable, run: Callable, size: int) -> float:
    """The least of ``REPEATS`` wall times of ``run(make(size))``.

    Each repeat times a fresh input, built outside the clock, so values
    that cache derived data on themselves are timed cold; the garbage
    collector is off while the clock runs, as in ``timeit``.
    """
    best = math.inf
    for _ in range(REPEATS):
        value = make(size)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run(value)
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def exponent(make: Callable, run: Callable, sizes: Iterable[int]) -> float:
    """The growth exponent of ``run`` on ``make(n)`` over ``sizes``: the
    slope of log(:func:`best_time`) against log(n)."""
    return slope((n, best_time(make, run, n)) for n in sizes)
