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
:func:`assert_linear` bounds that exponent, and :func:`peak_exponent`
fits the ``tracemalloc`` peak of the same calls the same way, so a path
whose working memory grows as n^2 shows as 2 too.
"""

from __future__ import annotations

import gc
import math
import time
import tracemalloc
from collections.abc import Callable, Iterable

REPEATS = 3
BOUND = 1.5  # between linear (about 1) and quadratic (about 2)


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


def assert_linear(make: Callable, run: Callable, sizes: Iterable[int]) -> None:
    """Fail if the :func:`exponent` of ``run`` on ``make(n)`` over ``sizes``
    reaches ``BOUND`` twice in a row.  A fit on a loaded host can stray to
    about 1.4, so a fit at the bound is retried once; a quadratic path,
    about 2, fails both, and the message shows both exponents."""
    sizes = tuple(sizes)
    first = exponent(make, run, sizes)
    if first >= BOUND:
        second = exponent(make, run, sizes)
        assert second < BOUND, f"growth exponents {first:.2f} and {second:.2f}, both at least {BOUND}"


def peak_bytes(make: Callable, run: Callable, size: int) -> int:
    """The ``tracemalloc`` peak of ``run(make(size))``; the input is built
    before tracing starts, so only what ``run`` allocates counts."""
    value = make(size)
    tracemalloc.start()
    try:
        run(value)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_exponent(make: Callable, run: Callable, sizes: Iterable[int]) -> float:
    """The memory growth exponent of ``run`` on ``make(n)`` over ``sizes``:
    the slope of log(:func:`peak_bytes`) against log(n).  One untraced run
    at the first size comes first, so that one-time allocations, such as
    a module that runs on first use, count at no size."""
    sizes = tuple(sizes)
    run(make(sizes[0]))
    return slope((n, peak_bytes(make, run, n)) for n in sizes)
