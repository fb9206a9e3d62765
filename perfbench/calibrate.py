"""Machine-speed calibration: a fixed pure-Python kernel timed between items.

The shared host the benchmark was written on drifts between speed states
up to about 1.75 times apart, on a scale of seconds, and every item kind
slows by about the same factor.  A worker times ``kernel()`` right before
each item and once after the last; an item's speed factor is the mean of
the two kernel times around it divided by ``REFERENCE_S``, and its
normalized time is its measured time divided by that factor.  The kernel
imports nothing from the library, so a change to the library moves item
times and leaves the kernel alone.

The kernel mimics the library's instruction mix: frozen slotted
dataclasses validated in ``__post_init__``, digit-tuple trimming and
lexicographic comparison (as in ``points.Point``), dict and set look-ups
and a keyed sort.  Over 150 s of repeated fixed items on the reference
machine, its time correlated with the items' at 0.83 (a 1.5 s deep
``distance``) to 0.96 (``to_filtering``, ``realize_all_colors``), closer
than a plain integer loop (0.70 to 0.93).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# median kernel time on the reference machine (2 vCPUs, CPython 3.11);
# only the scale of normalized times depends on it
REFERENCE_S = 0.00125


@dataclass(frozen=True, slots=True)
class _Digits:
    base: int
    stem: tuple[int, ...] = ()
    tail: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.base, int) or self.base < 2:
            raise ValueError(self.base)
        stem = tuple(self.stem)
        for d in stem:
            if not isinstance(d, int) or not 0 <= d < self.base:
                raise ValueError(d)
        while stem and stem[-1] == self.tail:
            stem = stem[:-1]
        object.__setattr__(self, "stem", stem)

    def compare(self, other: "_Digits") -> int:
        a, b = self.stem, other.stem
        la, lb = len(a), len(b)
        for i in range(max(la, lb)):
            da = a[i] if i < la else self.tail
            db = b[i] if i < lb else other.tail
            if da != db:
                return -1 if da < db else 1
        if self.tail != other.tail:
            return -1 if self.tail < other.tail else 1
        return 0


def _work(n: int) -> int:
    # a linear congruential stream keeps the kernel independent of `random`
    x = 12345
    points = []
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        length = 1 + x % 6
        stem = tuple((x >> (3 * k)) % 3 for k in range(length))
        points.append(_Digits(3, stem, (x >> 20) % 3))
    seen: dict[_Digits, int] = {}
    acc = 0
    for a, b in zip(points, points[1:]):
        acc += a.compare(b)
        seen[a] = seen.get(a, 0) + 1
    tails = {p.tail for p in points}
    points.sort(key=lambda p: (p.stem, p.tail))
    return acc + len(seen) + len(tails) + len(points[0].stem)


def kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds.  The
    cyclic collector is held off meanwhile, so the kernel's time does not
    depend on how many objects the worker holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work(180)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
