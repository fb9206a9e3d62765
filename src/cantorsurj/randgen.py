"""Seeded generators for points, filterings, and surjections.

Every generator takes an explicit random.Random and never touches global
state.  Suites derive one child stream per case label so adding draws to
one case cannot shift any other case's data.
"""

from __future__ import annotations

import random

from .intervals import Filtering, Surjection, least_q_point_between
from .points import Point, _strip, canonical_point, interval_successor, max_point, min_point
from .surjections import ChainSurjection, from_filtering

__all__ = [
    "derive_rng",
    "random_q_point_between",
    "increasing_q_points",
    "random_filtering",
    "random_surjection",
]


def derive_rng(seed: int | str, label: str) -> random.Random:
    """Child stream for one suite case.  String seeding hashes the text with
    sha512 under the hood, so streams are stable across runs and machines."""
    return random.Random(f"{seed}/{label}")


def random_q_point_between(rng: random.Random, lo: Point, hi: Point) -> Point:
    """A random eventually-max point strictly between lo and hi.

    Rejection sampling, 48 draws, on random stem suffixes of up to 10
    digits under the shared prefix; falls back to the deterministic least
    choice, which always exists since such points are dense in every
    nondegenerate interval.  A candidate's digits are lo's or drawn below
    b, so it is built unvalidated.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo} and {hi}")
    b = lo.base
    d = lo.first_difference(hi)
    common = list(lo.prefix(d))
    for _ in range(48):
        c = rng.randint(lo.digit(d), hi.digit(d))
        extra = [rng.randrange(b) for _ in range(rng.randint(0, 10))]
        q = canonical_point(b, _strip(tuple(common + [c] + extra), b - 1), b - 1)
        if q.is_q_point and lo < q < hi:
            return q
    return least_q_point_between(lo, hi)


def increasing_q_points(
    rng: random.Random, lo: Point, hi: Point, count: int
) -> list[Point]:
    """count strictly increasing points strictly inside (lo, hi), picked by
    recursive bisection so every gap keeps room for its share."""
    if count == 0:
        return []
    mid = count // 2
    y = random_q_point_between(rng, lo, hi)
    return (
        increasing_q_points(rng, lo, y, mid)
        + [y]
        + increasing_q_points(rng, y, hi, count - mid - 1)
    )


def random_filtering(rng: random.Random, base: int, depth: int) -> Filtering:
    """A random filtering with support exactly `depth`, built level by
    level: each cell gets b-1 fresh strictly interior split maxima, and the
    nesting entries are copied from the parent level.  A cell's ends are
    read off the level above: the successor of the previous maximum (or the
    bottom point) and its own maximum (or the top point)."""
    levels: list[tuple[Point, ...]] = []
    above: tuple[Point, ...] = ()
    for _ in range(depth):
        entries: list[Point] = []
        lo = min_point(base)
        for hi in above:
            entries.extend(increasing_q_points(rng, lo, hi, base - 1))
            entries.append(hi)
            lo = interval_successor(hi)
        entries.extend(increasing_q_points(rng, lo, max_point(base), base - 1))
        above = tuple(entries)
        levels.append(above)
    return Filtering(base, tuple(levels))


def random_surjection(
    rng: random.Random,
    base: int,
    depth: int,
    chain_prob: float = 0.0,
) -> Surjection:
    """A random surjection: a filtering of support <= depth, or with
    probability chain_prob a lazy composition of two shallower ones."""
    if chain_prob > 0 and rng.random() < chain_prob:
        outer = from_filtering(random_filtering(rng, base, rng.randint(0, max(1, depth - 1))))
        inner = from_filtering(random_filtering(rng, base, rng.randint(0, max(1, depth - 1))))
        return ChainSurjection(outer, inner)
    return from_filtering(random_filtering(rng, base, rng.randint(0, depth)))
