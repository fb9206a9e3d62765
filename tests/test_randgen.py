import random

from hypothesis import assume, given, settings, strategies as st

from cantorsurj.intervals import Filtering, least_q_point_between, validate_filtering
from cantorsurj.points import Point, interval_successor, max_point, min_point
from cantorsurj.randgen import (
    derive_rng,
    increasing_q_points,
    random_filtering,
    random_q_point_between,
    random_surjection,
)
from cantorsurj.surjections import ChainSurjection


def test_derive_rng_streams():
    a = derive_rng(42, "c1")
    b = derive_rng(42, "c1")
    c = derive_rng(42, "c2")
    sa = [a.random() for _ in range(5)]
    assert sa == [b.random() for _ in range(5)]
    assert sa != [c.random() for _ in range(5)]
    # string and int seeds are distinct streams, not coerced
    assert derive_rng("42", "c1").random() == derive_rng("42", "c1").random()


@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_random_q_point_bounds(seed, base):
    rng = random.Random(seed)
    lo, hi = min_point(base), max_point(base)
    y = random_q_point_between(rng, lo, hi)
    assert y.is_q_point and lo < y < hi


@settings(max_examples=300)
@given(st.data())
def test_generated_points_equal_validated_ones(data):
    # the generators build points unvalidated; each must be the canonical
    # Point the validating constructor makes of the same digits
    b = data.draw(st.integers(2, 5))
    digits = st.lists(st.integers(0, b - 1), max_size=6).map(tuple)
    lo = Point(b, data.draw(digits), data.draw(st.integers(0, b - 1)))
    hi = Point(b, lo.stem[: data.draw(st.integers(0, len(lo.stem)))] + data.draw(digits), b - 1)
    assume(lo < hi)
    try:
        least = least_q_point_between(lo, hi)
    except ValueError:
        assume(False)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    ys = [least, random_q_point_between(rng, lo, hi), random_q_point_between(rng, lo, hi)]
    ys += [interval_successor(y) for y in ys]
    for y in ys:
        assert y == Point(b, y.stem, y.tail)
    assert all(lo < y < hi and y.is_q_point for y in ys[:3])


@given(st.integers(0, 2**32 - 1))
def test_random_q_point_between_falls_back_to_the_least_choice(seed):
    # every point strictly inside starts 1 0^13, past any draw of up to 10 digits
    lo, hi = Point(2, (0,), 1), Point(2, (1,) + (0,) * 12, 1)
    least = least_q_point_between(lo, hi)
    assert least == Point(2, (1,) + (0,) * 13, 1)
    assert random_q_point_between(random.Random(seed), lo, hi) == least


@given(st.integers(0, 2**32 - 1), st.integers(0, 8))
def test_increasing_q_points(seed, count):
    rng = random.Random(seed)
    pts = increasing_q_points(rng, min_point(2), max_point(2), count)
    assert len(pts) == count
    for a, b in zip(pts, pts[1:]):
        assert a < b
    for p in pts:
        assert p.is_q_point


@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(0, 4))
def test_random_filtering_valid(seed, base, depth):
    f = random_filtering(random.Random(seed), base, depth)
    assert f.support == depth
    assert validate_filtering(f).ok


def test_random_surjection_kinds():
    always_chain = random_surjection(random.Random(0), 2, 3, chain_prob=1.0)
    assert isinstance(always_chain, ChainSurjection)
    never_chain = random_surjection(random.Random(0), 2, 3, chain_prob=0.0)
    assert isinstance(never_chain, Filtering)


def test_generation_is_reproducible():
    f1 = random_filtering(random.Random(99), 2, 4)
    f2 = random_filtering(random.Random(99), 2, 4)
    assert f1.to_json() == f2.to_json()
