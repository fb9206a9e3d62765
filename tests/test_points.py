import functools
import json
import operator

import pytest
from hypothesis import given, strategies as st

from conftest import MALFORMED_POINTS, points, q, rank_word
from cantorsurj.points import (
    Dyadic,
    Point,
    canonical_points,
    interval_successor,
    iter_points,
    max_point,
    min_point,
    point_keys,
    word_rank,
)


def test_canonical_form():
    # a stem may not end in the tail digit; equal sequences compare equal
    assert Point(2, (0, 1), 1) == Point(2, (0,), 1)
    assert Point(2, (0, 0, 0, 1), 1) == Point(2, (0, 0, 0), 1)
    assert Point(2, (1,), 1) == max_point(2)
    assert Point(2, (0,), 0) == min_point(2)
    assert Point(3, (2, 2), 2) == max_point(3)
    assert q(0, 1).stem == (0,)


def test_digit_and_prefix():
    x = q(0, 1)
    assert x.stem == (0,)
    assert x.digit(0) == 0
    assert x.digit(7) == 1
    assert x.prefix(4) == (0, 1, 1, 1)
    assert min_point(3).prefix(3) == (0, 0, 0)


def test_predicates():
    assert Point(2, (), 0) == min_point(2) and not min_point(2).is_q_point
    assert max_point(2).is_max and not max_point(2).is_q_point
    assert q(0).is_q_point
    assert not Point(2, (1, 0), 0).is_q_point  # wrong tail


def test_bad_construction():
    with pytest.raises(ValueError):
        Point(1, (), 0)
    with pytest.raises(ValueError):
        Point(2, (2,), 1)
    with pytest.raises(ValueError):
        Point(2, (), 3)


def reference_compare(x, y):
    """Point order as a digit loop, -1, 0 or 1: the first differing digit,
    stems read past their ends as the tails, then the tails."""
    if x.base != y.base:
        raise ValueError("cannot compare points of different bases")
    a, b = x.stem, y.stem
    for i in range(max(len(a), len(b))):
        da = a[i] if i < len(a) else x.tail
        db = b[i] if i < len(b) else y.tail
        if da != db:
            return -1 if da < db else 1
    if x.tail != y.tail:
        return -1 if x.tail < y.tail else 1
    return 0


@st.composite
def point_pairs(draw):
    """Two points of one base 2-5: independent, one a prefix of the other
    with mixed tails, or equal as sequences but written with a padded stem."""
    base = draw(st.integers(2, 5))
    x = draw(points(base=base, max_stem=8))
    kind = draw(st.sampled_from(["independent", "prefix", "equal"]))
    if kind == "independent":
        y = draw(points(base=base, max_stem=8))
    elif kind == "prefix":
        cut = draw(st.integers(0, len(x.stem)))
        y = Point(base, x.stem[:cut], draw(st.integers(0, base - 1)))
    else:
        y = Point(base, x.stem + (x.tail,) * draw(st.integers(0, 3)), x.tail)
    return (x, y) if draw(st.booleans()) else (y, x)


@given(point_pairs())
def test_compare_matches_digit_loop(pair):
    x, y = pair
    c = reference_compare(x, y)
    assert (x < y, x <= y, x > y, x >= y) == (c < 0, c <= 0, c > 0, c >= 0)
    assert (y < x, y <= x, y > x, y >= x) == (c > 0, c >= 0, c < 0, c <= 0)


def test_compare_refuses_mixed_bases():
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(ValueError, match="different bases"):
            op(q(0), Point(3, (0,), 2))


def test_make_and_replace_validate_and_canonicalize():
    # namedtuple's own _make and _replace build through tuple.__new__
    p = Point(2, (1, 0), 1)
    with pytest.raises(ValueError):
        p._replace(tail=7)
    with pytest.raises(ValueError):
        Point._make([2, (1, 1), 2])
    with pytest.raises(ValueError):
        Point._make([True, (), 0])
    assert p._replace(tail=0) == Point(2, (1,), 0) and p._replace(tail=0).stem == (1,)
    assert Point._make([3, (2, 2), 2]) == Point(3, (), 2) and type(p._replace(base=3)) is Point


@given(point_pairs())
def test_a_point_hashes_as_the_tuple_of_its_fields(pair):
    # set orders, and so output bytes, rest on the hash the dataclass had
    for x in pair:
        assert hash(x) == hash((x.base, x.stem, x.tail))
        assert tuple(x) == (x.base, x.stem, x.tail)
    x, y = pair
    assert (x == y) == (reference_compare(x, y) == 0)


@given(st.integers(2, 5).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b - 1), st.lists(st.lists(st.integers(0, b - 1), max_size=8), max_size=10))))
def test_canonical_points_are_the_constructors_points(case):
    base, tail, words = case
    stems = [tuple(w) for w in words if not w or w[-1] != tail]  # canonical stems only
    got = canonical_points(base, stems, tail)
    assert got == [Point(base, s, tail) for s in stems]
    assert all(type(p) is Point for p in got)


@given(st.integers(2, 5).flatmap(lambda b: st.lists(points(base=b, max_stem=10), min_size=1, max_size=10)))
def test_min_max_and_sorted_follow_point_order(xs):
    # tuple order on (base, stem, tail) is not point order: every one of
    # <, <=, > and >= is defined on Point, and min, max and sorted read them
    key = functools.cmp_to_key(reference_compare)
    want = sorted(xs, key=key)
    assert sorted(xs) == want and sorted(xs, reverse=True) == want[::-1]
    assert reference_compare(min(xs), want[0]) == 0 and reference_compare(max(xs), want[-1]) == 0


@given(points(), points())
def test_order_matches_digit_prefix(x, y):
    assert (x < y) == (x.prefix(40) < y.prefix(40))
    assert (x == y) == (x.prefix(40) == y.prefix(40))


def reference_first_difference(x, y):
    """Point.first_difference as a digit loop: the first index where the
    digits differ, stems read past their ends as the tails, then the tails."""
    if x.base != y.base:
        raise ValueError("cannot compare points of different bases")
    a, b = x.stem, y.stem
    for i in range(max(len(a), len(b))):
        da = a[i] if i < len(a) else x.tail
        db = b[i] if i < len(b) else y.tail
        if da != db:
            return i
    if x.tail != y.tail:
        return max(len(a), len(b))
    return None


@given(point_pairs())
def test_first_difference_matches_digit_loop(pair):
    x, y = pair
    assert x.first_difference(y) == reference_first_difference(x, y)
    assert y.first_difference(x) == x.first_difference(y)


def test_first_difference_refuses_mixed_bases():
    with pytest.raises(ValueError, match="different bases"):
        q(0).first_difference(Point(3, (0,), 2))


@st.composite
def point_batches(draw):
    """Points of one base 2-5 with stems up to 12 digits and any tail, some
    repeated as equal sequences written with a padded stem."""
    base = draw(st.integers(2, 5))
    xs = draw(st.lists(points(base=base, max_stem=12), max_size=12))
    pads = draw(st.lists(st.integers(0, 3), max_size=len(xs)))
    return xs + [Point(base, x.stem + (x.tail,) * k, x.tail) for x, k in zip(xs, pads)]


@given(point_batches())
def test_point_keys_order_is_point_order(xs):
    keys = list(point_keys(xs))
    assert len(keys) == len(xs)
    for x, kx in zip(xs, keys):
        for y, ky in zip(xs, keys):
            assert (kx > ky) - (kx < ky) == reference_compare(x, y)
    assert sorted(range(len(xs)), key=keys.__getitem__) == sorted(range(len(xs)), key=xs.__getitem__)


def test_point_keys_pad_one_digit_past_the_longest_stem():
    assert list(point_keys([Point(3, (1,), 2), Point(3, (0, 1, 1), 0), min_point(3)])) == [
        (1, 2, 2, 2),
        (0, 1, 1, 0),
        (0, 0, 0, 0),
    ]
    assert list(point_keys([])) == []


@given(points(base=3, max_stem=6), points(base=3, max_stem=6))
def test_first_difference(x, y):
    n = x.first_difference(y)
    if n is None:
        assert x == y
    else:
        assert x.prefix(n) == y.prefix(n)
        assert x.digit(n) != y.digit(n)


def test_successor_golden():
    assert interval_successor(q(0, 0)) == Point(2, (0, 1), 0)
    assert interval_successor(q(0)) == Point(2, (1,), 0)
    with pytest.raises(ValueError):
        interval_successor(max_point(2))
    with pytest.raises(ValueError):
        interval_successor(min_point(2))


@given(points(base=3))
def test_successor_roundtrip(x):
    if x.tail == 2 and not x.is_max:
        y = interval_successor(x)
        assert x < y and y.tail == 0
    if x.tail == 0 and x != min_point(3):
        # onto the eventually-zero points: x succeeds its last digit lowered
        stem = x.stem
        y = Point(3, stem[:-1] + (stem[-1] - 1,), 2)
        assert y < x and interval_successor(y) == x


@given(st.integers(2, 4), st.integers(0, 5), st.data())
def test_word_rank_roundtrip(base, depth, data):
    word = tuple(data.draw(st.integers(0, base - 1)) for _ in range(depth))
    r = word_rank(word, base)
    assert 0 <= r < base**depth
    assert rank_word(r, depth, base) == word


def test_dyadic_str():
    assert str(Dyadic(True)) == "0"
    assert str(Dyadic(False, -3)) == "2^-3"


def test_iter_points_is_canonical_and_complete():
    pts = list(iter_points(2, 10))
    assert len(pts) == 2048
    assert len(set(pts)) == len(pts)
    for x in pts:
        assert not x.stem or x.stem[-1] != x.tail


def test_json_roundtrip():
    for x in (q(0, 1, 0), min_point(3), Point(3, (2, 0), 1)):
        assert Point.from_json(x.to_json()) == x
    assert Point.from_json({"b": 2, "stem": [0, 1], "tail": 1}) == q(0)
    with pytest.raises(ValueError):
        Point.from_json({"b": 2})


@pytest.mark.parametrize(
    "obj",
    [
        {"b": 2, "stem": "0101", "tail": 1},
        {"b": 2.7, "stem": [0, 1], "tail": 1},
        {"b": 2, "stem": [0, 1], "tail": True},
        {"b": 2, "stem": [0, 1.0], "tail": 1},
        {"b": 2, "stem": [0, 2], "tail": 1},
    ],
    ids=["string-stem", "float-base", "bool-tail", "float-digit", "digit-out-of-range"],
)
def test_from_json_rejects_non_integer_fields(obj):
    with pytest.raises(ValueError):
        Point.from_json(obj)


@given(st.integers(2, 5).flatmap(lambda b: st.tuples(st.just(b), st.lists(st.integers(0, b - 1), max_size=12), st.integers(0, b - 1))))
def test_from_json_builds_the_constructors_point(case):
    # stems may end in tail digits: the decoder strips them as the constructor does
    base, stem, tail = case
    got = Point.from_json({"b": base, "stem": stem, "tail": tail})
    assert got == Point(base, tuple(stem), tail) and type(got.stem) is tuple
    assert not got.stem or got.stem[-1] != tail


@pytest.mark.parametrize("text, message", [case[1:] for case in MALFORMED_POINTS], ids=[c[0] for c in MALFORMED_POINTS])
def test_from_json_fault_messages(text, message):
    with pytest.raises(ValueError) as info:
        Point.from_json(json.loads(text))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, (0, 1.5), 1), "digit 1.5 out of range for base 2"),
        ((2, (None,), 1), "digit None out of range for base 2"),
        ((3, (0, -1), 2), "digit -1 out of range for base 3"),
        ((2, [0, 1, 4], 1), "digit 4 out of range for base 2"),
        ((2, (3,), 7), "digit 7 out of range for base 2"),
        ((0, (), 3), "base must be an integer >= 2, got 0"),
        (("2", (0,), 1), "base must be an integer >= 2, got '2'"),
    ],
    ids=["float-digit", "none-digit", "negative-digit", "list-stem", "bad-tail-and-digit", "bad-base-and-tail", "string-base"],
)
def test_constructor_fault_messages(args, message):
    with pytest.raises(ValueError) as info:
        Point(*args)
    assert str(info.value) == message


def test_constructor_accepts_what_isinstance_int_accepts():
    # bools are ints to the constructor (only the JSON decoder refuses them)
    assert Point(2, (True, False), 1).stem == (True, False)
    assert Point(2, [1, 0], 0).stem == (1,)
