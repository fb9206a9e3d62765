import pytest
from hypothesis import given, strategies as st

from conftest import points, q
from cantorsurj.points import (
    Dyadic,
    Point,
    encode_binary,
    interval_successor,
    iter_points,
    max_point,
    min_point,
    rank_word,
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
    assert min_point(2).is_min and not min_point(2).is_q_point
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


@given(points(), points())
def test_order_matches_digit_prefix(x, y):
    assert (x < y) == (x.prefix(40) < y.prefix(40))
    assert (x == y) == (x.prefix(40) == y.prefix(40))


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
    if x.tail == 0 and not x.is_min:
        # onto the eventually-zero points: x succeeds its last digit lowered
        stem = x.stem
        y = Point(3, stem[:-1] + (stem[-1] - 1,), 2)
        assert y < x and interval_successor(y) == x


def test_encode_binary_goldens():
    assert encode_binary(min_point(3)) == min_point(2)
    assert encode_binary(max_point(3)) == max_point(2)
    # base-3 digits 0,1,2 become the prefix code 0, 10, 11
    assert encode_binary(Point(3, (1,), 2)) == Point(2, (1, 0), 1)
    assert encode_binary(Point(3, (2, 0), 0)) == Point(2, (1, 1, 0), 0)
    assert encode_binary(q(0, 1)) == q(0, 1)  # base 2 passes through
    with pytest.raises(ValueError):
        encode_binary(Point(3, (), 1))


@given(points(base=3, max_stem=6), points(base=3, max_stem=6))
def test_encode_binary_preserves_order(x, y):
    if x.tail in (0, 2) and y.tail in (0, 2):
        assert (x < y) == (encode_binary(x) < encode_binary(y))


@given(st.integers(2, 4), st.integers(0, 5), st.data())
def test_word_rank_roundtrip(base, depth, data):
    word = tuple(data.draw(st.integers(0, base - 1)) for _ in range(depth))
    r = word_rank(word, base)
    assert 0 <= r < base**depth
    assert rank_word(r, depth, base) == word


def test_dyadic_str():
    assert str(Dyadic.zero()) == "0"
    assert str(Dyadic.two_to(-3)) == "2^-3"


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
