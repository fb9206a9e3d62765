"""Exact points of the digit space b^w.

Only eventually constant sequences are first-class values here: a point is a
finite stem over {0, ..., b-1} followed by a single digit repeated forever.
Every boundary object downstream (interval endpoints, partition maxima,
fingerprints) lives in this set, so order and equality must be exact; no
floats appear anywhere in this module.

Canonical form: the stem never ends with the tail digit.  With that
normalization, structural equality of (stem, tail) coincides with equality
as infinite sequences.

A Point is the tuple (base, stem, tail), so building, equality and hashing
run in C; only lex order is Python, all four comparisons on one padding of
the stems.  The validating constructor and decoders check digits in C-level
passes, a level of point objects at once in points_from_json, and word a
fault point by point; canonical_point(s) build the cell walks' points, which
are canonical by construction, with no check at all.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, count, product, repeat
from operator import eq, itemgetter, ne

__all__ = [
    "Point",
    "Dyadic",
    "min_point",
    "max_point",
    "interval_successor",
    "iter_points",
    "point_keys",
    "points_from_json",
    "word_rank",
]


def _check_base(base: int) -> None:
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")


def _check_digit(d: int, base: int) -> None:
    if not isinstance(d, int) or not 0 <= d < base:
        raise ValueError(f"digit {d!r} out of range for base {base}")


def _strip(word: tuple[int, ...], digit: int) -> tuple[int, ...]:
    """The stem of word digit^w: word without its trailing `digit`s."""
    k = len(word)
    while k and word[k - 1] == digit:
        k -= 1
    return word[:k]


_new = tuple.__new__


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer: an int, not a bool or a float."""
    if type(value) is not int:
        raise ValueError(f"{what}: expected an integer, got {value!r}")
    return value


class Point(namedtuple("Point", "base stem tail")):
    """An eventually constant sequence over {0, ..., base-1}: the tuple
    (base, stem, tail), so it is built, compared for equality and hashed in C.

    The constructor canonicalizes: trailing stem digits equal to the tail
    are stripped, so two Points are equal iff they denote the same sequence.
    Digits are checked in C-level passes; a fault is worded digit by digit.
    Order is lex order on the sequences, all four of <, <=, > and >= defined
    here: tuple order on (base, stem, tail) is not point order.
    """

    __slots__ = ()

    def __new__(cls, base: int, stem: tuple[int, ...] = (), tail: int = 0) -> "Point":
        # the checkers only run to word a fault, in the order base, tail, stem
        if not (isinstance(base, int) and base >= 2 and isinstance(tail, int) and 0 <= tail < base):
            _check_base(base)
            _check_digit(tail, base)
        stem = tuple(stem)
        # one C-level pass for the type; the range is read off the distinct digits
        if stem and not (all(map(isinstance, stem, repeat(int))) and min(ds := set(stem)) >= 0 and max(ds) < base):
            for d in stem:
                _check_digit(d, base)
        return _new(cls, (base, _strip(stem, tail), tail))

    @classmethod
    def _make(cls, iterable) -> "Point":
        """Point(*iterable): namedtuple's own _make, which _replace calls,
        would build through tuple.__new__ and skip the checks."""
        return cls(*iterable)

    def digit(self, n: int) -> int:
        return self.stem[n] if n < len(self.stem) else self.tail

    def prefix(self, n: int) -> tuple[int, ...]:
        """First n digits, tail included."""
        if n <= len(self.stem):
            return self.stem[:n]
        return self.stem + (self.tail,) * (n - len(self.stem))

    @property
    def is_max(self) -> bool:
        return not self.stem and self.tail == self.base - 1

    @property
    def is_q_point(self) -> bool:
        """In the canonical countable dense set: eventually max-digit, not the top.

        These points are exactly the maxima of nontrivial lower clopen sets;
        ordered lexicographically they form a copy of the rationals.
        """
        return self.tail == self.base - 1 and bool(self.stem)

    def _padded(self, other: "Point") -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Both stems padded with their tails one digit past the longer stem,
        in tuple order as the points are, first differing where they do."""
        if self.base != other.base:
            raise ValueError("cannot compare points of different bases")
        a, b = self.stem, other.stem
        n = max(len(a), len(b)) + 1
        return a + (self.tail,) * (n - len(a)), b + (other.tail,) * (n - len(b))

    def first_difference(self, other: "Point") -> int | None:
        """Index of the first differing digit, or None when equal: the first
        index where the padded stems differ, found in C-level passes."""
        return next(compress(count(), map(ne, *self._padded(other))), None)

    def __lt__(self, other: "Point") -> bool:
        a, b = self._padded(other)
        return a < b

    def __le__(self, other: "Point") -> bool:
        a, b = self._padded(other)
        return a <= b

    def __gt__(self, other: "Point") -> bool:
        a, b = self._padded(other)
        return a > b

    def __ge__(self, other: "Point") -> bool:
        a, b = self._padded(other)
        return a >= b

    def to_json(self) -> dict:
        return {"b": self.base, "stem": list(self.stem), "tail": self.tail}

    @classmethod
    def from_json(cls, obj: dict) -> "Point":
        """Strict decoder: `b`, `tail` and every stem digit must be JSON
        integers (not booleans or floats) and `stem` a list."""
        try:
            base, stem, tail = obj["b"], obj["stem"], obj["tail"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed point object: {obj!r}") from exc
        if not isinstance(stem, list):
            raise ValueError(f"malformed point object: {obj!r}")
        # one C-level pass a property (JSON int, range); the checks below word a fault
        if type(base) is type(tail) is int and 0 <= tail < base and base >= 2 and set(map(type, stem)) <= {int}:
            if not stem or (min(stem) >= 0 and max(stem) < base):
                return canonical_point(base, _strip(tuple(stem), tail), tail)
        what = "malformed point object"
        return cls(json_int(base, what), tuple(json_int(d, what) for d in stem), json_int(tail, what))

    def __str__(self) -> str:
        stem = "".join(map(str, self.stem)) or "^"
        return f"{stem}({self.tail})w"

    def __repr__(self) -> str:
        return f"Point(b={self.base}, stem={''.join(map(str, self.stem))!r}, tail={self.tail})"


_fields, _last = itemgetter("b", "stem", "tail"), itemgetter(-1)


def points_from_json(objs: list) -> tuple[Point, ...]:
    """tuple(map(Point.from_json, objs)) in C-level passes, for a list of
    point objects of one base: one itemgetter pass, one type check over
    every base, tail and stem digit (`type(...) is int`, which refuses
    bools), range checks by min and max, and one canonical-stem check, past
    which the stems are stripped.  Any doubt (a fault, or mixed bases)
    decodes point by point, which words the first fault as Point.from_json
    does, and so does a list of fewer than four objects, where the passes
    cost more than they save."""
    if len(objs) < 4:
        return tuple(map(Point.from_json, objs))
    try:
        bases, stems, tails = zip(*map(_fields, objs))
    except (KeyError, TypeError):
        return tuple(map(Point.from_json, objs))
    base = bases[0]
    if (
        set(map(type, stems)) <= {list}
        and set(map(type, chain(bases, tails, chain.from_iterable(stems)))) == {int}
        and len(set(bases)) == 1 and base >= 2 and min(tails) >= 0 and max(tails) < base
        and (not (ds := set(chain.from_iterable(stems))) or (min(ds) >= 0 and max(ds) < base))
    ):
        words = map(tuple, stems)
        # canonical as written unless some stem is empty or ends in its tail digit
        if not all(stems) or any(map(eq, map(_last, stems), tails)):
            words = map(_strip, words, tails)
        return tuple(map(_new, repeat(Point), zip(bases, words, tails)))
    return tuple(map(Point.from_json, objs))


def canonical_point(base: int, stem: tuple[int, ...], tail: int) -> Point:
    """Point(base, stem, tail) without validation, for the cell walks.

    Precondition: tail < base and stem is a tuple of digits below the base
    that does not end in the tail digit, so the Point is canonical as built;
    a pick stem c + (l,) with l < top is one, and so is the word of the
    shallowest cell a point of that tail is an end of.  Not exported:
    decoders and public constructors validate.
    """
    return _new(Point, (base, stem, tail))


def canonical_points(base: int, stems: list[tuple[int, ...]], tail: int) -> list[Point]:
    """[canonical_point(base, s, tail) for s in stems] in one C-level pass,
    no Python call per point."""
    return list(map(_new, repeat(Point), zip(repeat(base), stems, repeat(tail))))


def point_keys(points):
    """One key per point of a sequence of one base, in order and made
    lazily: its stem padded with its tail one digit past the longest stem,
    the padding the comparisons use, so tuple order on the keys is point order."""
    n = max([len(p.stem) for p in points], default=0) + 1
    return (p.stem + (p.tail,) * (n - len(p.stem)) for p in points)


# Points are immutable, so the ends of the space are built once per base:
# every cell descent starts from them
@cache
def min_point(base: int) -> Point:
    return Point(base, (), 0)


@cache
def max_point(base: int) -> Point:
    return Point(base, (), base - 1)


def _successor_stem(stem: tuple[int, ...]) -> tuple[int, ...]:
    """Stem of interval_successor(stem top^w), whose tail is 0."""
    if not stem:
        raise ValueError("the top point has no successor")
    return stem[:-1] + (stem[-1] + 1,)


def interval_successor(x: Point) -> Point:
    """The immediate lexicographic successor of an eventually-max point.

    No sequence lies strictly between x = w d (b-1)^w and w (d+1) 0^w, which
    is what makes consecutive right-closed cells partition cleanly.  As
    d < b-1 in canonical x, the successor is canonical as built.
    """
    if x.tail != x.base - 1:
        raise ValueError(f"successor is defined for eventually-max points, got {x}")
    return canonical_point(x.base, _successor_stem(x.stem), 0)


@dataclass(frozen=True, slots=True)
class Dyadic:
    """A distance token: zero or an exact power of two.  Never a float."""

    is_zero: bool
    exp: int = 0

    def __str__(self) -> str:
        return "0" if self.is_zero else f"2^{self.exp}"


def iter_points(base: int, max_stem: int):
    """All canonical points with stem length <= max_stem and tail 0 or b-1,
    in (tail-block, stem length, lex) order.  Deterministic."""
    _check_base(base)
    for tail in (0, base - 1):
        yield Point(base, (), tail)
        for length in range(1, max_stem + 1):
            for head in product(range(base), repeat=length - 1):
                for last in range(base):
                    if last != tail:
                        yield Point(base, head + (last,), tail)


def word_rank(word: tuple[int, ...], base: int) -> int:
    """Position of a length-d word among all length-d words in lex order."""
    r = 0
    for d in word:
        r = r * base + d
    return r

