"""Clopen lex-intervals of b^w, depth partitions, and filterings.

A filtering is a b-branching system of nested interval partitions: the depth-d
partition has b^d right-closed cells and each cell splits into b consecutive
children one level down.  We store finitely many levels explicitly (the
"support") and extend deeper on demand by a fixed greedy rule, so every
Filtering value denotes one fully determined infinite object.

The greedy rule, per cell [lo, hi]: the next division point is the q-point
(eventually-max point) strictly between the previous pick and hi that has the
shortest stem, ties broken lexicographically.  The rule is deterministic and
reproduces the standard cylinder partition when started from the whole space.
Each pick is in closed form (least_q_point_between), and so are a cell's
b-1 picks together, from the one first digit where lo and hi differ
(canonical_split_maxima).  A greedy level is built in one pass over the
level above, carrying each cell minimum as a stem (Filtering.boundary_tuple).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .points import (
    Node,
    Point,
    interval_successor,
    json_int,
    max_point,
    min_point,
    rank_word,
    word_rank,
)

__all__ = [
    "ClopenInterval",
    "DepthPartition",
    "Filtering",
    "FilteringReport",
    "partition_from_tuple",
    "validate_filtering",
    "least_q_point_between",
    "canonical_split_maxima",
    "MATERIALIZE_LIMIT",
]

# boundary_tuple(d) materializes b^d - 1 points; refuse silly depths
MATERIALIZE_LIMIT = 1 << 21


@dataclass(frozen=True, slots=True)
class ClopenInterval:
    """[lo, hi] with lo eventually 0 and hi eventually b-1.

    Every nonempty clopen lex-interval of b^w has endpoints of exactly this
    shape, and conversely every such pair with lo < hi describes one.
    """

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if self.lo.base != self.hi.base:
            raise ValueError("interval endpoints must share a base")
        if self.lo.tail != 0:
            raise ValueError(f"interval minimum must be eventually 0, got {self.lo}")
        if self.hi.tail != self.hi.base - 1:
            raise ValueError(f"interval maximum must be eventually max-digit, got {self.hi}")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: {self.lo} >= {self.hi}")

    @property
    def base(self) -> int:
        return self.lo.base

    @classmethod
    def whole(cls, base: int) -> "ClopenInterval":
        return cls(min_point(base), max_point(base))

    @classmethod
    def of_node(cls, s: Node) -> "ClopenInterval":
        return cls(s.min_point(), s.max_point())

    def contains(self, x: Point) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "ClopenInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "ClopenInterval") -> "ClopenInterval | None":
        lo = self.lo if other.lo < self.lo else other.lo
        hi = self.hi if self.hi < other.hi else other.hi
        return ClopenInterval(lo, hi) if lo < hi else None

    def to_json(self) -> dict:
        return {"lo": self.lo.to_json(), "hi": self.hi.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "ClopenInterval":
        return cls(Point.from_json(obj["lo"]), Point.from_json(obj["hi"]))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class DepthPartition:
    """The b^k consecutive cells of one depth of a filtering."""

    __slots__ = ("base", "depth", "cells", "_maxima")

    def __init__(self, base: int, depth: int, cells: tuple[ClopenInterval, ...]):
        if len(cells) != base**depth:
            raise ValueError(f"depth-{depth} partition needs {base**depth} cells, got {len(cells)}")
        self.base = base
        self.depth = depth
        self.cells = cells
        self._maxima = [c.hi for c in cells]

    def index(self, x: Point) -> int:
        """Cell containing x under the right-closed convention."""
        if x.base != self.base:
            raise ValueError("base mismatch")
        return bisect_left(self._maxima, x)

    def boundary_tuple(self) -> tuple[Point, ...]:
        return tuple(self._maxima[:-1])

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True, slots=True)
class FilteringReport:
    ok: bool
    clause: str = ""
    path: tuple[int, ...] = ()
    message: str = ""


def validate_level(base: int, depth: int, entries: tuple[Point, ...]) -> FilteringReport:
    """Check one depth-`depth` boundary tuple on its own: entry count,
    entries interior eventually-max points of this base, strict increase.

    The single boundary-level check behind BoundaryTuple,
    partition_from_tuple and validate_filtering.
    """
    want = base**depth - 1
    if len(entries) != want:
        return FilteringReport(
            False, "length", (depth,), f"depth {depth} has {len(entries)} entries, needs {want}"
        )
    for i, y in enumerate(entries):
        if y.base != base:
            return FilteringReport(False, "entry", (depth, i), f"entry {i} base {y.base} != {base}")
        if not y.is_q_point:
            return FilteringReport(
                False, "entry", (depth, i), f"entry {y} not an interior eventually-max point"
            )
        if i > 0 and not entries[i - 1] < y:
            return FilteringReport(
                False, "increasing", (depth, i), f"entries {i - 1},{i} out of order at depth {depth}"
            )
    return FilteringReport(True)


def partition_from_tuple(base: int, depth: int, entries: tuple[Point, ...]) -> DepthPartition:
    """Cells of the unique consecutive-interval partition with these maxima."""
    report = validate_level(base, depth, entries)
    if not report.ok:
        raise ValueError(report.message)
    cells = []
    lo = min_point(base)
    for y in entries:
        cells.append(ClopenInterval(lo, y))
        lo = interval_successor(y)
    cells.append(ClopenInterval(lo, max_point(base)))
    return DepthPartition(base, depth, tuple(cells))


def child_bounds(
    splits: tuple[Point, ...], lo: Point, hi: Point, digit: int
) -> tuple[Point, Point]:
    """Ends of child `digit` of the cell [lo, hi] whose division points are
    `splits` (the b-1 maxima of all children but the last)."""
    return (
        lo if digit == 0 else interval_successor(splits[digit - 1]),
        splits[digit] if digit < len(splits) else hi,
    )


def cell_chain(tree, x: Point):
    """The cells containing x, one level down at a time.

    `tree` is anything with `base` and `child_maxima(word)`: a Filtering or
    a Surjection.  Yields (word, lo, hi) for depths 1, 2, ... without end;
    the child is found by bisecting the parent's division points, so under
    the right-closed convention a division point stays in the lower cell.
    """
    word: tuple[int, ...] = ()
    lo, hi = min_point(tree.base), max_point(tree.base)
    while True:
        splits = tree.child_maxima(word)
        i = bisect_left(splits, x)
        lo, hi = child_bounds(splits, lo, hi, i)
        word += (i,)
        yield word, lo, hi


def least_q_point_between(lower: Point, hi: Point) -> Point:
    """The (stem-length, then lex)-least eventually-max point strictly
    between lower and hi, built from their first differing digit.

    With n that index, c the common prefix, l < h the digits there and
    top = b-1: every point between lies in the cylinder c, whose one q-point
    of stem length <= n is c top^w >= hi, so no stem shorter than n+1 fits.
    Of length n+1 the least fit is c l top^w unless that is lower, else
    c (l+1) top^w when l+1 < h.  Otherwise lower = c l top^w, h = l+1, and
    every point between lies in the cylinder c h below hi: with m > n the
    first index where hi has a nonzero digit, the least is c h 0^(m-n) top^w.
    No such m exists exactly for a successor pair (hi the eventually-zero
    successor of lower), the one empty open interval with lower < hi.
    """
    n = lower.first_difference(hi)
    if n is None or lower.digit(n) > hi.digit(n):
        raise ValueError(f"empty open interval ({lower}, {hi})")
    b, top = lower.base, lower.base - 1
    c, l, h = lower.prefix(n), lower.digit(n), hi.digit(n)
    if lower.tail != top or len(lower.stem) > n + 1:
        return Point(b, c + (l,), top)
    if l + 1 < h:
        return Point(b, c + (l + 1,), top)
    if hi.tail == 0 and not any(hi.stem[n + 1 :]):
        raise ValueError(f"empty open interval ({lower}, {hi}): successor pair")
    m = next(i for i in range(n + 1, n + 2 + len(hi.stem)) if hi.digit(i))
    return Point(b, c + (h,) + (0,) * (m - n), top)


def canonical_split_maxima(cell: ClopenInterval) -> tuple[Point, ...]:
    """The b-1 greedy division points of a cell, in closed form.

    Pick p is least_q_point_between(pick p-1, hi), with pick -1 the cell
    minimum lo.  With n the first index where lo and hi differ, pick 0 is
    hi[:n] lo[n] top^w (that function's first case: lo is eventually 0).
    Every pick has the shape hi[:n] l top^w with l < hi[n], so its first
    difference with hi is n and its stem has length <= n+1; the next pick is
    the second case, hi[:n] (l+1) top^w, when l+1 < hi[n], else the third,
    hi[:m] 0 top^w with m > n the next index where hi has a nonzero digit:
    the same shape with (n, l) = (m, 0).  hi is eventually top >= 1, so m
    exists and no successor pair arises.
    """
    return _greedy_picks(cell.base, cell.lo.stem, cell.hi)


def _greedy_picks(b: int, lo: tuple[int, ...], hi: Point) -> tuple[Point, ...]:
    """canonical_split_maxima of the cell [lo 0^w, hi], given lo's stem."""
    top = b - 1
    if hi.tail != top:
        raise ValueError(f"interval maximum must be eventually max-digit, got {hi}")
    n = 0
    while (lo[n] if n < len(lo) else 0) == hi.digit(n):
        n += 1
    l, h = (lo[n] if n < len(lo) else 0), hi.digit(n)
    if l > h:
        raise ValueError(f"empty interval: {Point(b, lo, 0)} >= {hi}")
    picks = [Point(b, hi.prefix(n) + (l,), top)]
    while len(picks) < top:
        if l + 1 < h:
            l += 1
        else:
            n += 1
            while not hi.digit(n):
                n += 1
            l, h = 0, hi.digit(n)
        picks.append(Point(b, hi.prefix(n) + (l,), top))
    return tuple(picks)


class Filtering:
    """Explicit boundary levels for depths 1..support, greedy rule beyond.

    levels[j] holds the depth-(j+1) boundary tuple: the b^(j+1) - 1 cell
    maxima except the global maximum.  Instances are immutable in value;
    three memo tables (cells and child maxima by word, greedy levels by
    depth) only cache the deterministic extension, so sharing across
    threads is safe and extension is idempotent.
    """

    __slots__ = ("base", "levels", "_cell_memo", "_word_splits", "_level_memo")

    def __init__(self, base: int, levels: tuple[tuple[Point, ...], ...] = ()):
        self.base = base
        self.levels = tuple(tuple(level) for level in levels)
        self._cell_memo: dict[tuple[int, ...], ClopenInterval] = {}
        self._word_splits: dict[tuple[int, ...], tuple[Point, ...]] = {}
        self._level_memo: dict[int, tuple[Point, ...]] = {}

    @property
    def support(self) -> int:
        return len(self.levels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Filtering):
            return NotImplemented
        return self.base == other.base and self.levels == other.levels

    def __hash__(self) -> int:
        return hash((self.base, self.levels))

    def __repr__(self) -> str:
        return f"Filtering(b={self.base}, support={self.support})"

    # -- cells ---------------------------------------------------------

    def cell(self, word: tuple[int, ...]) -> ClopenInterval:
        """The depth-len(word) cell at this word's lex position."""
        if not word:
            return ClopenInterval.whole(self.base)
        got = self._cell_memo.get(word)
        if got is None:
            parent = self.cell(word[:-1])
            splits = self.child_maxima(word[:-1])
            got = ClopenInterval(*child_bounds(splits, parent.lo, parent.hi, word[-1]))
            self._cell_memo[word] = got
        return got

    def child_maxima(self, word: tuple[int, ...]) -> tuple[Point, ...]:
        """The b-1 division points of cell(word) one level down."""
        d = len(word)
        if d < self.support:
            level = self.levels[d]
            r = word_rank(word, self.base)
            return level[r * self.base : r * self.base + self.base - 1]
        got = self._word_splits.get(word)
        if got is None:
            got = canonical_split_maxima(self.cell(word))
            self._word_splits[word] = got
        return got

    # -- boundary tuples -----------------------------------------------

    def boundary_entry(self, depth: int, index: int) -> Point:
        """Entry of the depth-d boundary tuple without materializing it."""
        if not 1 <= depth:
            raise ValueError("boundary tuples exist for depth >= 1")
        if not 0 <= index < self.base**depth - 1:
            raise ValueError(f"index {index} out of range at depth {depth}")
        if depth <= self.support:
            return self.levels[depth - 1][index]
        r, p = divmod(index, self.base)
        if p == self.base - 1:
            # position b*r + b-1 carries the depth-(d-1) maximum unchanged
            return self.boundary_entry(depth - 1, r)
        return self.child_maxima(rank_word(r, depth - 1, self.base))[p]

    def boundary_tuple(self, depth: int) -> tuple[Point, ...]:
        if depth < 0:
            raise ValueError(f"depth must be nonnegative, got {depth}")
        count = self.base**depth - 1
        if count > MATERIALIZE_LIMIT:
            raise ValueError(f"depth {depth} boundary tuple has {count} entries; over limit")
        if depth == 0:
            return ()
        if depth <= self.support:
            return self.levels[depth - 1]
        got = self._level_memo.get(depth)
        if got is None:
            # one pass: the next cell's minimum is carried as the stem of
            # interval_successor(previous maximum), tail 0
            b, out, lo = self.base, [], ()
            for hi in self.boundary_tuple(depth - 1):
                out += _greedy_picks(b, lo, hi)
                out.append(hi)
                if not hi.stem:
                    raise ValueError("the top point has no successor")
                lo = hi.stem[:-1] + (hi.stem[-1] + 1,)
            out += _greedy_picks(b, lo, max_point(b))
            got = self._level_memo[depth] = tuple(out)
        return got

    def extend(self, depth: int) -> "Filtering":
        """A filtering equal to this one with support at least `depth`."""
        if depth <= self.support:
            return self
        new = tuple(self.boundary_tuple(d) for d in range(self.support + 1, depth + 1))
        return Filtering(self.base, self.levels + new)

    def partition(self, depth: int) -> DepthPartition:
        return partition_from_tuple(self.base, depth, self.boundary_tuple(depth))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "b": self.base,
            "depth": self.support,
            "boundaries": [[p.to_json() for p in level] for level in self.levels],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Filtering":
        try:
            base = json_int(obj["b"], "filtering b")
            raw = obj["boundaries"]
            if not isinstance(raw, list) or not all(isinstance(level, list) for level in raw):
                raise ValueError("filtering boundaries: expected a list of lists of points")
            depth = json_int(obj.get("depth", len(raw)), "filtering depth")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed filtering object: {exc}") from exc
        if depth != len(raw):
            raise ValueError(f"declared depth {depth} but {len(raw)} boundary levels")
        levels = tuple(tuple(Point.from_json(p) for p in level) for level in raw)
        f = cls(base, levels)
        report = validate_filtering(f)
        if not report.ok:
            raise ValueError(f"invalid filtering: {report.message}")
        return f


def validate_filtering(f: Filtering) -> FilteringReport:
    """Check the stored levels form nested proper partitions.

    Verified per level: validate_level (entry count, entries interior
    eventually-max points, strict increase), and that each level subsamples
    to the one above.  The cell intervals themselves are derived data, so
    these four checks pin the whole structure.
    """
    b = f.base
    for j, level in enumerate(f.levels):
        depth = j + 1
        report = validate_level(b, depth, level)
        if not report.ok:
            return report
        if j > 0:
            above = f.levels[j - 1]
            for i, y in enumerate(above):
                if level[b * i + b - 1] != y:
                    return FilteringReport(
                        False,
                        "nesting",
                        (depth, b * i + b - 1),
                        f"depth-{depth} tuple does not carry depth-{j} maximum {i}",
                    )
    return FilteringReport(True)
