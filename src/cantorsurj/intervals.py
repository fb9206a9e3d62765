"""Clopen lex-intervals of b^w, the Surjection interface, and filterings.

A Surjection (a continuous nondecreasing surjection of b^w) is given by its
system of cell preimages, and gives two primitives: cell_maxima(words) and
a whole level (_level); fingerprints, boundary tuples and evaluation are
derived from them here, the rest in surjections.  A filtering is one such
representation: a b-branching system of nested interval partitions, whose
depth-d partition has b^d right-closed cells and each cell splits into b
consecutive children one level down.  We store finitely many levels
explicitly (the "support") and extend deeper on demand by a fixed greedy
rule, so every Filtering value denotes one fully determined infinite
object, the surjection whose preimage cells these are.

The greedy rule, per cell [lo, hi]: the next division point is the q-point
(eventually-max point) strictly between the previous pick and hi that has the
shortest stem, ties broken lexicographically.  The rule is deterministic and
reproduces the standard cylinder partition when started from the whole space.
Each pick is in closed form (least_q_point_between), and so are a cell's
b-1 picks together, read as stems from the one first digit where lo and hi
differ (_pick_stems, the one greedy-split implementation).  A greedy level
is built in one pass over the level above, carrying each cell minimum as a
stem and splitting a full cylinder in closed form (Filtering._level),
and kept in a filtering's one list of known levels, beside the stored ones.
Cells read one at a time take a stateless walk on end stems instead, one
walk per batch and two walks in all: Filtering._cell_ends, the word walk,
descends for many words at once from the deepest known level, splitting
each cell they share once, and its maxima are kept in the cell memo by
word; and point_words, the point walk, finds for many ascending points at
once the shallowest cell each is an end of, or its cell at a depth limit
(evaluation and factor images).  Below a full cylinder both
walks are in closed form.  No cell is a ClopenInterval:
the depth-d partition is its boundary tuple.  A pick stem c + (l,) has
l < top, so it is canonical as it stands and its point skips validation
(points.canonical_point(s), one tuple built in C per point); decoders and
public constructors validate, Filtering.from_json a whole level in C-level
passes (points.points_from_json).  So does BoundaryTuple (validate_level,
C-level passes over point_keys); trusted_tuple skips that only where a
lemma gives validity, named at each of its three calls: a valid map's own
fingerprint (Surjection.boundary_tuple), the images of a batch of valid tuples
(surjections.tuple_to_factors: increasing cell maxima have increasing
images), and a scan witness, an increasing sub-tuple of a fingerprint
(experiments.realize_all_colors).  Every from_json and the CLI decode
through the validating constructors.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import pairwise, starmap
from operator import attrgetter, lt

from .points import (
    Point, _strip, _successor_stem, canonical_point, canonical_points, json_int, max_point, min_point,
    point_keys, points_from_json, word_rank,
)

__all__ = [
    "ClopenInterval",
    "Surjection",
    "Filtering",
    "FilteringReport",
    "BoundaryTuple",
    "Evaluation",
    "validate_filtering",
    "least_q_point_between",
    "MATERIALIZE_LIMIT",
]

# fingerprint(d) materializes b^d - 1 points; refuse silly depths
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


@dataclass(frozen=True, slots=True)
class FilteringReport:
    ok: bool
    message: str = ""


_VALID = FilteringReport(True)
_base_tail, _stem, _tail = attrgetter("base", "tail"), attrgetter("stem"), attrgetter("tail")


def validate_level(base: int, depth: int, entries: tuple[Point, ...]) -> FilteringReport:
    """Check one depth-`depth` boundary tuple on its own: entry count,
    entries interior eventually-max points of this base, strict increase.

    The single boundary-level check behind BoundaryTuple and
    validate_filtering.  A depth past Surjection.fingerprint's bound is
    refused before the power is computed.  Each check is one C-level
    pass, the order on point_keys; only a short or failing level is
    walked entry by entry, which also words the first fault.
    """
    if depth >= MATERIALIZE_LIMIT.bit_length():
        msg = f"depth {depth} has {len(entries)} entries, needs more than {MATERIALIZE_LIMIT}; over limit"
        return FilteringReport(False, msg)
    want = base**depth - 1
    if len(entries) != want:
        return FilteringReport(False, f"depth {depth} has {len(entries)} entries, needs {want}")
    # one C-level pass per check (base and tail, stem, order), which pays
    # from four entries on; the loop checks shorter levels and words a fault
    if len(entries) > 3 and (
        set(map(_base_tail, entries)) <= {(base, base - 1)}
        and all(map(_stem, entries))
        and all(starmap(lt, pairwise(point_keys(entries))))
    ):
        return _VALID
    for i, y in enumerate(entries):
        if y.base != base:
            return FilteringReport(False, f"entry {i} base {y.base} != {base}")
        if not y.is_q_point:
            return FilteringReport(False, f"entry {y} not an interior eventually-max point")
        if i > 0 and not entries[i - 1] < y:
            return FilteringReport(False, f"entries {i - 1},{i} out of order at depth {depth}")
    return _VALID


@dataclass(frozen=True, slots=True)
class Evaluation:
    """A digit prefix of an image point, with the exact point when known.

    exact is set as soon as the argument hits a cell endpoint: from there on
    the remaining digits are forced (all max after a maximum hit, all zero
    after a minimum hit).
    """

    digits: tuple[int, ...]
    exact: Point | None


@dataclass(frozen=True, slots=True)
class BoundaryTuple:
    """Depth-k fingerprint: the strictly increasing cell maxima, minus the top.

    The constructor validates (validate_level); to_json writes one, and no
    decoder reads one back.  trusted_tuple skips validation for a map's own
    fingerprint (boundary_tuple), the images in tuple_to_factors' batch and
    scan witnesses in realize_all_colors (increasing sub-tuples of a
    fingerprint), as the module docstring argues.
    """

    base: int
    depth: int
    entries: tuple[Point, ...]

    def __post_init__(self) -> None:
        report = validate_level(self.base, self.depth, self.entries)
        if not report.ok:
            raise ValueError(report.message)

    def to_json(self) -> dict:
        return {"b": self.base, "depth": self.depth, "entries": [p.to_json() for p in self.entries]}


_set_b, _set_depth, _set_entries = (
    BoundaryTuple.base.__set__, BoundaryTuple.depth.__set__, BoundaryTuple.entries.__set__
)


def trusted_tuple(base: int, depth: int, entries: tuple[Point, ...]) -> BoundaryTuple:
    """BoundaryTuple(base, depth, entries) without validation, where a
    lemma gives b^depth - 1 strictly increasing interior q-points of the
    base: Surjection.boundary_tuple, surjections.tuple_to_factors and
    experiments.realize_all_colors.  Not exported: decoders validate."""
    t = object.__new__(BoundaryTuple)
    _set_b(t, base)
    _set_depth(t, depth)
    _set_entries(t, entries)
    return t


class Surjection(ABC):
    __slots__ = ()
    base: int
    support: int  # every cell at this depth or deeper splits greedily

    @abstractmethod
    def cell_maxima(self, words) -> dict[tuple[int, ...], Point]:
        """Maximum of the preimage cell at each word, of any length: the
        depth-len(word) boundary entry at word's rank, or the top point."""

    @abstractmethod
    def _level(self, depth: int) -> tuple[Point, ...]:
        """The whole depth-`depth` boundary tuple; fingerprint checks depth."""

    @abstractmethod
    def least_support(self) -> int:
        """A depth, at most support, from which the greedy rule alone makes
        every level: two maps whose levels agree down to it agree at every
        depth (distance)."""

    @property
    def maps(self) -> tuple[Surjection, ...]:
        """The leaf maps this map composes, outer first: itself alone, but
        for a chain (surjections.ChainSurjection)."""
        return (self,)

    # -- derived cell geometry -----------------------------------------

    def fingerprint(self, depth: int) -> tuple[Point, ...]:
        """All cell maxima down to `depth`, sorted, without the top point.

        By nesting this is also the max-set to that depth: level d's tuple
        contains every shallower tuple as a subsequence.  A negative depth
        is refused, and one whose b^depth - 1 entries pass MATERIALIZE_LIMIT:
        from the limit's bit length on, without computing the power.
        """
        if depth < 0:
            raise ValueError(f"depth must be nonnegative, got {depth}")
        if depth >= MATERIALIZE_LIMIT.bit_length() or self.base**depth - 1 > MATERIALIZE_LIMIT:
            raise ValueError(f"depth {depth} fingerprint has more than {MATERIALIZE_LIMIT} entries; over limit")
        return self._level(depth)

    def boundary_tuple(self, depth: int) -> BoundaryTuple:
        # a valid map's own fingerprint: its cell maxima, strictly increasing
        # interior q-points, b^depth - 1 of them
        return trusted_tuple(self.base, depth, self.fingerprint(depth))

    # -- evaluation ------------------------------------------------------

    def evaluate(self, x: Point, digits: int) -> Evaluation:
        """First `digits` digits of the image of x; exact point if x is an
        end of a cell down to that depth (ties go to the lower cell, so a
        cell maximum maps to that cell's image word followed by max digits):
        evaluate_all of one point."""
        return self.evaluate_all((x,), digits)[0]

    def evaluate_all(self, xs, digits: int) -> list[Evaluation]:
        """evaluate for every point of xs, in one walk of the cells
        (point_words) for the points in ascending order, sorted on their
        point_keys; the caller's order is kept.  A hit word never ends in
        the point's tail digit, so the image is built canonical as it
        stands."""
        b = self.base
        if any(x.base != b for x in xs):
            raise ValueError("base mismatch")
        if digits < 0:
            raise ValueError(f"digits must be nonnegative, got {digits}")
        if digits > MATERIALIZE_LIMIT:
            raise ValueError(f"{digits} digits requested; over limit {MATERIALIZE_LIMIT}")
        order = sorted(range(len(xs)), key=list(point_keys(xs)).__getitem__)
        found = point_words(self, [xs[k] for k in order], [digits] * len(xs))
        out: list = [None] * len(xs)
        for k, (word, hit) in zip(order, found):
            if hit:
                y = canonical_point(b, word, xs[k].tail)
                out[k] = Evaluation(y.prefix(digits), y)
            else:
                out[k] = Evaluation(word, None)
        return out

    @abstractmethod
    def to_json(self) -> dict: ...


def point_words(tree, xs, limits) -> list[tuple[tuple[int, ...], bool]]:
    """For ascending points xs, per point: the word of the shallowest cell
    of `tree` that has xs[k] as an end (its maximum for tail b-1, its
    minimum for tail 0) and True, or else its depth-limits[k] word and False.

    `tree` is a Surjection: anything with `base`, `support` and
    `cell_maxima(words)`.  One walk for the whole batch, a depth at a
    time, so a cell holding several points is split once.  Above the
    support a cell's division points are its children's maxima, read for
    the whole depth in one cell_maxima call; from it on they are its greedy
    picks (_pick_stems).  A division point s top^w is at least x exactly
    when x's first |s| digits are at most s, so a division point stays in
    the lower cell (cells are right-closed), and ascending points go to
    ascending children.  A hit word never ends in the point's tail digit: a
    first (last) child shares its parent's minimum (maximum), and the
    depth-0 ends are the extreme points.  From the first full cylinder [v]
    on (_greedy_split) the cells are the cylinders of x's prefixes:
    x = c 0^w or c top^w, not an end of [v], has |c| > |v| and is first an
    end of [c], whose word is the cylinder's word followed by c's digits
    after v.
    """
    top, s = tree.base - 1, tree.support
    out: list = [None] * len(xs)
    cells = [((), (), (), 0, range(len(xs)))]  # the depth-j cells holding points
    j = 0
    while cells:
        live = []
        for word, lo, hi, n, group in cells:  # lo and hi agree on n digits
            rest = []
            for k in group:
                x = xs[k]
                t = x.tail
                if (t == top and x.stem == hi) or (t == 0 and x.stem == lo):
                    out[k] = word, True
                elif j >= limits[k]:
                    out[k] = word, False
                else:
                    rest.append(k)
            if rest:
                live.append((word, lo, hi, n, rest))
        if j < s:
            maxima = tree.cell_maxima([cell[0] + (p,) for cell in live for p in range(top)])
        cells = []
        for word, lo, hi, n, rest in live:
            if j < s:
                picks = [_max_stem(maxima[word + (p,)], top) for p in range(top)]
            else:
                picks, n = _greedy_split(top, lo, hi, n)
                if picks is None:  # the cell is [v], |v| = n - 1
                    for k in rest:
                        x, limit = xs[k], limits[k]
                        if x.tail in (0, top) and j + len(x.stem) - (n - 1) <= limit:
                            out[k] = word + x.stem[n - 1 :], True
                        else:
                            out[k] = word + x.prefix(n - 1 + limit - j)[n - 1 :], False
                    continue
            children: list[list[int]] = [[] for _ in range(top + 1)]
            i = 0
            for k in rest:
                x = xs[k]
                while i < top and x.prefix(len(picks[i])) > picks[i]:
                    i += 1
                children[i].append(k)
            for digit, kids in enumerate(children):
                if kids:
                    cells.append((word + (digit,), *_child_stems(top, lo, hi, picks, digit), n, kids))
        j += 1
    return out


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
    Each stem ends below top, so the point is built unvalidated.
    """
    n = lower.first_difference(hi)
    if n is None or lower.digit(n) > hi.digit(n):
        raise ValueError(f"empty open interval ({lower}, {hi})")
    b, top = lower.base, lower.base - 1
    c, l, h = lower.prefix(n), lower.digit(n), hi.digit(n)
    if lower.tail != top or len(lower.stem) > n + 1:
        return canonical_point(b, c + (l,), top)
    if l + 1 < h:
        return canonical_point(b, c + (l + 1,), top)
    if hi.tail == 0 and not any(hi.stem[n + 1 :]):
        raise ValueError(f"empty open interval ({lower}, {hi}): successor pair")
    m = next(i for i in range(n + 1, n + 2 + len(hi.stem)) if hi.digit(i))
    return canonical_point(b, c + (h,) + (0,) * (m - n), top)


def _pick_stems(
    top: int, lo: tuple[int, ...], hi: tuple[int, ...], n: int = 0
) -> list[tuple[int, ...]]:
    """Stems of the b-1 greedy division points of the cell
    [lo 0^w, hi top^w], each pick being its stem followed by top^w, given
    that lo and hi agree on their first n digits.

    Pick p is least_q_point_between(pick p-1, hi), with pick -1 the cell
    minimum.  With n' the first index where lo and hi differ, pick 0 is
    hi[:n'] lo[n'] top^w (that function's first case: lo is eventually 0).
    Every pick has the shape hi[:i] l top^w with l < hi[i], so its first
    difference with hi is i and its stem has length <= i+1; the next pick
    is the second case, hi[:i] (l+1) top^w, when l+1 < hi[i], else the
    third, hi[:m] 0 top^w with m > i the next index where hi has a nonzero
    digit: the same shape with (i, l) = (m, 0).  hi is eventually top >= 1,
    so m exists and no successor pair arises.  Pick 0 has length n'+1; the
    ends of every child agree on their first n'+1 digits, as it lies in a
    cylinder that long."""
    k, m = len(hi), len(lo)
    n = _split_index(top, lo, hi, n)
    l, h = (lo[n] if n < m else 0), (hi[n] if n < k else top)
    if l > h:
        raise ValueError(f"empty interval: {Point(top + 1, lo, 0)} >= {Point(top + 1, hi, top)}")
    c = hi[:n] if n <= k else hi + (top,) * (n - k)
    picks = [c + (l,)]
    for _ in range(top - 1):
        if l + 1 < h:
            l += 1
        else:
            n += 1
            while n < k and not hi[n]:
                n += 1
            l, h = 0, (hi[n] if n < k else top)
            c = hi[:n] if n <= k else hi + (top,) * (n - k)
        picks.append(c + (l,))
    return picks


def _split_index(top: int, lo: tuple[int, ...], hi: tuple[int, ...], n: int) -> int:
    """The first index where lo 0^w and hi top^w differ, given that they
    agree on their first n digits; one exists, as the tails differ."""
    k, m = len(hi), len(lo)
    while (lo[n] if n < m else 0) == (hi[n] if n < k else top):
        n += 1
    return n


def _greedy_split(
    top: int, lo: tuple[int, ...], hi: tuple[int, ...], n: int
) -> tuple[list[tuple[int, ...]] | None, int]:
    """_pick_stems of the cell [lo 0^w, hi top^w] and n'+1, the count of
    digits its children's ends agree on, n' their first difference; None for
    the picks, built for no cylinder, when neither stem reaches past n': the
    full cylinder [v], v = hi top^w cut at n', whose descendant at w is [v w]."""
    n = _split_index(top, lo, hi, n)
    if len(lo) <= n and len(hi) <= n:
        return None, n + 1
    return _pick_stems(top, lo, hi, n), n + 1


def _child_stems(
    top: int, lo: tuple[int, ...], hi: tuple[int, ...], picks: list[tuple[int, ...]], digit: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """End stems of child `digit` of the cell [lo 0^w, hi top^w] divided at
    the points pick top^w: the successor of the pick before it, and its own
    pick.  Greedy children's ends agree on their first len(picks[0]) digits."""
    return (_successor_stem(picks[digit - 1]) if digit else lo), (picks[digit] if digit < top else hi)


def _max_stem(p: Point, top: int) -> tuple[int, ...]:
    """Stem of a cell maximum p = stem top^w; any other tail is refused."""
    if p.tail != top:
        raise ValueError(f"interval maximum must be eventually max-digit, got {p}")
    return p.stem


class Filtering(Surjection):
    """Explicit boundary levels for depths 1..support, greedy rule beyond.

    levels[j] holds the depth-(j+1) boundary tuple: the b^(j+1) - 1 cell
    maxima except the global maximum.  Instances are immutable in value;
    two caches only hold the deterministic extension, so sharing across
    threads is safe and extension is idempotent: every level known so far
    in one list indexed by depth (_known: () at depth 0, the stored levels,
    then the greedy levels _level builds), and cell maxima by word
    (_cell_memo, from the word walk alone, never from point_words).

    Cells below the known levels are reached by a stateless descent on end
    stems from the deepest known cells (_cell_ends), one for a whole batch
    of words, unless cell_maxima finds a word's maximum memoized.
    With n the first index where the ends lo < hi differ,
    c = hi[:n] and l = lo[n] < h = hi[n], the greedy picks are c j top^w
    for l <= j < h and then, while picks remain, hi[:m] j top^w for j
    below hi[m] at the later indices m where hi has a nonzero digit
    (_pick_stems).  So every child is one of three kinds:
    child 0, [lo, c l top^w], is the suffix of the cylinder [c l] from lo;
    a child between two consecutive picks is a full cylinder ([c j], or
    [hi[:m] j], the first of these being [c h 0^(m-n-1)] = [hi[:m] 0]);
    and the last child, [successor of the last pick, hi], is a prefix of
    [c h] up to hi, less the full cylinders cut off before it.  A full
    cylinder [v] splits into [v 0], ..., [v top], so its descendant at
    word w is [v w] and the descent ends there in closed form, as the point
    walk does, and the greedy level pass too.  cell_maxima and the greedy
    levels build their points unvalidated (canonical_point(s)): each stem is
    a pick c + (l,) with l < top, or a cell's hi stem, stripped of top digits.
    """

    __slots__ = ("base", "levels", "support", "_known", "_cell_memo")

    def __init__(self, base: int, levels: tuple[tuple[Point, ...], ...] = ()):
        self.base = base
        self.levels = tuple(tuple(level) for level in levels)
        self.support = len(self.levels)
        self._known: list[tuple[Point, ...]] = [(), *self.levels]
        self._cell_memo: dict[tuple[int, ...], Point] = {}

    def __repr__(self) -> str:
        return f"Filtering(b={self.base}, support={self.support})"

    # -- cells ---------------------------------------------------------

    def _cell_ends(self, words) -> dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]:
        """Stems of the ends of the cell at each word, lo (tail 0) and hi
        (tail top), in one descent: words are grouped by their prefix at the
        deepest known level, then by their next digit, so a cell that
        several words pass through is split once, and a group ends in closed
        form at its first full cylinder [v], whose descendant at word w is
        [v w]."""
        known, s, top = self._known, len(self._known) - 1, self.base - 1
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for w in words:
            groups.setdefault(w[:s], []).append(w)
        stack = []
        for start, group in groups.items():
            level, r = known[len(start)], word_rank(start, self.base)
            lo = _successor_stem(_max_stem(level[r - 1], top)) if r else ()
            hi = _max_stem(level[r], top) if r < len(level) else ()
            stack.append((lo, hi, 0, len(start), group))
        out = {}
        while stack:
            lo, hi, n, j, group = stack.pop()  # lo and hi agree on n digits
            below: dict[int, list[tuple[int, ...]]] = {}
            for w in group:
                if len(w) == j:
                    out[w] = lo, hi
                else:
                    below.setdefault(w[j], []).append(w)
            if not below:
                continue
            picks, n = _greedy_split(top, lo, hi, n)
            if picks is None:
                v = hi + (top,) * (n - 1 - len(hi))
                for ws in below.values():
                    for w in ws:
                        u = v + w[j:]
                        out[w] = _strip(u, 0), _strip(u, top)
                continue
            for digit, ws in below.items():
                stack.append((*_child_stems(top, lo, hi, picks, digit), n, j + 1, ws))
        return out

    def cell_maxima(self, words) -> dict[tuple[int, ...], Point]:
        """Maximum of the depth-len(word) cell at each word's lex position,
        the top point for the last cell of a depth: read from the known
        level of the word's depth where there is one, else from the cell
        memo, else from one shared descent (_cell_ends) that fills it."""
        b, known, memo, out, deep = self.base, self._known, self._cell_memo, {}, []
        n = len(known)
        for w in words:
            if len(w) < n:
                level, r = known[len(w)], word_rank(w, b)
                out[w] = level[r] if r < len(level) else max_point(b)
            elif w in memo:
                out[w] = memo[w]
            else:
                deep.append(w)
        if deep:
            ends = self._cell_ends(deep)
            found = dict(zip(ends, canonical_points(b, [hi for _, hi in ends.values()], b - 1)))
            del ends  # the end stems go before two dicts take the found words
            memo.update(found)
            out.update(found)
        return out

    # -- boundary tuples -----------------------------------------------

    def _level(self, depth: int) -> tuple[Point, ...]:
        """The known level at `depth`, after building every greedy level
        down to it, each in one pass over the cells [lo 0^w, hi top^w] of
        the level above, read as end stems: the entries' stems, checked to
        be stems of interior q-points in C-level passes, then () for the
        last cell.  A full cylinder [v] (v is the longer of lo and hi, the
        other v stripped of 0s or top digits) splits at v l top^w.  A
        level is stored at its depth's index, so a repeated build stores an
        equal level in place."""
        known = self._known
        while len(known) <= depth:
            b, top, d = self.base, self.base - 1, len(known)
            above, stems, lo = known[d - 1], [], ()
            his = list(map(_stem, above))
            if not all(his) or set(map(_tail, above)) - {top}:
                for p in above:  # raises at the first entry that is no interior q-point
                    _successor_stem(_max_stem(p, top))
            his.append(())  # the last cell's maximum, the top point
            ends = [(l,) for l in range(top)]
            for hi in his:
                k, m = len(lo), len(hi)
                if k > m:
                    v = lo if lo == hi + (top,) * (k - m) else None
                else:
                    v = hi if hi == lo + (0,) * (m - k) else None
                stems += _pick_stems(top, lo, hi) if v is None else map(v.__add__, ends)
                if m:
                    lo = hi[:-1] + (hi[-1] + 1,)
            # cell i's picks go to entries b*i .. b*i + top - 1, its maximum to b*i + top
            picks, level = canonical_points(b, stems, top), [None] * (len(above) + len(stems))
            for l in range(top):
                level[l::b] = picks[l::top]
            level[top::b] = above
            known[d : d + 1] = (tuple(level),)
        return known[depth]

    def least_support(self) -> int:
        """The stored depth s, walked back while stored level s is what the
        greedy rule builds from the levels above it."""
        s = self.support
        while s and Filtering(self.base, self.levels[: s - 1])._level(s) == self.levels[s - 1]:
            s -= 1
        return s

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "b": self.base,
            "kind": "filtering",
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
        levels = tuple(map(points_from_json, raw))
        f = cls(base, levels)
        report = validate_filtering(f)
        if not report.ok:
            raise ValueError(f"invalid filtering: {report.message}")
        return f


def validate_filtering(f: Filtering) -> FilteringReport:
    """Check the stored levels form nested proper partitions.

    Verified per level: validate_level (entry count, entries interior
    eventually-max points, strict increase), and that each level subsamples
    to the one above, level[b-1::b] being the level above (the slice
    tuple_to_surjection cuts).  The cell intervals themselves are derived
    data, so these four checks pin the whole structure.
    """
    b = f.base
    for j, level in enumerate(f.levels):
        depth = j + 1
        report = validate_level(b, depth, level)
        if not report.ok:
            return report
        # depth-j maximum i is entry b*i + b - 1; a bad i is sought only on failure
        if j > 0 and level[b - 1 :: b] != f.levels[j - 1]:
            i = next(i for i, y in enumerate(f.levels[j - 1]) if level[b * i + b - 1] != y)
            return FilteringReport(False, f"depth-{depth} tuple does not carry depth-{j} maximum {i}")
    return _VALID
